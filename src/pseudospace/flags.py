"""Flags, flag paths, basepoints, forking and canonical bases.

A flag is a full path hitting every level once.  Changing a flag at the
levels of a letter is a weak operation; the operation is global when the new
vertices are unreachable from the old ones between the bounding anchors.
Any two flags are weakly connected; the reduced connecting word is unique up
to commutation, and composing connecting words in the letter monoid decides
independence: two flags are independent over a third iff the words compose
without splitting.

Every query rests on one core, ``_reduced_path``: the weak difference path,
a list of flags with one ``(lo, hi)`` key per step, refined in place by
``_refine``.  That loop replaces a non-global step by proper-subletter
steps, lifted from a vertex-level shortest path between the anchors; once
every step is global, it swaps the leftmost absorbed step (the lowest bit of
one ``kernels.absorbed`` mask) next to its absorber (``kernels.absorber``)
and merges the two.  Only rewritten steps are split into intervals, and the
scan resumes where the path changed.  A step is global when its old s-part's
component inside the anchors' between-set misses the new s-part; otherwise
the shortest path is searched inside that component.  The space answers the
component by one lookup keyed by the two anchors and the vertex
(``ColoredSpace._anchor_part``), which every insert clears, over components
keyed by the between-set mask, which no insert changes.  Both rewrites lower
the word's ordinal rank, so the loop ends.  The step helpers take a step as
its key ``lo, hi`` (``_anchors`` names its anchors) and build flags by
slicing; only ``realize_type``, whose inserts record a letter, reads one
from ``_LETTERS``.
Vertex ids break the search ties and so choose the path's flags, not its
word up to commutation.  On hand-made graphs (``ColoredSpace.from_graph``) a
step may admit no proper-subletter replacement; it comes back as a stuck
pair, and nothing is merged.

Each query builds only what it returns.  ``flag_path`` reorders the steps
once, to ``kernels.normal_form`` of the keys, which is its word's key, and
marks ``stuck`` steps only when there are any; ``indep``, ``indep_over_set``
and ``basepoint`` compare and rank keys, with no ``FlagPath``, and
``hull`` joins a region with the flags of the reduced path to the
basepoint.  On a built space every weak path from f to g refines to the
same word up to commutation, so a caller holding a reduced path refines from it, passing
``_refine`` a ``start`` before which every step is global: ``basepoint``
appends the weak step from one region flag to the next to the reduced path
to the first, and ``indep`` refines w(f,g).w(g,h) to w(f,h).  A hand-made
graph need not be simply connected, and there a path through another flag
may refine to another reduced word; so on a space whose vertices
``apply_alpha`` did not all make (``_built``), and past a stuck step, the
caller computes the path from scratch.  Public functions check the flags
they are given once.

A basepoint over a nice region is reached by the ``preceq``-least connecting
word, which exists on spaces built by ``apply_alpha`` (Baudisch,
Martin-Pizarro and Ziegler, *Ample hierarchy*).  ``prec`` lowers the rank, so
the words of least rank are the ones equivalent to it: no ``prec`` search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import kernels
from . import words as W
from .errors import (
    DifferenceMismatchError,
    DimensionError,
    FlagNotInSetError,
    NoFlagError,
    NotAPermutationError,
    NotMonotoneError,
    NotReducedError,
    ParseError,
    PreconditionError,
)
from .letters import _LETTERS, IndexSet, Letter
from .ordinals import CnfOrdinal
from .space import (
    BOTTOM,
    TOP,
    Anchor,
    ColoredSpace,
    _monotone_chain,
    is_nice,
)
from .words import Word


class Flag(tuple):
    """A level-0..N path, position i holding the level-i vertex: a tuple of
    vertex ids with no instance dict, so indexing and hashing are the
    tuple's own.  ``vertices`` is the flag itself."""

    __slots__ = ()

    @property
    def vertices(self) -> "Flag":
        return self

    def __repr__(self) -> str:
        return f"Flag(vertices={tuple(self)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self)) + "]"

    def levels_of(self, s: Letter) -> tuple[int, ...]:
        return self[s.lo : s.hi + 1]

    def replace(self, s: Letter, part: Sequence[int]) -> "Flag":
        return Flag(self[: s.lo] + tuple(part) + self[s.hi + 1 :])


def check_flag(space: ColoredSpace, flag: Flag) -> Flag:
    if len(flag) != space.n + 1:
        raise ParseError(f"flag needs {space.n + 1} vertices, got {len(flag)}")
    level, adj = space._level, space._adj
    gap = None  # the first pair that is not adjacent, raised after every level
    for i, v in enumerate(flag):
        if level.get(v) != i:
            raise ParseError(f"vertex {v} is not at level {i}")
        if i and gap is None and v not in adj[flag[i - 1]]:
            gap = flag[i - 1], v
    if gap is not None:
        raise ParseError(f"flag vertices {gap[0]}, {gap[1]} are not adjacent")
    return flag


@dataclass(frozen=True)
class FlagClass:
    """A flag modulo an index set: only the vertices at levels outside the
    modulus matter.  ``fixed`` holds them once, as ``(level, vertex)`` pairs
    bottom up, and equality and hashing read the modulus and ``fixed`` only.
    Classes with different moduli never compare equal; use ``refines``
    across moduli."""

    flag: Flag = field(compare=False)
    modulus: IndexSet
    fixed: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        fixed = tuple((i, v) for i, v in enumerate(self.flag) if i not in self.modulus)
        object.__setattr__(self, "fixed", fixed)

    def fixed_vertices(self) -> dict[int, int]:
        return dict(self.fixed)

    def refines(self, other: "FlagClass") -> bool:
        if not self.modulus <= other.modulus:
            return False
        return all(self.flag[i] == v for i, v in other.fixed)


@dataclass(frozen=True)
class FlagPath:
    flags: tuple[Flag, ...]
    word: Word
    stuck: tuple[int, ...] = ()  # indices of steps with no global refinement

    def vertex_set(self) -> set[int]:
        out: set[int] = set()
        for f in self.flags:
            out.update(f)
        return out


# ---------------------------------------------------------------------------
# flag enumeration and weak connections


def enumerate_flags(space: ColoredSpace, within: set[int] | None = None) -> list[Flag]:
    """The flags inside ``within`` (the whole space when None), in
    vertex-tuple order: up from each level-0 vertex of ``within`` through
    upper neighbours in ascending id order.  Ids that are no vertices are
    ignored."""
    level, adj, n = space._level, space._adj, space.n
    inside = level if within is None else within
    uppers: dict[int, list[int]] = {}  # vertex -> its upper neighbours inside, ascending
    out: list[Flag] = []

    def extend(prefix: tuple[int, ...]) -> None:
        lw = len(prefix)
        if lw > n:
            out.append(Flag(prefix))
            return
        v = prefix[-1]
        ws = uppers.get(v)
        if ws is None:
            ws = uppers[v] = sorted(w for w in adj[v] if level[w] == lw and w in inside)
        for w in ws:
            extend(prefix + (w,))

    for v in sorted(v for v in inside if level.get(v) == 0):
        extend((v,))
    return out


def weak_word(space: ColoredSpace, f: Flag, g: Flag) -> Word:
    """The commuting word of maximal difference intervals between two flags."""
    check_flag(space, f)
    check_flag(space, g)
    return W._from_key(tuple(_interval_steps([f, g], 0, space.n)[1]), space.n)


def _anchors(space: ColoredSpace, f: Flag, lo: int, hi: int) -> tuple[Anchor, Anchor]:
    """The anchors of a step of ``f`` at levels lo..hi: its vertices one
    level below and above, or ``BOTTOM`` and ``TOP`` past the ends."""
    return f[lo - 1] if lo else BOTTOM, f[hi + 1] if hi < space.n else TOP


def is_global_step(space: ColoredSpace, f: Flag, g: Flag, s: Letter) -> bool:
    """True iff changing ``f`` to ``g`` at the levels of ``s`` is global: the
    two s-parts are disconnected inside the subgraph between the anchors."""
    check_flag(space, f)
    check_flag(space, g)
    lo, hi = s.key
    diff = {i for i in range(space.n + 1) if f[i] != g[i]}
    if diff != set(range(lo, hi + 1)):
        raise DifferenceMismatchError(
            f"flags differ at {sorted(diff)}, not at the levels of {s}"
        )
    part = space._anchor_part(*_anchors(space, f, lo, hi), f[lo])
    return not any(part >> v & 1 for v in g[lo : hi + 1])


def _connecting_path(space: ColoredSpace, f: Flag, g: Flag, lo: int, hi: int) -> list[int] | None:
    """A shortest vertex path at levels lo..hi from the part of ``f`` there
    to that of ``g`` between the step's anchors (all at those levels, as
    monotone paths change the level at each edge), or None when global.

    Both parts lie between the anchors, and ``f``'s in one component of
    that between-set, which the space keeps per anchors and vertex.  The
    step is global when that component misses ``g``'s part; otherwise the
    search runs inside it, where it visits what it would visit in the whole
    between-set."""
    part = space._anchor_part(*_anchors(space, f, lo, hi), f[lo])
    targets = g[lo : hi + 1]
    for v in targets:
        if part >> v & 1:
            return space.shortest_path(f[lo : hi + 1], set(targets), part)
    return None


# ---------------------------------------------------------------------------
# reduced flag paths


def flag_path(space: ColoredSpace, f: Flag, g: Flag) -> FlagPath:
    """The reduced flag path from ``f`` to ``g`` with its normal-form word."""
    check_flag(space, f)
    check_flag(space, g)
    flags, keys, stuck_pairs = _reduced_path(space, f, g)
    key = kernels.normal_form(tuple(keys))
    _reorder(flags, keys, key)
    stuck = ()
    if stuck_pairs:
        stuck = tuple(k for k in range(len(keys)) if (flags[k], flags[k + 1]) in stuck_pairs)
    return FlagPath(tuple(flags), W._from_key(key, space.n), stuck)


def _reduced_path(space: ColoredSpace, f: Flag, g: Flag) -> tuple[list[Flag], list, set]:
    """The weak path from ``f`` to ``g`` refined, in the order ``_refine``
    leaves it: its flags, step keys and stuck pairs."""
    flags, keys = _interval_steps([f, g], 0, space.n)
    return flags, keys, _refine(space, flags, keys, 0)


def _refine(space: ColoredSpace, flags: list[Flag], keys: list, start: int) -> set:
    """Refine the weak path ``flags`` with step keys ``keys`` in place to a
    reduced one, taking the steps before ``start`` as global, as those of a
    reduced path are (a swap keeps a step global and a merge rescans from
    the merged step); return the pairs of flags of the steps found stuck,
    with which nothing was merged."""
    stuck_pairs: set[tuple[Flag, Flag]] = set()
    i = start  # every step before i is global or stuck
    for _ in range(10_000):
        i, mids = _next_bridge(space, flags, keys, i, stuck_pairs)
        if mids is not None:
            _rewrite(flags, keys, i, i + 1, mids, keys[i])
            continue
        if stuck_pairs:
            return stuck_pairs
        absorbed = kernels.absorbed(keys)
        if not absorbed:
            return stuck_pairs
        k = (absorbed & -absorbed).bit_length() - 1
        j = kernels.absorber(keys, k)
        # move the leftmost absorbed step k next to its absorber j, then
        # merge the two
        if k < j:
            for p in range(k, j - 1):
                _swap_steps(flags, keys, p)
            _rewrite(flags, keys, j - 1, j + 1, [], keys[j])
        else:
            for p in range(k - 1, j, -1):
                _swap_steps(flags, keys, p)
            _rewrite(flags, keys, j, j + 2, [], keys[j])
        i = min(k, j)
    raise PreconditionError("flag path refinement failed to converge")


def _next_bridge(
    space: ColoredSpace, flags: list[Flag], keys: list, i: int, stuck_pairs: set
) -> tuple[int, list[Flag] | None]:
    """The first step from ``i`` on that is not global, with the flags that
    bridge it by proper-subletter moves; ``len(keys), None`` when there is
    none.  A step whose bridge does not exist is recorded as stuck."""
    while i < len(keys):
        f, g = flags[i], flags[i + 1]
        if not stuck_pairs or (f, g) not in stuck_pairs:
            path = _connecting_path(space, f, g, *keys[i])
            if path is not None:
                try:
                    return i, _subletter_bridge(space, f, *keys[i], path)
                except PreconditionError:
                    stuck_pairs.add((f, g))
        i += 1
    return i, None


def _interval_steps(chain: list[Flag], lo: int, hi: int) -> tuple[list[Flag], list]:
    """The flags of ``chain``, whose members agree outside levels lo..hi,
    with each step split into one step per maximal interval where its two
    flags differ, lowest first, and identity steps dropped; with one key per
    step."""
    flags, keys = [chain[0]], []
    for b in chain[1:]:
        a = flags[-1]
        j = lo
        while j <= hi:
            if a[j] == b[j]:
                j += 1
                continue
            start = j
            while j < hi and a[j + 1] != b[j + 1]:
                j += 1
            a = _put(a, b, start, j)
            flags.append(a)
            keys.append((start, j))
            j += 2
    return flags, keys


def _rewrite(flags: list[Flag], keys: list, i: int, j: int, mids: list[Flag], key) -> None:
    """Replace steps i..j-1, which change only the levels of ``key``, by the
    interval steps through ``mids``."""
    new_flags, new_keys = _interval_steps([flags[i], *mids, flags[j]], *key)
    flags[i : j + 1] = new_flags
    keys[i:j] = new_keys


def _put(a: Flag, b: Flag, lo: int, hi: int) -> Flag:
    """``a`` with the vertices of ``b`` at levels lo..hi."""
    return Flag(a[:lo] + b[lo : hi + 1] + a[hi + 1 :])


def _subletter_bridge(space: ColoredSpace, a: Flag, lo: int, hi: int, path: list[int]) -> list[Flag]:
    """Intermediate flags realizing the step of ``a`` at levels lo..hi as
    proper-subletter moves, lifted from a vertex path between the two parts."""
    below, above = _anchors(space, a, lo, hi)
    head, tail = a[:lo], a[hi + 1 :]
    level = space._level
    mids: list[Flag] = []
    for u, v in zip(path, path[1:]):
        lower, upper = (u, v) if level[u] < level[v] else (v, u)
        down, up = _monotone_chain(space, below, lower), _monotone_chain(space, upper, above)
        mids.append(Flag(head + down + (lower, upper) + up + tail))
    return mids


def _swap_steps(flags: list[Flag], keys: list, k: int) -> None:
    """Exchange the commuting steps k and k+1; the middle flag is determined."""
    flags[k + 1] = _put(flags[k], flags[k + 2], *keys[k + 1])
    keys[k], keys[k + 1] = keys[k + 1], keys[k]


def _reorder(flags: list[Flag], keys: list, target: Sequence) -> None:
    """Permute the steps by swaps of adjacent commuting steps until their
    keys read ``target``, a permutation of them."""
    for k, wanted in enumerate(target):
        for p in range(keys.index(wanted, k), k, -1):
            if not kernels._commutes(keys[p - 1], keys[p]):
                raise NotAPermutationError("blocked permutation")
            _swap_steps(flags, keys, p - 1)


def permute_path(space: ColoredSpace, path: FlagPath, target: Word) -> FlagPath:
    """The unique weak path with a commutation-permuted word."""
    if sorted(path.word.key) != sorted(target.key) or not W.equivalent(path.word, target):
        raise NotAPermutationError(f"{target} is not a permutation of {path.word}")
    flags, keys = list(path.flags), list(path.word.key)
    _reorder(flags, keys, target.key)
    return FlagPath(tuple(flags), W._from_key(tuple(keys), space.n), path.stuck)


# ---------------------------------------------------------------------------
# basepoints, forking, canonical bases


def basepoint(space: ColoredSpace, f: Flag, region: set[int]) -> tuple[Flag, Word]:
    """The region's flag whose connecting word from ``f`` has least rank,
    ties to the least vertex-id tuple, with that word: the ``preceq``-minimum
    on built spaces.  On a hand-made graph without a minimum the word may be
    incomparable with another minimal one.  The region's flags come in
    vertex-tuple order, each word refined as the module docstring says."""
    check_flag(space, f)
    return _basepoint(space, f, region)


def _basepoint(space: ColoredSpace, f: Flag, region: set[int]) -> tuple[Flag, Word]:
    if not is_nice(space, region):
        raise PreconditionError("basepoint requires a nice region")
    built = _built(space)
    best = best_rank = None
    flags, keys = [f], []  # a reduced path from f to the last candidate
    # candidates come in vertex-tuple order, so the first of least rank wins
    for g in enumerate_flags(space, within=region):
        if built and _extend(space, flags, keys, g):
            key = tuple(keys)
        else:
            key = tuple(_reduced_path(space, f, g)[1])
            flags, keys = [f], []
        rank = W._rank(key, space.n)
        if best is None or rank < best_rank:
            best, best_rank = (g, W._from_key(kernels.normal_form(key), space.n)), rank
    if best is None:
        raise NoFlagError("region contains no flag")
    return best


def indep(space: ColoredSpace, f: Flag, g: Flag, h: Flag) -> bool:
    """Independence of ``f`` from ``h`` over ``g``: the connecting words
    compose without splitting.  It compares keys: the reduct of
    w(f,g).w(g,h), in normal form, with the normal form of w(f,h)."""
    for x in (f, g, h):
        check_flag(space, x)
    u_flags, u, u_stuck = _reduced_path(space, f, g)
    v_flags, v, v_stuck = _reduced_path(space, g, h)
    # the path from f to h through g: every step is global, so refining it
    # only merges across g, and bridges the steps merging makes
    flags, keys = [*u_flags, *v_flags[1:]], [*u, *v]
    if not _built(space) or u_stuck or v_stuck or _refine(space, flags, keys, len(keys)):
        keys = _reduced_path(space, f, h)[1]
    return kernels.reduce_word((*u, *v)) == kernels.normal_form(tuple(keys))


def _built(space: ColoredSpace) -> bool:
    """True iff ``apply_alpha`` made every vertex, so that every reduced path
    between two flags has one word up to commutation.  Ids are dense and a
    hand-made graph holds the lowest ones, so vertex 0 comes from the log."""
    return bool(space.build_log) and space.build_log[0].created[0] == 0


def _extend(space: ColoredSpace, flags: list[Flag], keys: list, g: Flag) -> bool:
    """Extend the reduced path ``flags``, with step keys ``keys``, in place by
    the weak step from its last flag to ``g``, and refine it.  True when no
    step is stuck: the path is then a reduced path to ``g``."""
    start = len(keys)
    flags[-1:], keys[start:] = _interval_steps([flags[-1], g], 0, space.n)
    return not _refine(space, flags, keys, start)


def indep_over_set(space: ColoredSpace, f: Flag, g: Flag, region: set[int]) -> bool:
    """True iff ``g`` is a basepoint of ``f`` over the region."""
    check_flag(space, f)
    check_flag(space, g)
    if not set(g) <= set(region):
        raise FlagNotInSetError("flag lies outside the region")
    base_key = _basepoint(space, f, region)[1].key
    return kernels.normal_form(tuple(_reduced_path(space, f, g)[1])) == base_key


def hull(space: ColoredSpace, region: set[int], f: Flag) -> set[int]:
    """The nice region joined with the vertices of the reduced path from
    ``f`` to its basepoint there; the region itself when ``f`` lies in it.

    That the union is nice on a built space is checked, not proved: it held
    in every case compared with the brute-force niceness reference.  On a
    hand-made graph (not ``_built``) it need not be, so there the union is
    checked, and a union that is not nice raises ``PreconditionError``."""
    check_flag(space, f)
    g = _basepoint(space, f, region)[0]
    out = set(region).union(*_reduced_path(space, f, g)[0])
    if not _built(space) and not is_nice(space, out):
        raise PreconditionError("the hull of a hand-made graph is not nice")
    return out


def canonical_base(space: ColoredSpace, f: Flag, region: set[int]) -> FlagClass:
    """Basepoint flag modulo the right stabilizer of the connecting word."""
    g, u = basepoint(space, f, region)
    return FlagClass(g, W.right_stabilizer(u))


def realize_type(space: ColoredSpace, g: Flag, u: Word) -> Flag:
    """Extend the space so a flag connects to ``g`` by exactly the word ``u``
    (fresh vertices make every step global)."""
    check_flag(space, g)
    if u.n != space.n:
        raise DimensionError(f"word dimension {u.n} != space dimension {space.n}")
    if not W.is_reduced(u):
        raise NotReducedError(f"{u} is not reduced")
    current = g
    for lo, hi in reversed(u.key):
        created = space.apply_alpha(_LETTERS[lo, hi], *_anchors(space, current, lo, hi))
        current = Flag(current[:lo] + tuple(created) + current[hi + 1 :])
    return current


@dataclass(frozen=True)
class TypeRank:
    """Lascar rank of the type attached to a reduced word, when the closed
    form applies, plus the ordinal upper bound that always does."""

    u_rank: CnfOrdinal | None
    ord_bound: CnfOrdinal


def type_rank(u: Word) -> TypeRank:
    if not W.is_reduced(u):
        raise NotReducedError(f"{u} is not reduced")
    try:
        exact = W.rd_closed_form(u)
    except NotMonotoneError:
        exact = None
    return TypeRank(exact, W.ord_rank(u))


def ample_report(n: int) -> list[dict]:
    """The canonical-base identities behind the ampleness chain, as word
    computations on the right stabilizers.  Each entry names its word in
    dotted syntax (``word``, with its dimension ``n``) next to the label."""
    out = []
    for i in range(1, n):
        u = Word((Letter(0, i), Letter(i + 1, n)), n)
        expected = frozenset(range(0, i)) | frozenset(range(i + 1, n + 1))
        out.append(_ample_check(f"sr({u}) = [0,{i - 1}]u[{i + 1},{n}]", u, expected))
    u = Word((Letter(0, n - 1), Letter(1, n)), n)
    out.append(_ample_check(f"sr({u}) = [1,{n}]", u, frozenset(range(1, n + 1))))
    return out


def _ample_check(label: str, u: Word, expected: frozenset) -> dict:
    actual = W.right_stabilizer(u)
    return {
        "check": label,
        "n": u.n,
        "word": str(u),
        "pass": actual == expected,
        "witness": {"expected": sorted(expected), "actual": sorted(actual)},
    }
