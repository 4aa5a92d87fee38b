"""Flags, flag paths, basepoints, forking and canonical bases.

A flag is a full path hitting every level once.  Changing a flag at the
levels of a letter is a weak operation; the operation is global when the new
vertices are unreachable from the old ones between the bounding anchors.
Any two flags are weakly connected; the reduced connecting word is unique up
to commutation, and composing connecting words in the letter monoid decides
independence: two flags are independent over a third iff the words compose
without splitting.

``flag_path`` computes the reduced path constructively: start from the weak
difference word, repeatedly replace non-global steps by proper-subletter
sub-paths (lifting a vertex-level shortest path between the anchors) and
merge absorbed letters at the flag level.  Both transformations strictly
decrease the word's ordinal rank, so the loop terminates.  On spaces not
built by the standard operations a step may admit no proper-subletter
replacement; such steps are reported on the path as ``stuck`` instead of
being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .letters import (
    _LETTERS,
    IndexSet,
    Letter,
    commutes,
    index_set_to_letters,
    letter_lt,
)
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


@dataclass(frozen=True)
class Flag:
    """A level-0..N path, position i holding the level-i vertex."""

    vertices: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.vertices[i]

    def __len__(self) -> int:
        return len(self.vertices)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.vertices) + "]"

    def levels_of(self, s: Letter) -> tuple[int, ...]:
        return self.vertices[s.lo : s.hi + 1]

    def replace(self, s: Letter, part: Sequence[int]) -> "Flag":
        v = list(self.vertices)
        v[s.lo : s.hi + 1] = list(part)
        return Flag(tuple(v))


def check_flag(space: ColoredSpace, flag: Flag) -> Flag:
    if len(flag.vertices) != space.n + 1:
        raise ParseError(f"flag needs {space.n + 1} vertices, got {len(flag.vertices)}")
    for i, v in enumerate(flag.vertices):
        if v not in space._level or space.level(v) != i:
            raise ParseError(f"vertex {v} is not at level {i}")
    for a, b in zip(flag.vertices, flag.vertices[1:]):
        if b not in space.neighbors(a):
            raise ParseError(f"flag vertices {a}, {b} are not adjacent")
    return flag


@dataclass(frozen=True)
class FlagClass:
    """A flag modulo an index set: only the vertices at levels outside the
    modulus matter.  Classes with different moduli never compare equal; use
    ``refines`` across moduli."""

    flag: Flag
    modulus: IndexSet

    def fixed_vertices(self) -> dict[int, int]:
        return {
            i: v for i, v in enumerate(self.flag.vertices) if i not in self.modulus
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagClass):
            return NotImplemented
        return self.modulus == other.modulus and self.fixed_vertices() == other.fixed_vertices()

    def __hash__(self) -> int:
        return hash((self.modulus, tuple(sorted(self.fixed_vertices().items()))))

    def refines(self, other: "FlagClass") -> bool:
        if not self.modulus <= other.modulus:
            return False
        theirs = other.fixed_vertices()
        return all(self.flag.vertices[i] == v for i, v in theirs.items())


@dataclass(frozen=True)
class FlagPath:
    flags: tuple[Flag, ...]
    word: Word
    stuck: tuple[int, ...] = ()  # indices of steps with no global refinement

    @property
    def reduced(self) -> bool:
        return not self.stuck and W.is_reduced(self.word)

    def vertex_set(self) -> set[int]:
        out: set[int] = set()
        for f in self.flags:
            out.update(f.vertices)
        return out


# ---------------------------------------------------------------------------
# flag enumeration and weak connections


def enumerate_flags(space: ColoredSpace, within: set[int] | None = None) -> list[Flag]:
    allowed = set(space.vertices) if within is None else set(within)
    out: list[Flag] = []

    def extend(prefix: list[int]):
        level = len(prefix)
        if level == space.n + 1:
            out.append(Flag(tuple(prefix)))
            return
        if level == 0:
            candidates = [v for v in space.vertices if v in allowed and space.level(v) == 0]
        else:
            candidates = [
                v
                for v in sorted(space.neighbors(prefix[-1]))
                if v in allowed and space.level(v) == level
            ]
        for v in candidates:
            extend(prefix + [v])

    extend([])
    return out


def weak_word(space: ColoredSpace, f: Flag, g: Flag) -> Word:
    """The commuting word of maximal difference intervals between two flags."""
    diff = frozenset(i for i in range(space.n + 1) if f[i] != g[i])
    return W._from_key(tuple(s.key for s in index_set_to_letters(diff)), space.n)


def _anchors_for(space: ColoredSpace, f: Flag, s: Letter) -> tuple[Anchor, Anchor]:
    lo: Anchor = f[s.lo - 1] if s.lo > 0 else BOTTOM
    hi: Anchor = f[s.hi + 1] if s.hi < space.n else TOP
    return lo, hi


def is_global_step(space: ColoredSpace, f: Flag, g: Flag, s: Letter) -> bool:
    """True iff changing ``f`` to ``g`` at the levels of ``s`` is global: the
    two s-parts are disconnected inside the subgraph between the anchors."""
    diff = {i for i in range(space.n + 1) if f[i] != g[i]}
    if diff != set(range(s.lo, s.hi + 1)):
        raise DifferenceMismatchError(
            f"flags differ at {sorted(diff)}, not at the levels of {s}"
        )
    return _connecting_path(space, f, g, s) is None


def _connecting_path(
    space: ColoredSpace, f: Flag, g: Flag, s: Letter, reverse_ties: bool = False
) -> list[int] | None:
    """A shortest vertex path at the levels of ``s`` from the s-part of ``f``
    to that of ``g`` between the anchors, or None when the step is global."""
    lo, hi = _anchors_for(space, f, s)
    return space.shortest_path(
        f.levels_of(s),
        set(g.levels_of(s)),
        space._between(lo, hi),
        levels=range(s.lo, s.hi + 1),
        reverse=reverse_ties,
    )


# ---------------------------------------------------------------------------
# reduced flag paths


def flag_path(space: ColoredSpace, f: Flag, g: Flag, reverse_ties: bool = False) -> FlagPath:
    """The reduced flag path from ``f`` to ``g`` with its normal-form word."""
    check_flag(space, f)
    check_flag(space, g)
    flags: list[Flag] = [f]
    for letter in weak_word(space, f, g).letters:
        flags.append(flags[-1].replace(letter, g.levels_of(letter)))
    stuck_pairs: set[tuple[Flag, Flag]] = set()
    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise PreconditionError("flag path refinement failed to converge")
        if _drop_identities(flags):
            continue
        if _split_non_intervals(space, flags):
            continue
        if _refine_non_global(space, flags, stuck_pairs, reverse_ties):
            continue
        if _merge_absorbed(space, flags, stuck_pairs):
            continue
        break
    _sort_to_normal_form(space, flags)
    word = W._from_key(
        tuple(_step_key(space, a, b) for a, b in zip(flags, flags[1:])), space.n
    )
    stuck = tuple(
        i
        for i, (a, b) in enumerate(zip(flags, flags[1:]))
        if (a, b) in stuck_pairs
    )
    return FlagPath(tuple(flags), word, stuck)


def _step_key(space: ColoredSpace, a: Flag, b: Flag) -> tuple[int, int]:
    diff = [i for i in range(space.n + 1) if a[i] != b[i]]
    return diff[0], diff[-1]


def _step_letter(space: ColoredSpace, a: Flag, b: Flag) -> Letter:
    return _LETTERS[_step_key(space, a, b)]


def _drop_identities(flags: list[Flag]) -> bool:
    for i in range(len(flags) - 1):
        if flags[i] == flags[i + 1]:
            del flags[i + 1]
            return True
    return False


def _split_non_intervals(space: ColoredSpace, flags: list[Flag]) -> bool:
    for i in range(len(flags) - 1):
        a, b = flags[i], flags[i + 1]
        diff = frozenset(j for j in range(space.n + 1) if a[j] != b[j])
        parts = index_set_to_letters(diff)
        if len(parts) > 1:
            mids = []
            cur = a
            for letter in parts[:-1]:
                cur = cur.replace(letter, b.levels_of(letter))
                mids.append(cur)
            flags[i + 1 : i + 1] = mids
            return True
    return False


def _refine_non_global(
    space: ColoredSpace,
    flags: list[Flag],
    stuck_pairs: set[tuple[Flag, Flag]],
    reverse_ties: bool,
) -> bool:
    for i in range(len(flags) - 1):
        a, b = flags[i], flags[i + 1]
        if (a, b) in stuck_pairs:
            continue
        s = _step_letter(space, a, b)
        path = _connecting_path(space, a, b, s, reverse_ties)
        if path is None:
            continue
        try:
            mids = _subletter_bridge(space, a, s, path)
        except PreconditionError:
            stuck_pairs.add((a, b))
            continue
        flags[i + 1 : i + 1] = mids
        return True
    return False


def _subletter_bridge(space: ColoredSpace, a: Flag, s: Letter, path: list[int]) -> list[Flag]:
    """Intermediate flags realizing the step as proper-subletter moves,
    lifted from a vertex path between the two s-parts."""
    lo, hi = _anchors_for(space, a, s)
    mids: list[Flag] = []
    for u, v in zip(path, path[1:]):
        lower, upper = (u, v) if space.level(u) < space.level(v) else (v, u)
        down = _monotone_chain(space, lo, lower) + [lower]
        up = [upper] + _monotone_chain(space, upper, hi)
        mids.append(a.replace(s, down + up))
    return mids


def _absorption_pair(letters: Sequence[Letter]) -> tuple[int, int] | None:
    """(absorbed position, absorbing position) for the leftmost absorbed letter."""
    for i, s in enumerate(letters):
        for j in range(i + 1, len(letters)):
            if letters[j].lo <= s.lo and s.hi <= letters[j].hi:
                return (i, j)
            if not commutes(s, letters[j]):
                break
        for j in range(i - 1, -1, -1):
            if letters[j].lo <= s.lo and s.hi <= letters[j].hi:
                return (i, j)
            if not commutes(s, letters[j]):
                break
    return None


def _merge_absorbed(
    space: ColoredSpace, flags: list[Flag], stuck_pairs: set[tuple[Flag, Flag]]
) -> bool:
    letters = [_step_letter(space, a, b) for a, b in zip(flags, flags[1:])]
    if any((a, b) in stuck_pairs for a, b in zip(flags, flags[1:])):
        return False
    pair = _absorption_pair(letters)
    if pair is None:
        return False
    i, j = pair
    if i < j:
        for k in range(i, j - 1):
            _swap_steps(space, flags, k)
        del flags[j]  # merge steps j-1, j into one raw step
    else:
        for k in range(i, j + 1, -1):
            _swap_steps(space, flags, k - 1)
        del flags[j + 1]
    return True


def _swap_steps(space: ColoredSpace, flags: list[Flag], k: int) -> None:
    """Exchange two adjacent commuting steps; the middle flag is determined."""
    a, mid, c = flags[k], flags[k + 1], flags[k + 2]
    s = _step_letter(space, a, mid)
    t = _step_letter(space, mid, c)
    if not commutes(s, t):
        raise NotAPermutationError(f"steps {s} and {t} do not commute")
    flags[k + 1] = a.replace(t, c.levels_of(t))


def _sort_to_normal_form(space: ColoredSpace, flags: list[Flag]) -> None:
    changed = True
    while changed:
        changed = False
        for k in range(len(flags) - 2):
            s = _step_letter(space, flags[k], flags[k + 1])
            t = _step_letter(space, flags[k + 1], flags[k + 2])
            if commutes(s, t) and letter_lt(t, s):
                _swap_steps(space, flags, k)
                changed = True


def permute_path(space: ColoredSpace, path: FlagPath, target: Word) -> FlagPath:
    """The unique weak path with a commutation-permuted word."""
    if sorted(path.word.letters) != sorted(target.letters) or not W.equivalent(
        path.word, target
    ):
        raise NotAPermutationError(f"{target} is not a permutation of {path.word}")
    flags = list(path.flags)
    keys = list(path.word.key)
    for k, wanted in enumerate(target.key):
        p = k
        while keys[p] != wanted:
            p += 1
        while p > k:
            if not kernels._commutes(keys[p - 1], keys[p]):
                raise NotAPermutationError("blocked permutation")
            _swap_steps(space, flags, p - 1)
            keys[p - 1], keys[p] = keys[p], keys[p - 1]
            p -= 1
    return FlagPath(tuple(flags), W._from_key(tuple(keys), space.n), path.stuck)


# ---------------------------------------------------------------------------
# basepoints, forking, canonical bases


_PREC_BOUND = 32  # connecting words at desk scale are far shorter


def basepoint(space: ColoredSpace, f: Flag, region: set[int]) -> tuple[Flag, Word]:
    """The flag of the region reached by the smallest connecting word, with
    ties broken by the least vertex-id tuple."""
    if not is_nice(space, region):
        raise PreconditionError("basepoint requires a nice region")
    candidates = enumerate_flags(space, within=region)
    if not candidates:
        raise NoFlagError("region contains no flag")
    paths = {g: flag_path(space, f, g).word for g in candidates}
    best = candidates[0]
    for g in candidates[1:]:
        if W.prec(paths[g], paths[best], bound=_PREC_BOUND):
            best = g
    # minimal is minimum here: nothing else may lie strictly below
    for g in candidates:
        if W.prec(paths[g], paths[best], bound=_PREC_BOUND):
            raise PreconditionError("no minimum connecting word; region not nice?")
    tied = [g for g in candidates if W.equivalent(paths[g], paths[best])]
    winner = min(tied, key=lambda g: g.vertices)
    return winner, paths[winner]


def indep(space: ColoredSpace, f: Flag, g: Flag, h: Flag) -> bool:
    """Independence of ``f`` from ``h`` over ``g``: the connecting words
    compose without splitting."""
    u = flag_path(space, f, g).word
    v = flag_path(space, g, h).word
    w = flag_path(space, f, h).word
    return W.equivalent(W.concat_reduce(u, v), w)


def indep_over_set(space: ColoredSpace, f: Flag, g: Flag, region: set[int]) -> bool:
    """True iff ``g`` is a basepoint of ``f`` over the region."""
    if not set(g.vertices) <= set(region):
        raise FlagNotInSetError("flag lies outside the region")
    base_word = basepoint(space, f, region)[1]
    return W.equivalent(flag_path(space, f, g).word, base_word)


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
    for s in reversed(u.letters):
        lo, hi = _anchors_for(space, current, s)
        created = space.apply_alpha(s, lo, hi)
        current = current.replace(s, created)
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
    computations on the right stabilizers."""
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
        "pass": actual == expected,
        "witness": {"expected": sorted(expected), "actual": sorted(actual)},
    }
