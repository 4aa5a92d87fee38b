"""The monoid of interval letters: reduction, normal forms, stabilizers,
decompositions, strong reduction and rank functions.

Words multiply modulo two relations: commuting letters swap, and a letter
absorbs any of its subletters that reaches it (generalized cancellation).
Every word has a unique reduct up to commutation, and every commutation class
has a unique normal form, so monoid elements are compared by normal forms of
reducts.  All operations return normal-form output.

Strong reduction additionally allows splitting a repeated letter ``s.s`` into
a product of proper subletters of ``s``; it is not confluent, so only a
bounded, sound enumeration of strong reducts is provided.  A letter whose
candidate products outnumber the step budget is not split, and the result
then says the enumeration is incomplete.

The order ``prec`` (replace at least one letter by a product of proper
subletters, up to commutation) is implemented exactly as a one-step relation;
that relation is already transitive, so no closure is computed.  It is one
depth-first search on keys, on a stack, with a set of the states it has
seen, so its depth is not bound by Python's recursion limit.  It places the
positions of
``u`` block by block, one block per letter of ``v``, while a bitmask holds the
positions not yet placed; a position is free when no unplaced earlier
position holds a letter that does not commute with it.  A letter of ``v`` is
either kept, by its lowest unplaced copy, or replaced by every free
proper-subletter position, found in one ascending pass, so each letter has
at most two branches (``_prec`` says why the whole pass is exact).  The
branches can still compound: a family of pairs makes the search store
``2^(k+1) + 1`` states at ``2k + 2`` letters of ``u``.  So the search runs on
a budget of stored states, not on a bound on word length, and only a search
that passes the budget raises ``SearchBoundExceededError``.

Stabilizers, final segments, ``split_absorbed``, fine decomposition and left
division work on keys and level bitmasks, read from ``kernels._MASKS``; a
letter commutes with another iff its levels miss the other's levels widened
by one on each side.  Left division is exact and needs no search: one pass
splits off the greatest common left factor of ``u`` and ``v``, and ``u``
divides ``v`` iff what is left of ``v`` absorbs what is left of ``u``
(``divides_left_bounded`` gives the proof); what is left of ``v`` is then
the least witness.

There is one word representation: a ``Word`` stores its dimension and its
key, the letters as ``(lo, hi)`` pairs, which the kernels in ``kernels.py``
work on and which equality and hashing use; its letters are read back from
the key through the shared table ``_LETTERS``.  Validation happens at the
boundary only: ``Word(...)`` and ``parse_word`` check the dimension and every
letter, while results computed from words that are already valid are built
by ``_from_key``, which sets the two fields without any check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from . import kernels
from .kernels import _MASKS
from .errors import (
    DimensionError,
    NotMonotoneError,
    NotReducedError,
    ParseError,
    SearchBoundExceededError,
)
from .letters import (
    _LETTERS,
    IndexSet,
    Letter,
    check_dimension,
    parse_letter,
    proper_subletters,
)
from .ordinals import CnfOrdinal, cnf_from_counts

_PREC_STATES = 1 << 16  # states one ``_prec`` search may store
SPLIT_LEN_DEFAULT = 3
SPLIT_STEPS_DEFAULT = 50_000


@dataclass(frozen=True, init=False)
class Word:
    """A finite sequence of letters in ambient dimension ``n``, stored as its
    ``key``: the letters as ``(lo, hi)`` pairs, which the kernels work on and
    equality and hashing use.  ``letters`` reads them back from ``_LETTERS``."""

    n: int
    key: tuple[tuple[int, int], ...]

    def __init__(self, letters: Iterable[Letter], n: int):
        self.__dict__.update(n=n, key=tuple(s.key for s in letters))
        self.__post_init__()

    def __post_init__(self):
        check_dimension(self.n)
        for lo, hi in self.key:
            if hi > self.n:
                raise DimensionError(f"letter {_LETTERS[lo, hi]} exceeds dimension {self.n}")

    @classmethod
    def one(cls, n: int) -> "Word":
        return cls((), n)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(map(_LETTERS.__getitem__, self.key))

    def __len__(self) -> int:
        return len(self.key)

    def __iter__(self) -> Iterator[Letter]:
        return map(_LETTERS.__getitem__, self.key)

    def __str__(self) -> str:
        if not self.key:
            return "1"
        return ".".join(map(str, self))

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, n={self.n})"

    def concat(self, other: "Word") -> "Word":
        _same_dimension(self, other)
        return _from_key(self.key + other.key, self.n)


def _same_dimension(u: Word, v: Word) -> int:
    if u.n != v.n:
        raise DimensionError(f"mixed dimensions {u.n} and {v.n}")
    return u.n


def _from_key(key: tuple[tuple[int, int], ...], n: int) -> Word:
    """The unchecked constructor: ``key`` must already be a tuple of valid
    letter keys of dimension ``n``, as every result computed from checked
    words is.  Skips all validation."""
    w = object.__new__(Word)
    w.__dict__.update(n=n, key=key)
    return w


def parse_word(text: str, n: int) -> Word:
    """Parse dotted letter syntax; "1" is the empty word."""
    text = text.strip()
    if text == "1":
        return Word.one(n)
    if not text:
        raise ParseError("empty word text (use '1')")
    return Word(tuple(parse_letter(p) for p in text.split(".")), n)


# ---------------------------------------------------------------------------
# level masks, read from ``kernels._MASKS``


def _index_set(mask: int) -> IndexSet:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _support(key: tuple) -> int:
    out = 0
    for s in key:
        out |= _MASKS[s][0]
    return out


# ---------------------------------------------------------------------------
# reduction / normal form / equivalence


def is_reduced(u: Word) -> bool:
    return kernels.is_reduced(u.key)


def reduce(u: Word) -> Word:
    """The unique reduct (generalized cancellation to fixpoint), normalized."""
    return _from_key(kernels.reduce_word(u.key), u.n)


def normal_form(u: Word) -> Word:
    """Canonical representative of the commutation class (no cancellation)."""
    return _from_key(kernels.normal_form(u.key), u.n)


def equivalent(u: Word, v: Word) -> bool:
    _same_dimension(u, v)
    return kernels.normal_form(u.key) == kernels.normal_form(v.key)


def inverse(u: Word) -> Word:
    return _from_key(u.key[::-1], u.n)


def support(u: Word) -> IndexSet:
    return _index_set(_support(u.key))


def concat_reduce(u: Word, v: Word) -> Word:
    _same_dimension(u, v)
    return reduce(u.concat(v))


def final_segment(u: Word) -> tuple[Word, Word]:
    """Split ``u ~ remainder . segment``; the segment letters commute with
    everything after their position (hence pairwise): their levels miss
    ``later``, the widened levels of the letters after them."""
    remainder: list[tuple[int, int]] = []
    segment: list[tuple[int, int]] = []
    later = 0
    for s in reversed(u.key):
        own, wide = _MASKS[s]
        if own & later:
            remainder.append(s)
        else:
            segment.append(s)
        later |= wide
    return _from_key(tuple(remainder[::-1]), u.n), _from_key(tuple(segment[::-1]), u.n)


# ---------------------------------------------------------------------------
# stabilizers and absorption


def _left_stabilizer(key: tuple) -> int:
    """``left_stabilizer`` on a key, as a level mask; ``cent`` holds the
    levels that commute with every letter passed so far."""
    out = 0
    cent = -1
    for s in key:
        own, wide = _MASKS[s]
        out |= cent & own
        cent &= ~wide
    return out


def left_stabilizer(v: Word) -> IndexSet:
    """Union over positions j of the levels of ``letter_j`` that commute
    with every letter before j."""
    return _index_set(_left_stabilizer(v.key))


def right_stabilizer(v: Word) -> IndexSet:
    return _index_set(_left_stabilizer(v.key[::-1]))


def absorbs_left(v: Word, u: Word) -> bool:
    """True iff ``v`` absorbs ``u`` on the left, i.e. support(u) inside sL(v)."""
    _same_dimension(u, v)
    return not _support(u.key) & ~_left_stabilizer(v.key)


def properly_absorbs_left(v: Word, u: Word) -> bool:
    """Every letter ``s`` of ``u`` is absorbed by a strictly larger letter of
    ``v``: in ``s.v`` the absorber of ``s``, at position ``j``, is the letter
    ``j - 1`` of ``v``, and it is not ``s`` itself."""
    _same_dimension(u, v)
    for s in u.key:
        j = kernels.absorber((s,) + v.key, 0)
        if j is None or v.key[j - 1] == s:
            return False
    return True


def properly_absorbs_right(v: Word, u: Word) -> bool:
    return properly_absorbs_left(inverse(v), inverse(u))


def wobbling(u: Word, v: Word) -> IndexSet:
    _same_dimension(u, v)
    return right_stabilizer(u) & left_stabilizer(v)


def _split_absorbed(key: tuple, absorbed: int) -> tuple[tuple, tuple]:
    """``split_absorbed`` on a key and a level mask; ``kept`` is the widened
    mask of the letters that stay, so a letter commutes past all of them iff
    its levels miss it."""
    stay: list[tuple[int, int]] = []
    moved: list[tuple[int, int]] = []
    kept = 0
    for s in reversed(key):
        own, wide = _MASKS[s]
        if not own & ~absorbed and not own & kept:
            moved.append(s)
        else:
            stay.append(s)
            kept |= wide
    return tuple(reversed(stay)), tuple(reversed(moved))


def split_absorbed(u: Word, absorbed_into: IndexSet) -> tuple[Word, Word]:
    """Split ``u ~ u1.u2`` where every letter of ``u2`` is contained in the
    given index set and commutes past the rest of ``u1``, and no final-segment
    letter of ``u1`` is contained in it.  Unique up to commutation and only
    depends on the set."""
    mask = sum(1 << i for i in absorbed_into if i >= 0)
    stay, moved = _split_absorbed(u.key, mask)
    return _from_key(stay, u.n), _from_key(moved, u.n)


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class FineDecomposition:
    """``u ~ u1.u_prime`` and ``v ~ v_prime.v1`` with the product reducing to
    ``u1.v1``; the symmetric variant additionally extracts the commuting word
    ``w`` with ``u ~ u1.u_prime.w`` and ``v ~ w.v_prime.v1``."""

    u1: Word
    u_prime: Word
    v_prime: Word
    v1: Word
    w: Word | None = None

    def reduct(self) -> Word:
        mid = self.w if self.w is not None else Word.one(self.u1.n)
        return normal_form(self.u1.concat(mid).concat(self.v1))


def decompose_fine(u: Word, v: Word) -> FineDecomposition:
    """Fine decomposition of a product of reduced words."""
    n = _same_dimension(u, v)
    if not kernels.is_reduced(u.key) or not kernels.is_reduced(v.key):
        raise NotReducedError("decompose_fine requires reduced inputs")
    u1, u_prime = _split_absorbed(u.key, _left_stabilizer(v.key))
    v1_rev, v_prime_rev = _split_absorbed(v.key[::-1], _left_stabilizer(u1[::-1]))
    return FineDecomposition(
        _from_key(u1, n),
        _from_key(u_prime, n),
        _from_key(v_prime_rev[::-1], n),
        _from_key(v1_rev[::-1], n),
    )


def decompose_symmetric(u: Word, v: Word) -> FineDecomposition:
    """Symmetric decomposition: the non-proper part of the absorbed word is a
    commuting word ``w`` shared by both sides."""
    fine = decompose_fine(u, v)
    u_bar, v1_bar = fine.u_prime, fine.v1
    w_keys: list[tuple[int, int]] = []
    u_keys: list[tuple[int, int]] = []
    witness_positions: set[int] = set()
    for s in u_bar.key:
        j = kernels.absorber((s,) + v1_bar.key, 0)  # position j - 1 of v1_bar
        if j is not None and v1_bar.key[j - 1] == s:
            w_keys.append(s)
            witness_positions.add(j - 1)
        else:
            u_keys.append(s)
    v1 = _from_key(
        tuple(t for j, t in enumerate(v1_bar.key) if j not in witness_positions), v.n
    )
    return FineDecomposition(
        fine.u1,
        _from_key(tuple(u_keys), u.n),
        fine.v_prime,
        v1,
        w=_from_key(tuple(w_keys), u.n),
    )


# ---------------------------------------------------------------------------
# the subletter-replacement order


def prec(u: Word, v: Word) -> bool:
    """One parallel replacement step: some permutation of ``u`` is obtained
    from ``v`` by replacing at least one letter by a (possibly empty) product
    of its proper subletters.  Raises ``SearchBoundExceededError`` when the
    search would store more than ``_PREC_STATES`` states."""
    _same_dimension(u, v)
    return _prec(u.key, v.key)


def _prec(src: tuple, dst: tuple) -> bool:
    """``prec`` on keys, without the dimension check.

    The positions of ``src`` are placed block by block, one block per letter
    of ``dst``; a position is free once every earlier position whose letter
    does not commute with it is placed.  Letter ``i`` is either kept, by its
    lowest unplaced copy (equal letters do not commute, so no later copy can
    be free), or replaced by every proper-subletter position that one
    ascending pass finds free.  Taking the whole pass is exact: in any
    solution, a subletter position free at block ``i`` but placed in a later
    block can move into block ``i``, since its blockers are placed by then
    and the letters after it that do not commute with it come later still;
    a kept block it leaves empty becomes the empty product, still a
    replacement.  So the search has at most two branches per letter.  Its
    state is the letter index, the unplaced positions and whether a letter
    was replaced; a state is stored when first seen, and a state seen again
    has failed, since one that reaches the end answers at once.

    That allows ``2(|dst| + 1) * 2^|src|`` states, at most 8,192 for a
    pair of 12 letters or fewer in all, and the branches do compound.  Take
    ``F_k`` at ``N = 3k + 4``: ``dst = [0,1].[3,4]...[3k-3,3k-2].[0,3k].
    [3k+1,3k+3]`` and ``src = [0,1].[0].[3,4].[3]...[3k-3,3k-2].[3k-3].
    [3k+1,3k+2].[3k]``.  Each of the first ``k`` letters of ``dst`` is kept
    or replaced by the empty product (its subletter ``[3j]`` is blocked by
    ``[3j,3j+1]``), which gives ``2^k`` distinct masks, and ``[3k]`` is
    blocked by ``[3k+1,3k+2]`` under every one of them, so the search stores
    ``2^(k+1) + 1`` states before it answers ``False``.  With no polynomial
    bound, the search stops with ``SearchBoundExceededError`` once it has
    stored ``_PREC_STATES`` states: 2^16 answers every pair of 12 letters or
    fewer, ``F_14`` (32,769 states) and pairs of 160 letters built to hold
    (``|dst| + 1`` states each), and refuses ``F_16``."""
    m, last = len(src), len(dst)
    # same[i], sub[i]: the positions of src holding letter i of dst, and
    # holding a proper subletter of it
    same = []
    sub = []
    covered = 0
    for tlo, thi in dst:
        eq = inner = 0
        bit = 1
        for lo, hi in src:
            if tlo <= lo and hi <= thi:
                if lo == tlo and hi == thi:
                    eq |= bit
                else:
                    inner |= bit
            bit <<= 1
        same.append(eq)
        sub.append(inner)
        covered |= eq | inner
    full = (1 << m) - 1
    if covered != full:  # a letter of src lies inside no letter of dst
        return False
    # blocked[p]: the earlier positions of src whose letters do not commute
    # with letter p, i.e. whose levels meet its widened levels
    levels = []
    blocked = []
    for s in src:
        own, wide = _MASKS[s]
        mask = 0
        bit = 1
        for earlier in levels:
            if earlier & wide:
                mask |= bit
            bit <<= 1
        blocked.append(mask)
        levels.append(own)
    # depth first; keep is pushed last, so it is tried first
    seen: set[tuple[int, int, bool]] = set()
    stack = [(0, full, False)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        if len(seen) >= _PREC_STATES:
            raise SearchBoundExceededError(f"prec search stores over {_PREC_STATES} states")
        seen.add(state)
        # the letters of dst before i are matched, and mask holds the
        # positions of src still to place
        i, mask, replaced = state
        if i == last:
            if not mask and replaced:
                return True
            continue
        rest = mask
        free = mask & sub[i]
        while free:
            bit = free & -free
            free ^= bit
            if not blocked[bit.bit_length() - 1] & rest:
                rest ^= bit
        stack.append((i + 1, rest, True))
        copies = mask & same[i]
        if copies:
            bit = copies & -copies
            if not blocked[bit.bit_length() - 1] & mask:
                stack.append((i + 1, mask ^ bit, replaced))
    return False


def preceq(u: Word, v: Word) -> bool:
    return equivalent(u, v) or prec(u, v)


# ---------------------------------------------------------------------------
# ranks

# ``prec`` replaces a letter by smaller ones, so it strictly lowers the rank:
# among words with a ``preceq``-least one, those of least rank are exactly the
# words equivalent to it.  Flag basepoints are found this way.


def _rank(key: tuple, n: int) -> list[int]:
    """Letter counts by size, largest first: ordered as ``ord_rank`` is."""
    counts = [0] * (n + 1)
    for lo, hi in key:
        counts[n - hi + lo] += 1
    return counts


def ord_rank(u: Word) -> CnfOrdinal:
    """``sum over i of w^i * (number of letters of size i+1)``."""
    return cnf_from_counts(_rank(u.key, u.n))


def rd_closed_form(u: Word) -> CnfOrdinal:
    """``w^(|s_1|-1) + ... + w^(|s_n|-1)`` for reduced words with
    non-increasing letter sizes; equals the foundation ranks of both the
    left-division and the replacement orders there."""
    if not is_reduced(u):
        raise NotReducedError(f"{u} is not reduced")
    sizes = [hi - lo + 1 for lo, hi in u.key]
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise NotMonotoneError(f"letter sizes increase in {u}")
    out = CnfOrdinal.zero()
    for size in sizes:
        out = out + CnfOrdinal.omega_power(size - 1)
    return out


# ---------------------------------------------------------------------------
# strong reduction (bounded enumeration)


@lru_cache(maxsize=None)
def _split_products(letter_key: tuple[int, int], max_len: int) -> tuple[tuple, ...]:
    """Normal forms of all reduced products of at most ``max_len`` proper
    subletters of the letter."""
    subs = [s.key for s in proper_subletters(_LETTERS[letter_key])]
    seen: set[tuple] = set()
    for length in range(max_len + 1):
        for combo in itertools.product(subs, repeat=length):
            if kernels.is_reduced(combo):
                seen.add(kernels.normal_form(combo))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class StrongReductionResult:
    """Reduced words reachable within the exploration budget.  ``exhausted``
    distinguishes a truncated search from a completed one."""

    words: frozenset[Word]
    exhausted: bool
    steps: int

    def as_strings(self) -> list[str]:
        return sorted(str(w) for w in self.words)


def _split_candidates(letter_key: tuple[int, int], max_len: int) -> int:
    """How many products ``_split_products`` tries for the letter: the sum
    over lengths k up to ``max_len`` of S^k, for its S proper subletters."""
    size = letter_key[1] - letter_key[0] + 1
    subs = size * (size + 1) // 2 - 1
    return sum(subs**k for k in range(max_len + 1))


def _strong_successors(
    key: tuple, absorbed: int, max_split_len: int, max_steps: int
) -> Iterator[tuple | None]:
    """Successor normal forms of ``key``, whose absorbed positions are the
    mask ``absorbed``; ``None`` stands for a splitting left out because its
    letter has more candidate products than the step budget."""
    n = len(key)
    positions = [i for i in range(n) if absorbed >> i & 1]
    # generalized cancellations
    for i in positions:
        yield kernels.normal_form(key[:i] + key[i + 1 :])
    # generalized splittings: equal pair with commuting letters between, so
    # both letters are absorbed.  The scan from i stops at its twin or at the
    # first letter whose levels meet its widened levels; a later twin lies
    # behind either.
    for i in positions:
        wide = _MASKS[key[i]][1]
        for j in range(i + 1, n):
            if key[j] == key[i]:
                if _split_candidates(key[i], max_split_len) > max_steps:
                    yield None
                else:
                    for product in _split_products(key[i], max_split_len):
                        yield kernels.normal_form(
                            key[:i] + product + key[i + 1 : j] + key[j + 1 :]
                        )
                break
            if _MASKS[key[j]][0] & wide:
                break


def strong_reducts_bounded(
    u: Word,
    max_split_len: int = SPLIT_LEN_DEFAULT,
    max_steps: int = SPLIT_STEPS_DEFAULT,
) -> StrongReductionResult:
    """All reduced words reachable by commutation, cancellation and bounded
    splitting.  Sound always; complete only when not ``exhausted``.  A letter
    with more candidate products than ``max_steps`` is not split, and the
    result is then ``exhausted``."""
    start = kernels.normal_form(u.key)
    seen = {start}
    stack = [start]
    reducts: set[tuple] = set()
    steps = 0
    exhausted = False
    while stack:
        key = stack.pop()
        absorbed = kernels.absorbed(key)
        if not absorbed:
            reducts.add(key)
            continue
        for succ in _strong_successors(key, absorbed, max_split_len, max_steps):
            if succ is None:
                exhausted = True
                continue
            steps += 1
            if steps > max_steps:
                exhausted = True
                stack.clear()
                break
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return StrongReductionResult(
        frozenset(_from_key(k, u.n) for k in reducts), exhausted, steps
    )


# ---------------------------------------------------------------------------
# left division


@dataclass(frozen=True)
class DivisionResult:
    """Outcome of left division.  ``witness`` is the least reduced word with
    ``u . witness -> v``, or ``None`` when there is none.  ``conclusive`` is
    always ``True``: the pass is exact.  ``explored`` counts the letters of
    ``v`` the pass scanned."""

    witness: Word | None
    conclusive: bool
    explored: int


def divides_left_bounded(u: Word, v: Word) -> DivisionResult:
    """The least reduced ``w`` with ``concat_reduce(u, w) ~ v``, if any, in
    one pass over the keys.

    The pass walks ``u`` left to right and splits off the greatest common
    left factor ``u1`` of ``u`` and ``v``; ``kept`` is the widened mask of
    the letters of ``u`` left over so far.  A letter whose levels miss
    ``kept`` commutes to the front of what is left of ``u``; it joins ``u1``
    when it can come first in what is left of ``v``, that is when it occurs
    there and its levels miss the widened levels of the letters before it
    (equal letters do not commute, so only the first copy can).  Otherwise
    it is left over, as is every letter whose levels meet ``kept``.  With
    ``u ~ u1.u'`` and ``v ~ u1.w1``, ``u`` divides ``v`` iff the support of
    ``u'`` lies inside ``sL(w1)``, and the least witness is ``w1``:

    - sufficiency is the absorption law: ``w1`` absorbs ``u'``, so
      ``u.w1 ~ u1.u'.w1 -> u1.w1 ~ v``;
    - necessity is the fine decomposition of ``u.w`` for a witness ``w``:
      ``u ~ a.a'``, ``w ~ b'.b`` and ``v ~ a.b`` with ``b`` absorbing ``a'``;
    - splitting at the greatest common left factor loses nothing.  Suppose
      it extends ``a`` by a letter ``x`` of ``a'``, so ``b ~ x.b''``.  Every
      letter of ``a'`` after ``x`` lies inside ``sL(x.b'')``, which is
      contained in ``levels(x) | (sL(b'') - widened(x))``.  The first such
      letter that does not commute with ``x`` is no subletter of ``x``,
      since reduced ``u`` would cancel it, and it does not lie in the other
      part, since it meets ``widened(x)``.  So all of them commute with ``x``
      and lie inside ``sL(b'')``, and ``b''`` absorbs what is left of ``a'``.

    No witness has fewer letters than ``w1``: the common left factor ``a``
    has at most ``|u1|`` letters, so ``|w| >= |b| >= |w1|``."""
    n = _same_dimension(u, v)
    if not kernels.is_reduced(u.key) or not kernels.is_reduced(v.key):
        raise NotReducedError("divides_left_bounded requires reduced inputs")
    rest = list(kernels.normal_form(v.key))
    left = kept = explored = 0
    for x in u.key:
        own, wide = _MASKS[x]
        if not own & kept:
            # the first letter of rest that does not commute with x
            j = next((j for j, t in enumerate(rest) if _MASKS[t][0] & wide), len(rest))
            explored += min(j + 1, len(rest))
            if j < len(rest) and rest[j] == x:
                del rest[j]
                continue
        left |= own
        kept |= wide
    if left & ~_left_stabilizer(rest):
        return DivisionResult(None, True, explored)
    return DivisionResult(_from_key(kernels.normal_form(rest), n), True, explored)
