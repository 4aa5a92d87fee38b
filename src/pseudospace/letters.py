"""Letters: nonempty intervals of levels in ``[0, N]``.

A letter occupies the closed set of levels ``{lo, ..., hi}``.  (The same
interval is often written as an open pair ``(lo-1, hi+1)`` whose endpoints
may be the imaginary levels ``-1`` and ``N+1``; this module stores the closed
form only, so those sentinels never appear here.)

Two letters commute when they are separated by a gap of at least two levels,
so no letter commutes with itself or with any of its subletters.  Index sets
(subsets of ``[0, N]``) are plain frozensets.  Dimensions are capped at 62;
the cap is a bound on input, and no code here depends on its exact value.
The space index keeps vertex sets as bitmasks indexed by vertex id, not by
level, so it does not depend on N either and the cap stays only a bound.

A ``Letter`` is frozen, so one instance per interval serves every word:
the letters the package builds itself (alphabets, subletters, the runs of an
index set, the letters of computed words) come from one table, ``_LETTERS``,
which creates and checks each letter once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionError, ParseError

MAX_DIMENSION = 62

IndexSet = frozenset  # subsets of [0, N]


def check_dimension(n: int) -> int:
    if type(n) is not int or not 1 <= n <= MAX_DIMENSION:  # JSON true is no dimension
        raise DimensionError(f"dimension must be in [1, {MAX_DIMENSION}], got {n!r}")
    return n


@dataclass(frozen=True, order=True)
class Letter:
    """Interval of levels ``[lo, hi]`` with ``0 <= lo <= hi``."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise ParseError(f"letter endpoints must be integers: {self.lo!r}, {self.hi!r}")
        if self.lo < 0 or self.lo > self.hi:
            raise ParseError(f"invalid letter [{self.lo},{self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def levels(self) -> IndexSet:
        return frozenset(range(self.lo, self.hi + 1))

    def valid_for(self, n: int) -> bool:
        return self.hi <= n

    def __str__(self) -> str:
        if self.lo == self.hi:
            return f"[{self.lo}]"
        return f"[{self.lo},{self.hi}]"

    @property
    def key(self) -> tuple[int, int]:
        return (self.lo, self.hi)


class _Interned(dict):
    """One ``Letter`` per ``(lo, hi)`` key, created, and so checked, on first
    use.  Code that builds letters shares them from here instead of building
    and checking a new one each time; a key that ``Letter`` rejects is never
    stored."""

    def __missing__(self, key: tuple[int, int]) -> Letter:
        s = self[key] = Letter(*key)
        return s


_LETTERS = _Interned()


def commutes(s: Letter, t: Letter) -> bool:
    """True iff the letters are at distance >= 2, i.e. their products commute."""
    return t.lo >= s.hi + 2 or s.lo >= t.hi + 2


def contains(s: Letter, t: Letter, proper: bool = False) -> bool:
    """True iff ``t`` is a subletter of ``s`` (strict containment if ``proper``)."""
    if proper and s == t:
        return False
    return s.lo <= t.lo and t.hi <= s.hi


def proper_subletters(s: Letter) -> list[Letter]:
    return [
        _LETTERS[lo, hi]
        for lo in range(s.lo, s.hi + 1)
        for hi in range(lo, s.hi + 1)
        if (lo, hi) != (s.lo, s.hi)
    ]


def all_letters(n: int) -> list[Letter]:
    check_dimension(n)
    return [_LETTERS[lo, hi] for lo in range(n + 1) for hi in range(lo, n + 1)]


def parse_letter(text: str) -> Letter:
    """Parse ``[a]`` or ``[a,b]``.  Strict: decimal digits, no whitespace."""
    if not isinstance(text, str):
        raise ParseError(f"letter must be a string: {text!r}")
    return _parse_letter_text(text)


@lru_cache(maxsize=4096)
def _parse_letter_text(text: str) -> Letter:
    """Scripts and exports repeat the few letters of one alphabet many
    times; a ``Letter`` is frozen, so one instance per string serves all."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"letter must be bracketed: {text!r}")
    body = text[1:-1]
    parts = body.split(",")
    if len(parts) == 1:
        lo = hi = _parse_nat(parts[0], text)
    elif len(parts) == 2:
        lo = _parse_nat(parts[0], text)
        hi = _parse_nat(parts[1], text)
    else:
        raise ParseError(f"too many components in letter {text!r}")
    if lo > hi:
        raise ParseError(f"descending letter {text!r}")
    return Letter(lo, hi)


def _parse_nat(part: str, context: str) -> int:
    if not (part.isascii() and part.isdigit()):  # isdigit alone takes '²' and '٣'
        raise ParseError(f"bad integer {part!r} in {context!r}")
    return int(part)


def format_index_set(s: IndexSet) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def parse_index_set(text: str) -> IndexSet:
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"index set must be braced: {text!r}")
    body = text[1:-1]
    if not body:
        return frozenset()
    return frozenset(_parse_nat(p, text) for p in body.split(","))


def index_set_to_letters(s: IndexSet) -> list[Letter]:
    """Decompose an index set into its maximal intervals, bottom up.

    The resulting letters pairwise commute (maximal runs are separated by at
    least one missing level, which is exactly a gap of size >= 2).
    """
    out: list[Letter] = []
    run_lo: int | None = None
    prev: int | None = None
    for i in sorted(s):
        if run_lo is None:
            run_lo = prev = i
        elif i == prev + 1:
            prev = i
        else:
            out.append(_LETTERS[run_lo, prev])
            run_lo = prev = i
    if run_lo is not None:
        out.append(_LETTERS[run_lo, prev])
    return out
