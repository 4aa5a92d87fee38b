"""Ordinals below epsilon_0 in Cantor normal form.

Only what the rank functions need: a sum of terms ``w^e * c`` with strictly
decreasing natural exponents and positive coefficients, compared
lexicographically, plus left (ordinal) addition where lower terms of the left
summand are absorbed.  No multiplication, no natural sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .errors import ParseError


@total_ordering
@dataclass(frozen=True)
class CnfOrdinal:
    """Terms ``(exponent, coefficient)``, exponents strictly decreasing."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise ParseError(f"bad CNF term (w^{e})*{c}")
            if prev is not None and e >= prev:
                raise ParseError("CNF exponents must strictly decrease")
            prev = e

    @classmethod
    def zero(cls) -> "CnfOrdinal":
        return cls(())

    @classmethod
    def omega_power(cls, exponent: int, coefficient: int = 1) -> "CnfOrdinal":
        if coefficient == 0:
            return cls(())
        return cls(((exponent, coefficient),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __lt__(self, other: "CnfOrdinal") -> bool:
        return cnf_cmp(self, other) < 0

    def __add__(self, other: "CnfOrdinal") -> "CnfOrdinal":
        return cnf_add(self, other)

    def __str__(self) -> str:
        return format_cnf(self)

    def __repr__(self) -> str:
        return f"CnfOrdinal({format_cnf(self)!r})"


def cnf_cmp(a: CnfOrdinal, b: CnfOrdinal) -> int:
    """-1, 0 or 1; lexicographic on the (exponent, coefficient) term lists."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea != eb:
            return -1 if ea < eb else 1
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def cnf_add(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Left addition: terms of ``a`` below the lead of ``b`` are absorbed."""
    if b.is_zero:
        return a
    lead = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > lead]
    rest = list(b.terms)
    if any(t[0] == lead for t in a.terms):
        same = next(c for e, c in a.terms if e == lead)
        rest[0] = (lead, same + rest[0][1])
    return CnfOrdinal(tuple(kept) + tuple(rest))


def cnf_from_counts(counts: dict[int, int]) -> CnfOrdinal:
    """Build ``sum w^e * counts[e]`` directly from an exponent -> count map."""
    terms = tuple((e, c) for e, c in sorted(counts.items(), reverse=True) if c)
    return CnfOrdinal(terms)


def format_cnf(a: CnfOrdinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        else:
            base = "w" if e == 1 else f"w^{e}"
            parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def parse_cnf(text: str) -> CnfOrdinal:
    """Parse both canonical ("w^2+w+3") and verbose ("w^2+w^1*1+w^0*3") forms."""
    text = text.strip()
    if text == "0":
        return CnfOrdinal.zero()
    counts: dict[int, int] = {}
    order: list[int] = []
    for part in text.split("+"):
        e, c = _parse_term(part)
        if e in counts:
            raise ParseError(f"repeated exponent {e} in {text!r}")
        counts[e] = c
        order.append(e)
    if order != sorted(order, reverse=True):
        raise ParseError(f"exponents must strictly decrease in {text!r}")
    return CnfOrdinal(tuple((e, counts[e]) for e in order))


def _parse_term(part: str) -> tuple[int, int]:
    part = part.strip()
    if not part:
        raise ParseError("empty CNF term")
    if "*" in part:
        base, _, coeff = part.partition("*")
        c = _nat(coeff, part)
    else:
        base, c = part, 1
    if base.isascii() and base.isdigit():
        if c != 1 or "*" in part:
            raise ParseError(f"bad finite term {part!r}")
        return (0, _nat(base, part))
    if base == "w":
        return (1, c)
    if base.startswith("w^"):
        return (_nat(base[2:], part), c)
    raise ParseError(f"bad CNF term {part!r}")


def _nat(text: str, context: str) -> int:
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"bad natural {text!r} in {context!r}")
    return int(text)
