"""Word kernels: reducedness, generalized cancellation and normal form.

These are the hot inner loops of the whole toolkit.  They operate on raw
words, i.e. tuples of ``(lo, hi)`` integer pairs, and are pure and total.

Conventions (letters are closed level intervals):
  * ``a`` and ``b`` commute iff ``b[0] >= a[1] + 2 or a[0] >= b[1] + 2``.
  * ``a`` contains ``b`` iff ``a[0] <= b[0] and b[1] <= a[1]`` (non-strict:
    a repeated letter absorbs its twin, letters are idempotent).
  * A word is reduced iff no letter is absorbed: there is no pair of
    positions ``i != j`` with ``w[i]`` contained in ``w[j]`` and ``w[i]``
    commuting with every letter strictly between them.
  * The normal form of a word is the unique commutation-equivalent word in
    which every adjacent commuting pair increases.
"""

from __future__ import annotations

import sys

RawWord = tuple  # tuple of (lo, hi) pairs

# psnbench reads these two names: run.py prints BACKEND in its run header,
# and tracer.py wraps the kernels on the module object ``_impl``, so that
# calls from one kernel to another are counted too.
BACKEND = "pure"
_impl = sys.modules[__name__]


def _commutes(a, b) -> bool:
    return b[0] >= a[1] + 2 or a[0] >= b[1] + 2


def _contains(a, b) -> bool:
    return a[0] <= b[0] and b[1] <= a[1]


def absorber(word: RawWord, i: int) -> int | None:
    """The position of the nearest letter that absorbs the letter at ``i``,
    looking right first, or None when that letter is not absorbed."""
    s = word[i]
    for j in range(i + 1, len(word)):
        if _contains(word[j], s):
            return j
        if not _commutes(s, word[j]):
            break
    for j in range(i - 1, -1, -1):
        if _contains(word[j], s):
            return j
        if not _commutes(s, word[j]):
            break
    return None


def absorbed_at(word: RawWord, i: int) -> bool:
    """True iff the letter at ``i`` can be deleted by generalized cancellation."""
    return absorber(word, i) is not None


def is_reduced(word: RawWord) -> bool:
    return not any(absorbed_at(word, i) for i in range(len(word)))


def reduce_word(word: RawWord) -> RawWord:
    """The reduct of ``word`` in normal form.

    Letters are appended one at a time to a prefix that is kept reduced.  A
    new letter ``x`` is dropped if a letter it reaches on the left contains
    it.  Otherwise every earlier letter inside ``x`` that reaches ``x`` is
    deleted.  A deleted letter commutes with everything after it, so no
    deletion unblocks another pair and the prefix stays reduced.
    """
    out: list = []
    for x in word:
        absorbed = False
        for y in reversed(out):
            if _contains(y, x):
                absorbed = True
                break
            if not _commutes(x, y):
                break
        if absorbed:
            continue
        # Level sets are int bitmasks.  ``mask`` holds the levels of the kept
        # letters passed so far, each widened by one level, so a letter
        # commutes with all of them iff its levels miss the mask.  Once the
        # mask covers x, no letter inside x can reach it.
        lo, hi = x
        levels = ((1 << (hi - lo + 1)) - 1) << lo
        mask = 0
        j = len(out) - 1
        while j >= 0 and levels & ~mask:
            ylo, yhi = out[j]
            own = ((1 << (yhi - ylo + 1)) - 1) << ylo
            if lo <= ylo and yhi <= hi and not own & mask:
                del out[j]
            else:
                mask |= own | own << 1 | own >> 1
            j -= 1
        out.append(x)
    return normal_form(tuple(out))


def normal_form(word: RawWord) -> RawWord:
    """Insert each letter as far left as it commutes downwards: it moves past
    the letters that lie entirely above it, so the result has no adjacent
    commuting pair out of order."""
    out: list = []
    for x in word:
        i = len(out)
        while i and out[i - 1][0] >= x[1] + 2:
            i -= 1
        out.insert(i, x)
    return tuple(out)
