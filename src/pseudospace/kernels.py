"""Word kernels: reducedness, generalized cancellation and normal form.

These are the hot inner loops of the whole toolkit.  They operate on raw
words, i.e. tuples of ``(lo, hi)`` integer pairs, and are pure and total.

Conventions (letters are closed level intervals):
  * ``a`` and ``b`` commute iff ``b[0] >= a[1] + 2 or a[0] >= b[1] + 2``.
  * ``a`` contains ``b`` iff ``a[0] <= b[0] and b[1] <= a[1]`` (non-strict:
    a repeated letter absorbs its twin, letters are idempotent).
  * A word is reduced iff no letter is absorbed: there is no pair of
    positions ``i != j`` with ``w[i]`` contained in ``w[j]`` and ``w[i]``
    commuting with every letter strictly between them.  One scan answers
    this for every position (``absorbed``): level sets are int bitmasks, and
    a letter commutes with a run of letters iff its levels miss their
    levels widened by one on each side.
  * The normal form of a word is the unique commutation-equivalent word in
    which every adjacent commuting pair increases.

Reduction keeps a reduced normal form as it goes: ``reduce_onto`` inserts
each letter it keeps as ``normal_form`` does, and the letters it deletes
leave no adjacent pair out of order, so neither ``reduce_word`` nor a caller
that reduces one letter onto a normal form needs a second pass.

Level masks come from one table, ``_MASKS``: it maps a letter key
``(lo, hi)`` to ``(levels, widened)``, the bitmask of its levels and that
mask widened by one level on each side, so a letter commutes with ``(lo, hi)``
iff its levels miss ``widened``.  Like ``letters._LETTERS`` it fills each
entry on first use, so the kernels stay total and a run keeps only the
letters it meets (at most 2,016 below the dimension cap).  The scans here,
``words._prec`` and the mask helpers of ``words.py`` read it instead of
shifting.
"""

from __future__ import annotations

import sys

RawWord = tuple  # tuple of (lo, hi) pairs

# psnbench reads these two names: run.py prints BACKEND in its run header,
# and tracer.py wraps the kernels on the module object ``_impl``, so that
# calls from one kernel to another are counted too.
BACKEND = "pure"
_impl = sys.modules[__name__]


class _LetterMasks(dict):
    """``(levels, widened)`` per letter key, computed on first use."""

    def __missing__(self, key: tuple[int, int]) -> tuple[int, int]:
        lo, hi = key
        own = ((1 << (hi - lo + 1)) - 1) << lo
        masks = self[key] = (own, own | own << 1 | own >> 1)
        return masks


_MASKS = _LetterMasks()


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


def absorbed(word: RawWord) -> int:
    """The bitmask of absorbed positions of ``word``.

    Each letter ``x`` scans back over the letters before it.  ``mask`` holds
    the levels of the letters passed, each widened by one level, so a letter
    reaches ``x`` iff its levels miss the mask.  ``x`` is absorbed by a letter
    it reaches that contains it, and absorbs every letter inside it that
    reaches it.  Once the mask covers ``x``, no pair with ``x`` is left."""
    masks = _MASKS
    out = 0
    for i, x in enumerate(word):
        lo, hi = x
        levels = masks[x][0]
        mask = 0
        j = i - 1
        while j >= 0 and levels & ~mask:
            y = word[j]
            ylo, yhi = y
            own, wide = masks[y]
            if ylo <= lo and hi <= yhi and not levels & mask:
                out |= 1 << i
            if lo <= ylo and yhi <= hi and not own & mask:
                out |= 1 << j
            mask |= wide
            j -= 1
    return out


def is_reduced(word: RawWord) -> bool:
    return not absorbed(word)


def reduce_onto(out: list, word: RawWord) -> list:
    """Append the letters of ``word`` to ``out``, a reduced normal form held
    as a list, keeping it a reduced normal form; returns ``out``.

    Each new letter ``x`` scans back over ``out`` with the widened mask of
    the kept letters passed, as in ``absorbed``.  ``x`` is dropped if a
    letter it reaches contains it.  Otherwise every letter inside ``x`` that
    reaches it is deleted, and ``x`` is inserted leftwards past the letters
    that lie entirely above it, as ``normal_form`` does.  One scan never does
    both: a letter inside ``x`` commutes neither with ``x`` nor with a letter
    containing ``x``, so it cannot reach ``x`` while ``x`` reaches a
    container; and a drop found past deleted letters would mean that the one
    nearest the container reached it in ``out``, which is reduced.
    A deleted letter commutes with everything after it, so no deletion
    unblocks another pair and ``out`` stays reduced.  Nor does a deletion
    leave an adjacent pair out of order: the deleted letter lies below the
    letter after it, as they commute in a normal form, and the letter before
    it either lies below it too or touches its levels, so it cannot lie
    above the letter after it.  A reduced word appended to an empty list
    therefore comes back in normal form."""
    masks = _MASKS
    for x in word:
        lo, hi = x
        levels = masks[x][0]
        mask = 0
        j = len(out) - 1
        while j >= 0 and levels & ~mask:
            y = out[j]
            ylo, yhi = y
            if ylo <= lo and hi <= yhi and not levels & mask:
                break
            own, wide = masks[y]
            if lo <= ylo and yhi <= hi and not own & mask:
                del out[j]
            else:
                mask |= wide
            j -= 1
        else:
            j = len(out)
            while j and out[j - 1][0] >= hi + 2:
                j -= 1
            out.insert(j, x)
    return out


def reduce_word(word: RawWord) -> RawWord:
    """The reduct of ``word`` in normal form: its letters reduced one at a
    time onto an empty prefix, which keeps a reduced normal form."""
    return tuple(reduce_onto([], word))


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
