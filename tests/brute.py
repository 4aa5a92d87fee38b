"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own strategies: reducts come from the
full closure under single generalized cancellations, equivalence from the
full swap closure, and the replacement order from exhaustive segmentation of
every permutation.  Only usable at tiny sizes.
"""

import itertools

from pseudospace.letters import all_letters, commutes, contains
from pseudospace.words import Word


def swap_closure(word: Word) -> set[tuple]:
    """Every word reachable by adjacent commuting swaps (the full class)."""
    seen = {word.letters}
    frontier = [word.letters]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur) - 1):
            if commutes(cur[i], cur[i + 1]):
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def single_cancellations(letters: tuple) -> set[tuple]:
    """Results of deleting one absorbed letter, for every witness."""
    out = set()
    n = len(letters)
    for i in range(n):
        s = letters[i]
        for j in range(i + 1, n):
            if contains(letters[j], s) and all(
                commutes(s, letters[k]) for k in range(i + 1, j)
            ):
                out.add(letters[:i] + letters[i + 1 :])
        for j in range(i - 1, -1, -1):
            if contains(letters[j], s) and all(
                commutes(s, letters[k]) for k in range(j + 1, i)
            ):
                out.add(letters[:i] + letters[i + 1 :])
    return out


def exhaustive_reducts(word: Word) -> set[tuple]:
    """Normal forms (as key tuples) of all cancellation-irreducible words
    reachable from the input by any order of generalized cancellations."""
    from pseudospace import kernels

    results = set()
    frontier = [word.letters]
    seen = {word.letters}
    while frontier:
        cur = frontier.pop()
        nexts = single_cancellations(cur)
        if not nexts:
            results.add(kernels.normal_form(tuple(s.key for s in cur)))
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return results


def restart_reduce(key: tuple) -> tuple:
    """Reference for ``kernels.reduce_word`` on raw words: delete the leftmost
    absorbed letter and rescan from the start until none is left, then take
    the normal form.  Cubic in the word length."""
    from pseudospace import kernels

    letters = list(key)
    i = 0
    while i < len(letters):
        if kernels.absorbed_at(tuple(letters), i):
            del letters[i]
            i = 0
        else:
            i += 1
    return kernels.normal_form(tuple(letters))


def brute_prec(u: Word, v: Word) -> bool:
    """Exhaustive check of the replacement order via every permutation of u
    and every segmentation into per-letter blocks."""
    targets = v.letters
    for perm in swap_closure(u):
        if _segmentable(perm, targets, 0, 0, False):
            return True
    return False


def _segmentable(perm, targets, pos, i, replaced) -> bool:
    if i == len(targets):
        return pos == len(perm) and replaced
    t = targets[i]
    # keep the letter
    if pos < len(perm) and perm[pos] == t:
        if _segmentable(perm, targets, pos + 1, i + 1, replaced):
            return True
    # replace it by a block of proper subletters
    for end in range(pos, len(perm) + 1):
        if all(contains(t, s, proper=True) for s in perm[pos:end]):
            if _segmentable(perm, targets, end, i + 1, True):
                return True
        else:
            break
    return False


def brute_divisors(u: Word, v: Word, max_len: int) -> list[Word]:
    """All words w of bounded length with reduce(u.w) equivalent to v."""
    from pseudospace import kernels

    target = kernels.normal_form(kernels.reduce_word(v.key))
    out = []
    alphabet = all_letters(u.n)
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            w = Word(combo, u.n)
            if kernels.reduce_word(u.concat(w).key) == target:
                out.append(w)
    return out
