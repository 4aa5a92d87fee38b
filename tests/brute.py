"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own strategies: reducts come from the
full closure under single generalized cancellations, equivalence from the
full swap closure, and the replacement order from exhaustive segmentation of
every permutation.  The space searches are checked against a transitive
closure of the ascending edges and plain flood fills.  Only usable at tiny
sizes.
"""

import itertools

from pseudospace.letters import all_letters, commutes, contains
from pseudospace.space import BOTTOM, TOP
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


def bubble_normal_form(key: tuple) -> tuple:
    """Reference for ``kernels.normal_form``: swap adjacent commuting pairs
    that are out of order, in repeated whole passes, until none is left."""
    letters = list(key)
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a[0] >= b[1] + 2:
                letters[i], letters[i + 1] = b, a
                swapped = True
    return tuple(letters)


def monotone_order(space, nodes) -> set[tuple]:
    """Pairs ``(x, y)`` of ``nodes`` joined by an ascending path inside
    ``nodes``: the transitive closure of the ascending edges (Warshall)."""
    nodes = list(nodes)
    rel = {
        (x, y)
        for x in nodes
        for y in nodes
        if y in space.neighbors(x) and space.level(y) == space.level(x) + 1
    }
    for k in nodes:
        for x in nodes:
            if (x, k) in rel:
                for y in nodes:
                    if (k, y) in rel:
                        rel.add((x, y))
    return rel


def dfs_closure(space, v, step) -> set[int]:
    """Vertices reached from vertex ``v`` along edges that change the level
    by ``step``: a plain DFS over the adjacency sets, with no memo."""
    seen = set()
    stack = [v]
    while stack:
        x = stack.pop()
        for w in space.neighbors(x):
            if space.level(w) == space.level(x) + step and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def brute_between(space, a, b, region) -> set[int]:
    """Vertices of ``region`` above ``a`` and beneath ``b`` along ascending
    paths through the region."""
    nodes = set(region) | {x for x in (a, b) if space.is_real(x)}
    order = monotone_order(space, nodes)
    return {
        v
        for v in region
        if a != TOP and b != BOTTOM
        and (a == BOTTOM or (a, v) in order)
        and (b == TOP or (v, b) in order)
    }


def brute_is_complete(space, region) -> bool:
    """Every vertex of the region sits on an ascending level-0..N path inside
    it."""
    order = monotone_order(space, region)

    def on_level(v, goal, below: bool) -> bool:
        return any(
            space.level(w) == goal and (w == v or ((w, v) if below else (v, w)) in order)
            for w in region
        )

    return all(on_level(v, 0, True) and on_level(v, space.n, False) for v in region)


def flood(space, x, allowed) -> set[int]:
    """The component of ``x`` in the subgraph induced on ``allowed``."""
    if x not in allowed:
        return set()
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w in space.neighbors(v):
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def brute_open_pairs(space, region) -> list[tuple]:
    """Reference for ``space.open_pairs``: label the components of the
    region's points inside each ambient between-set and report the anchor
    pairs that see more than one."""
    order = monotone_order(space, space.vertices)
    anchors = [BOTTOM] + sorted(region) + [TOP]
    out = []
    for a in anchors:
        for b in anchors:
            if a == b or a == TOP or b == BOTTOM:
                continue
            if a != BOTTOM and b != TOP and (a, b) not in order:
                continue
            ambient = {
                v
                for v in space.vertices
                if (a == BOTTOM or (a, v) in order) and (b == TOP or (v, b) in order)
            }
            pts = sorted(ambient & set(region))
            if len(pts) < 2:
                continue
            components: dict[int, int] = {}
            for label, v in enumerate(pts):
                if v not in components:
                    for w in flood(space, v, ambient):
                        components[w] = label
            if len({components[v] for v in pts}) > 1:
                out.append((a, b))
    return out


def brute_is_global_step(space, f, g, s) -> bool:
    """Reference for ``flags.is_global_step``: one flood fill per vertex of
    ``g``'s s-part inside the between-set at the levels of ``s``."""
    lo = f[s.lo - 1] if s.lo > 0 else BOTTOM
    hi = f[s.hi + 1] if s.hi < space.n else TOP
    members = brute_between(space, lo, hi, space.vertices)
    allowed = {v for v in members if s.lo <= space.level(v) <= s.hi}
    targets = set(f.levels_of(s))
    return not any(flood(space, x, allowed) & targets for x in g.levels_of(s))


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
