"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own strategies: reducts come from the
full closure under single generalized cancellations or a restart loop,
normal forms from bubble passes, equivalence from the full swap closure, and
the replacement order from exhaustive segmentation of every permutation.  The
word references name no kernel (``tests/test_imports.py`` checks this), so a
fault in a kernel cannot pass a cross-check by breaking its reference too.
Stabilizers and ``split_absorbed`` are the plain level-set loops, and
``final_segment`` the pairwise commutation scan.  The space
searches are checked against a transitive closure of the ascending edges,
plain flood fills and one plain BFS per pair of points.
``restart_flag_path`` keeps the former restart-loop ``flag_path``; it shares
only the weak word with the library.  Its connecting paths come from a plain
BFS over ``brute_between`` and its bridges from smallest-id monotone chains
over ``dfs_closure``, so no memo of the space takes part in it
(``tests/test_imports.py`` checks this too).  ``brute_basepoint`` takes
its words from that reference, its flags from its own DFS and the minimum
from ``brute_prec``; it names no rank.  ``reference_from_json`` keeps the
export check that ``ColoredSpace.from_json`` made before its one-pass edge
sweep: copy every stated edge, then compare two sets of sorted pairs.  Only
usable at tiny sizes.
"""

import itertools
import random
from functools import lru_cache

from pseudospace.errors import ParseError
from pseudospace.letters import (
    Letter,
    all_letters,
    commutes,
    contains,
    index_set_to_letters,
    parse_letter,
)
from pseudospace.oracle import random_script
from pseudospace.space import BOTTOM, TOP, ColoredSpace
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


def all_words(n: int, max_len: int) -> list[Word]:
    """Every word of dimension ``n`` with at most ``max_len`` letters."""
    return [
        Word(letters, n)
        for length in range(max_len + 1)
        for letters in itertools.product(all_letters(n), repeat=length)
    ]


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
    results = set()
    frontier = [word.letters]
    seen = {word.letters}
    while frontier:
        cur = frontier.pop()
        nexts = single_cancellations(cur)
        if not nexts:
            results.add(bubble_normal_form(tuple(s.key for s in cur)))
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return results


@lru_cache(maxsize=None)
def restart_reduce(key: tuple) -> tuple:
    """Reference for ``kernels.reduce_word`` on raw words: delete the leftmost
    absorbed letter and rescan from the start until none is left, then take
    the normal form by bubble passes.  Cubic in the word length; memoized,
    since the sweeps ask for the same products many times."""
    letters = list(key)
    while (pair := _absorption_pair(letters)) is not None:
        del letters[pair[0]]
    return bubble_normal_form(tuple(letters))


def absorbing_positions(key: tuple, i: int) -> list[int]:
    """Every position j != i whose letter contains the letter at ``i`` while
    every letter strictly between them commutes with it, by a plain scan of
    all pairs."""
    s = Letter(*key[i])
    out = []
    for j, t in enumerate(key):
        between = key[min(i, j) + 1 : max(i, j)]
        if j != i and contains(Letter(*t), s) and all(
            commutes(s, Letter(*x)) for x in between
        ):
            out.append(j)
    return out


def brute_properly_absorbs_left(v: Word, u: Word) -> bool:
    """Reference for ``words.properly_absorbs_left``: every letter ``s`` of
    ``u`` lies strictly inside some letter of ``v`` that it commutes past from
    the left, i.e. ``s`` commutes with every letter of ``v`` before it."""
    return all(
        any(
            contains(t, s, proper=True) and all(commutes(s, r) for r in v.letters[:j])
            for j, t in enumerate(v.letters)
        )
        for s in u.letters
    )


def brute_properly_absorbs_right(v: Word, u: Word) -> bool:
    """Reference for ``words.properly_absorbs_right``: the mirror scan, every
    letter of ``u`` strictly inside a letter of ``v`` with everything after
    that letter commuting with it."""
    return all(
        any(
            contains(t, s, proper=True) and all(commutes(s, r) for r in v.letters[j + 1 :])
            for j, t in enumerate(v.letters)
        )
        for s in u.letters
    )


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


def bfs_distance(space, x, y, allowed) -> float:
    """Length of a shortest path from ``x`` to ``y`` through ``allowed``, or
    infinity: a plain BFS over the adjacency sets."""
    if x not in allowed:
        return float("inf")
    dist = {x: 0}
    queue = [x]
    for v in queue:
        if v == y:
            return dist[v]
        for w in space.neighbors(v):
            if w in allowed and w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return float("inf")


def _anchor_sets(space, order, anchors, nodes):
    """``(up, down)``: the vertices of ``nodes`` above resp. beneath each
    anchor under ``order``."""
    up = {a: {v for v in nodes if a == BOTTOM or (a, v) in order} for a in anchors}
    down = {b: {v for v in nodes if b == TOP or (v, b) in order} for b in anchors}
    return up, down


def brute_nice_witness(space, region, exact=False):
    """Reference for ``space.nice_witness``: between-sets from two transitive
    closures (ambient and inside the region) and one BFS per pair of region
    points at each level interval, scanned in the library's order."""
    region = set(region)
    anchors = [BOTTOM, TOP] + sorted(region)
    order = monotone_order(space, space.vertices)
    inner_order = monotone_order(space, region)
    up, down = _anchor_sets(space, order, anchors, region)
    up_in, down_in = _anchor_sets(space, inner_order, anchors, region)
    for a in anchors:
        for b in anchors:
            missing = (up[a] & down[b]) - (up_in[a] & down_in[b])
            if missing:
                return ("between-sets", a, b, sorted(missing))
    for lo in range(space.n + 1):
        for hi in range(lo, space.n + 1):
            allowed = {v for v in space.vertices if lo <= space.level(v) <= hi}
            pts = sorted(allowed & region)
            for x in pts:
                for y in pts:
                    if y == x:
                        continue
                    dm = bfs_distance(space, x, y, allowed)
                    dd = bfs_distance(space, x, y, allowed & region)
                    broken = dm != dd if exact else (dm < float("inf") and dd == float("inf"))
                    if broken:
                        return ("distance", tuple(range(lo, hi + 1)), x, y, dm, dd)
    return None


def brute_simply_connected_witness(space):
    """Reference for ``space.simply_connected_witness``: between-sets from a
    transitive closure and one BFS per pair of points, avoiding the anchors
    and inside the between-set, scanned in the library's order."""
    order = monotone_order(space, space.vertices)
    vertices = space.vertices
    for a in [BOTTOM] + vertices:
        for b in vertices + [TOP]:
            if a == BOTTOM and b == TOP:
                continue
            if a != BOTTOM and b != TOP and (a, b) not in order:
                continue
            between = {
                v
                for v in vertices
                if (a == BOTTOM or (a, v) in order) and (b == TOP or (v, b) in order)
            }
            if len(between) < 2:
                continue
            outside = set(vertices) - {a, b}
            la = -1 if a == BOTTOM else space.level(a)
            lb = space.n + 1 if b == TOP else space.level(b)
            for t_lo in range(max(la, 0), min(lb, space.n) + 1):
                for t_hi in range(t_lo, min(lb, space.n) + 1):
                    levels = {v for v in vertices if t_lo <= space.level(v) <= t_hi}
                    pts = sorted(between & levels)
                    for x, y in itertools.combinations(pts, 2):
                        k = bfs_distance(space, x, y, outside & levels)
                        if k < float("inf") and bfs_distance(space, x, y, between & levels) > k:
                            return (a, b, (t_lo, t_hi), x, y, k)
    return None


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
    target = restart_reduce(v.key)
    out = []
    alphabet = all_letters(u.n)
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            if restart_reduce(u.key + tuple(s.key for s in combo)) == target:
                out.append(Word(combo, u.n))
    return out


def brute_left_stabilizer(v: Word) -> frozenset:
    """Reference for ``words.left_stabilizer`` on level sets: the levels of
    each letter that are still central, where a letter removes its levels
    and the two next to them from the central set."""
    out: set[int] = set()
    cent = set(range(v.n + 1))
    for s in v.letters:
        out.update(cent & set(range(s.lo, s.hi + 1)))
        cent = {i for i in cent if i <= s.lo - 2 or i >= s.hi + 2}
    return frozenset(out)


def brute_split_absorbed(u: Word, absorbed_into) -> tuple[tuple, tuple]:
    """Reference for ``words.split_absorbed``, as keys: from the right, a
    letter moves when all its levels lie in the set and it commutes with
    every letter that stays."""
    stay: list[Letter] = []
    moved: list[Letter] = []
    for s in reversed(u.letters):
        if all(i in absorbed_into for i in range(s.lo, s.hi + 1)) and all(
            commutes(s, t) for t in stay
        ):
            moved.append(s)
        else:
            stay.append(s)
    return tuple(s.key for s in reversed(stay)), tuple(s.key for s in reversed(moved))


def brute_final_segment(u: Word) -> tuple[tuple, tuple]:
    """Reference for ``words.final_segment``, as keys: a letter belongs to
    the segment when it commutes with every later letter, tested pair by
    pair."""
    letters = u.letters
    remainder: list[tuple] = []
    segment: list[tuple] = []
    for i, s in enumerate(letters):
        if all(commutes(s, t) for t in letters[i + 1 :]):
            segment.append(s.key)
        else:
            remainder.append(s.key)
    return tuple(remainder), tuple(segment)


def brute_decompose_fine(u: Word, v: Word) -> tuple:
    """Reference for ``words.decompose_fine``: the keys of u1, u', v', v1 from
    the two helpers above, with the right stabilizer of u1 as the left one
    of u1 reversed."""
    u1, u_prime = brute_split_absorbed(u, brute_left_stabilizer(v))
    u1_reversed = Word(tuple(Letter(*s) for s in reversed(u1)), u.n)
    v1_rev, v_prime_rev = brute_split_absorbed(
        Word(v.letters[::-1], v.n), brute_left_stabilizer(u1_reversed)
    )
    return u1, u_prime, v_prime_rev[::-1], v1_rev[::-1]


def reference_from_json(data) -> ColoredSpace:
    """Load an export the way ``from_json`` used to: copy the stated edges
    and the build log up front (a missing key or a container of the wrong
    type is a ``ParseError``), replay the log, refuse ids that differ from
    the stated ``created`` ones, then any stated id that is no int, then a
    set of sorted stated edges other than the set of replayed edges."""
    try:
        n, edges = data["n"], [list(e) for e in data["edges"]]
        log = [(op["letter"], op["lo"], op["hi"], list(op["created"])) for op in data["build_log"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed space export: {exc!r}") from exc
    space = ColoredSpace(n)
    for letter, lo, hi, created in log:
        s = parse_letter(letter)
        for anchor in (lo, hi):
            if anchor not in (BOTTOM, TOP) and type(anchor) is not int:
                raise ParseError(f"bad anchor {anchor!r}")
        if space.apply_alpha(s, lo, hi) != created:
            raise ParseError("build log replay produced different vertex ids")
    if not set(map(type, itertools.chain(*(op[3] for op in log), *edges))) <= {int}:
        raise ParseError("stated vertex ids must be integers")
    if {tuple(sorted(e)) for e in edges} != set(space.edges()):
        raise ParseError("build log replay disagrees with the stated edges")
    return space


def random_spaces(seed, count):
    """Built spaces, then ``from_graph`` leveled graphs with random edges
    between adjacent levels, which need not be simply connected."""
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, ColoredSpace.from_script(random_script(rng, 3))
    for _ in range(count):
        n = rng.randint(1, 3)
        levels = [level for level in range(n + 1) for _ in range(rng.randint(1, 4))]
        edges = [(v, w) for v, w in itertools.combinations(range(len(levels)), 2)
                 if levels[w] == levels[v] + 1 and rng.random() < 0.6]
        yield rng, ColoredSpace.from_graph(n, levels, edges)


def stuck_spaces(seed, count):
    """``from_graph`` copies of built spaces with one to three dead ends
    added, each a vertex joined to two vertices of the built space one level
    below it and to nothing above.  A dead end can join two s-parts between
    a step's anchors while no flag runs through it, so these graphs hold the
    stuck steps that the graphs of ``random_spaces`` seldom do.  Built
    spaces with no level below N over two vertices are drawn again."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        space = ColoredSpace.from_script(random_script(rng, 3))
        levels = [space.level(v) for v in space.vertices]
        below = {lv: [v for v in space.vertices if levels[v] == lv - 1] for lv in range(1, space.n)}
        open_levels = [lv for lv, vs in below.items() if len(vs) > 1]
        if not open_levels:
            continue
        edges = space.edges()
        for _ in range(rng.randint(1, 3)):
            lv = rng.choice(open_levels)
            edges += [(w, len(levels)) for w in rng.sample(below[lv], 2)]
            levels.append(lv)
        made += 1
        yield rng, ColoredSpace.from_graph(space.n, levels, edges)


def restart_flag_path(space, f, g, counts=None):
    """Reference for ``flags.flag_path``: after every local rewrite it starts
    over from the first step, recomputing each step's letter from a scan of
    all levels, and sorts the final path by repeated bubble passes.  Adds the
    number of merges to ``counts["merges"]`` when ``counts`` is given."""
    from pseudospace import flags as FL
    from pseudospace import words as W
    from pseudospace.errors import PreconditionError

    flags = [f]
    for letter in FL.weak_word(space, f, g).letters:
        flags.append(flags[-1].replace(letter, g.levels_of(letter)))
    stuck_pairs = set()
    for _ in range(10_000):
        if _drop_identities(flags):
            continue
        if _split_non_intervals(space, flags):
            continue
        if _refine_non_global(space, flags, stuck_pairs):
            continue
        if _merge_absorbed(space, flags, stuck_pairs):
            if counts is not None:
                counts["merges"] = counts.get("merges", 0) + 1
            continue
        break
    else:
        raise PreconditionError("flag path refinement failed to converge")
    _sort_to_normal_form(space, flags)
    steps = list(zip(flags, flags[1:]))
    word = W._from_key(tuple(_step_letter(space, a, b).key for a, b in steps), space.n)
    stuck = tuple(i for i, pair in enumerate(steps) if pair in stuck_pairs)
    return FL.FlagPath(tuple(flags), word, stuck)


def brute_basepoint(space, f, region):
    """Reference for ``flags.basepoint`` on nice regions: the region's flags
    from a plain DFS, their words from ``restart_flag_path``, and the
    ``preceq``-minimum found by ``brute_prec`` and swap closures, ties going
    to the least vertex tuple.  Asserts that the minimum lies ``preceq``
    every candidate."""
    words = {g: restart_flag_path(space, f, g).word for g in _region_flags(space, region)}
    assert words, "region contains no flag"
    least = next(iter(words))
    for g, u in words.items():
        if brute_prec(u, words[least]):
            least = g
    same = swap_closure(words[least])
    assert all(u.letters in same or brute_prec(words[least], u) for u in words.values())
    best = min((g for g, u in words.items() if u.letters in same), key=lambda g: g.vertices)
    return best, words[best]


def _region_flags(space, region):
    """The level-0..N paths inside ``region``, by a plain DFS over the
    adjacency sets."""
    from pseudospace.flags import Flag

    out = []
    stack = [(v,) for v in region if space.level(v) == 0]
    while stack:
        path = stack.pop()
        if len(path) == space.n + 1:
            out.append(Flag(path))
            continue
        stack += [
            path + (w,)
            for w in space.neighbors(path[-1])
            if w in region and space.level(w) == len(path)
        ]
    return out


def _step_letter(space, a, b):
    diff = [i for i in range(space.n + 1) if a[i] != b[i]]
    return Letter(diff[0], diff[-1])


def _drop_identities(flags) -> bool:
    for i in range(len(flags) - 1):
        if flags[i] == flags[i + 1]:
            del flags[i + 1]
            return True
    return False


def _split_non_intervals(space, flags) -> bool:
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


def _refine_non_global(space, flags, stuck_pairs) -> bool:
    for i in range(len(flags) - 1):
        a, b = flags[i], flags[i + 1]
        if (a, b) in stuck_pairs:
            continue
        s = _step_letter(space, a, b)
        path = _plain_connecting_path(space, a, b, s)
        if path is None:
            continue
        mids = _plain_bridge(space, a, s, path)
        if mids is None:
            stuck_pairs.add((a, b))
            continue
        flags[i + 1 : i + 1] = mids
        return True
    return False


def _step_anchors(space, a, s):
    lo = a[s.lo - 1] if s.lo > 0 else BOTTOM
    hi = a[s.hi + 1] if s.hi < space.n else TOP
    return lo, hi


def _plain_connecting_path(space, a, b, s):
    """A shortest path from the s-part of ``a`` to that of ``b`` inside the
    between-set of the step's anchors, by a plain BFS: sources and
    neighbours in ascending id order, the first target dequeued ending the
    search; None when there is none."""
    allowed = brute_between(space, *_step_anchors(space, a, s), space.vertices)
    targets = set(b.levels_of(s))
    prev = {}
    queue = []
    for v in sorted(a.levels_of(s)):
        if v in allowed and v not in prev:
            prev[v] = None
            queue.append(v)
    for v in queue:
        if v in targets:
            path = [v]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in sorted(space.neighbors(v)):
            if w in allowed and w not in prev:
                prev[w] = v
                queue.append(w)
    return None


def _plain_bridge(space, a, s, path):
    """The flags that replace the step from ``a`` along ``path`` by
    proper-subletter moves: for each edge of the path, ``a`` with the s-part
    running up a smallest-id chain to the edge and on to the upper anchor;
    None when some chain does not exist."""
    lo, hi = _step_anchors(space, a, s)
    mids = []
    for u, v in zip(path, path[1:]):
        lower, upper = (u, v) if space.level(u) < space.level(v) else (v, u)
        down, up = _plain_chain(space, lo, lower), _plain_chain(space, upper, hi)
        if down is None or up is None:
            return None
        mids.append(a.replace(s, down + [lower, upper] + up))
    return mids


def _plain_chain(space, a, b):
    """The vertices strictly between anchors ``a`` and ``b`` on the ascending
    path that takes, level by level, the least vertex adjacent to the last
    one (the least level-0 vertex from ``BOTTOM``) among those beneath ``b``
    by ``dfs_closure``; None when it stops short of ``b``."""
    la = -1 if a == BOTTOM else space.level(a)
    lb = space.n + 1 if b == TOP else space.level(b)
    beneath = set(space.vertices) if b == TOP else dfs_closure(space, b, -1)
    chain = []
    for level in range(la + 1, lb):
        last = chain[-1] if chain else a
        pool = space.vertices if last == BOTTOM else space.neighbors(last)
        choices = [v for v in pool if v in beneath and space.level(v) == level]
        if not choices:
            return None
        chain.append(min(choices))
    return chain


def _absorption_pair(key):
    """(absorbed position, absorbing position) for the leftmost absorbed
    letter of a raw word, scanning right of it first, then left."""
    for i, (lo, hi) in enumerate(key):
        for step in (1, -1):
            j = i + step
            while 0 <= j < len(key):
                a, b = key[j]
                if a <= lo and hi <= b:
                    return (i, j)
                if a <= hi + 1 and lo <= b + 1:  # the letters do not commute
                    break
                j += step
    return None


def _merge_absorbed(space, flags, stuck_pairs) -> bool:
    letters = [_step_letter(space, a, b) for a, b in zip(flags, flags[1:])]
    if any((a, b) in stuck_pairs for a, b in zip(flags, flags[1:])):
        return False
    pair = _absorption_pair([s.key for s in letters])
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


def _swap_steps(space, flags, k) -> None:
    a, mid, c = flags[k], flags[k + 1], flags[k + 2]
    s = _step_letter(space, a, mid)
    t = _step_letter(space, mid, c)
    assert commutes(s, t), (s, t)
    flags[k + 1] = a.replace(t, c.levels_of(t))


def _sort_to_normal_form(space, flags) -> None:
    changed = True
    while changed:
        changed = False
        for k in range(len(flags) - 2):
            s = _step_letter(space, flags[k], flags[k + 1])
            t = _step_letter(space, flags[k + 1], flags[k + 2])
            if commutes(s, t) and t.hi + 2 <= s.lo:
                _swap_steps(space, flags, k)
                changed = True
