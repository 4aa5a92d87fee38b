import itertools
import json
import random

import pytest

import brute
import pseudospace.flags as FL
import pseudospace.space as SP
from pseudospace.errors import (
    AnchorLevelMismatchError,
    AnchorsNotOverError,
    ParseError,
    PreconditionError,
)
from pseudospace.letters import Letter, index_set_to_letters, parse_letter
from pseudospace.oracle import _applicable_ops, random_reduced_word, random_script
from pseudospace.space import BOTTOM, INF, TOP, ColoredSpace


@pytest.fixture
def flag_space():
    """A flag a0-a1-a2 with one extra level-1 vertex b1 hung on (a0, a2)."""
    sp = ColoredSpace(2)
    a = sp.apply_alpha(Letter(0, 2))
    b = sp.apply_alpha(Letter(1, 1), a[0], a[2])
    return sp, a, b[0]


def test_apply_alpha_from_empty():
    sp = ColoredSpace(2)
    created = sp.apply_alpha(Letter(0, 2))
    assert len(created) == 3
    assert [sp.level(v) for v in created] == [0, 1, 2]
    assert sp.edges() == [(0, 1), (1, 2)]


def test_apply_alpha_anchored(flag_space):
    sp, a, b1 = flag_space
    assert sp.neighbors(b1) == {a[0], a[2]}


def test_apply_alpha_errors(flag_space):
    sp, a, b1 = flag_space
    # second independent flag: its level-0 vertex is not under the first a2
    c = sp.apply_alpha(Letter(0, 2))
    with pytest.raises(AnchorsNotOverError):
        sp.apply_alpha(Letter(1, 1), c[0], a[2])
    with pytest.raises(AnchorLevelMismatchError):
        sp.apply_alpha(Letter(1, 1), a[1], a[2])
    with pytest.raises(AnchorLevelMismatchError):
        sp.apply_alpha(Letter(0, 1), a[0], a[2])


def test_anchor_check_matches_dfs_closure():
    """On built and hand-made spaces, ``apply_alpha`` between two vertex
    anchors succeeds exactly when the upper one is in the lower one's plain
    DFS up-set, whether that up-set is memoized or not, and a refused insert
    leaves the space as it was."""
    accepted = refused = warm = 0
    for rng, sp in brute.random_spaces(37, 40):
        for _ in range(12):
            lo, hi = sorted(rng.sample(sp.vertices, 2), key=sp.level)
            if sp.level(hi) - sp.level(lo) < 2:
                continue
            if rng.random() < 0.5:
                sp.upward_closure(lo)  # memoizes lo's up-set
            warm += lo in sp._up
            s = Letter(sp.level(lo) + 1, sp.level(hi) - 1)
            if hi in brute.dfs_closure(sp, lo, +1):
                sp.apply_alpha(s, lo, hi)
                accepted += 1
                continue
            before = (dict(sp._level), sp.edges())
            with pytest.raises(AnchorsNotOverError):
                sp.apply_alpha(s, lo, hi)
            assert (sp._level, sp.edges()) == before
            refused += 1
    assert accepted > 50 and refused > 50 and warm > 20, (accepted, refused, warm)


def test_lies_over(flag_space):
    sp, a, b1 = flag_space
    assert sp.lies_over(a[0], a[2])
    assert sp.lies_over(BOTTOM, a[1])
    assert sp.lies_over(b1, TOP)
    assert not sp.lies_over(a[2], a[0])
    c = sp.apply_alpha(Letter(0, 2))
    assert not sp.lies_over(c[0], a[2])


def test_lies_over_matches_dfs_closure_on_every_pair():
    """``lies_over`` on every ordered pair of anchors of built and hand-made
    spaces, imaginary anchors, pairs on one level and lower neighbours
    included, matches a plain DFS with a cold memo, and fills no memo."""
    answers = {True: 0, False: 0}
    same_level = lower_neighbours = 0
    for _, sp in brute.random_spaces(43, 30):
        assert not sp._up
        anchors = [BOTTOM, TOP] + sp.vertices
        for a in anchors:
            up = brute.dfs_closure(sp, a, +1) if sp.is_real(a) else set()
            for b in anchors:
                if a == BOTTOM or b == TOP:
                    expected = True
                elif a == TOP or b == BOTTOM:
                    expected = False
                else:
                    expected = b in up
                    same_level += sp.level(a) == sp.level(b)
                    lower_neighbours += b in sp.neighbors(a) and sp.level(b) < sp.level(a)
                assert sp.lies_over(a, b) == expected, (a, b)
                answers[expected] += 1
        assert not sp._up
    assert answers[True] > 0 and answers[False] > 0, answers
    assert same_level > 0 and lower_neighbours > 0, (same_level, lower_neighbours)


def _distance(sp, x, y, lo, hi):
    """Distance from ``x`` to ``y`` inside the subgraph on levels lo..hi."""
    return sp.distances_from(x, sp._interval_masks()[(lo, hi)]).get(y, INF)


def test_distance(flag_space):
    sp, a, b1 = flag_space
    assert _distance(sp, a[0], a[1], 0, 1) == 1
    assert _distance(sp, a[1], b1, 1, 1) == INF
    assert _distance(sp, a[1], b1, 0, 1) == 2
    assert _distance(sp, a[0], a[1], 1, 1) == INF  # a[0] lies outside the interval


def test_between(flag_space):
    sp, a, b1 = flag_space
    assert sp.between(a[0], a[2]) == {a[1], b1}
    assert sp.between(BOTTOM, TOP) == set(sp.vertices)
    assert sp.between(a[0], a[2], within={b1, a[0]}) == {b1}
    assert sp.between(BOTTOM, a[2], within={a[1]}) == {a[1]}
    assert sp.between(BOTTOM, TOP, within={a[1], b1}) == {a[1], b1}
    assert sp.between(a[0], TOP, within={a[2]}) == set()


def test_simply_connected_on_built_spaces():
    rng = random.Random(31)
    for _ in range(40):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        assert SP.simply_connected_witness(sp) is None


def test_simply_connected_empty():
    assert SP.simply_connected_witness(ColoredSpace(2)) is None


def test_four_cycle_is_rejected():
    sp = ColoredSpace(1)
    sp._level = {0: 0, 1: 0, 2: 1, 3: 1}
    sp._adj = {0: {2, 3}, 1: {2, 3}, 2: {0, 1}, 3: {0, 1}}
    witness = SP.simply_connected_witness(sp)
    assert witness is not None


def test_complete(flag_space):
    sp, a, b1 = flag_space
    assert SP.is_complete(sp, set(a))
    assert not SP.is_complete(sp, {a[1], a[2]})
    assert SP.is_complete(sp)


def test_nice_examples(flag_space):
    sp, a, b1 = flag_space
    assert SP.is_nice(sp, set(a))
    assert SP.is_nice(sp, set(sp.vertices))
    assert SP.is_nice(sp, set(a) | {b1})
    assert not SP.is_nice(sp, {a[1], b1})
    assert SP.nice_witness(sp, {a[1], b1}) is not None


def test_nice_iff_wunderbar_on_built(flag_space):
    sp, a, b1 = flag_space
    for region in [set(a), set(a) | {b1}, {a[1], b1}, set(sp.vertices)]:
        assert SP.is_nice(sp, region) == (SP.nice_witness(sp, region, exact=True) is None)


def test_wunderbar_after_extension():
    rng = random.Random(32)
    for _ in range(25):
        script = random_script(rng, 3)
        sp = ColoredSpace(script["n"])
        for op in script["ops"]:
            prior = set(sp.vertices)
            sp.apply_alpha(parse_letter(op["letter"]), op["lo"], op["hi"])
            if prior:
                assert SP.nice_witness(sp, prior, exact=True) is None


def test_open_pairs(flag_space):
    sp, a, b1 = flag_space
    assert SP.open_pairs(sp, set(a)) == []
    assert SP.open_pairs(sp, set(a) | {b1}) == [(a[0], a[2])]
    assert SP.open_pairs(sp, set()) == []


def test_nice_hull(flag_space):
    sp, a, b1 = flag_space
    hull = SP.nice_hull(sp, set(a), b1)
    assert hull == set(a) | {b1}
    assert SP.is_nice(sp, hull)
    assert SP.nice_hull(sp, set(a), a[1]) == set(a)
    through = SP.nice_hull(sp, set(), b1)
    assert b1 in through
    assert SP.is_nice(sp, through)
    assert SP.is_complete(sp, through)


def test_nice_hull_walks_into_region():
    # finite-distance case: hulling a vertex two steps from the region
    sp = ColoredSpace(2)
    a = sp.apply_alpha(Letter(0, 2))
    b1 = sp.apply_alpha(Letter(1, 1), a[0], a[2])[0]
    c0 = sp.apply_alpha(Letter(0, 0), BOTTOM, b1)[0]
    region = set(a)
    hull = SP.nice_hull(sp, region, c0)
    assert c0 in hull and region <= hull
    assert SP.is_nice(sp, hull)


def test_nice_hull_requires_nice_region(flag_space):
    sp, a, b1 = flag_space
    with pytest.raises(PreconditionError):
        SP.nice_hull(sp, {a[1], b1}, a[0])


def test_random_hulls_are_nice():
    rng = random.Random(33)
    for _ in range(30):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        vertices = sp.vertices
        b = rng.choice(vertices)
        hull = SP.nice_hull(sp, set(), b)
        assert b in hull
        assert SP.is_nice(sp, hull)
        b2 = rng.choice(vertices)
        hull2 = SP.nice_hull(sp, hull, b2)
        assert hull <= hull2 and b2 in hull2
        assert SP.is_nice(sp, hull2)


def test_nice_hull_of_each_flag_and_vertex_is_nice():
    """On seeded built spaces, the hull of each flag's vertex set with each
    vertex holds both and is nice by the per-pair reference; a region that
    is not nice is refused."""
    rng = random.Random(34)
    hulls = refused = 0
    for _ in range(60):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        for f in FL.enumerate_flags(sp):
            region = set(f.vertices)
            for b in sp.vertices:
                hull = SP.nice_hull(sp, region, b)
                assert region | {b} <= hull, (sp.to_json(), f, b)
                assert brute.brute_nice_witness(sp, hull) is None, (sp.to_json(), f, b)
                hulls += 1
        for _ in range(3):
            region = _random_region(rng, sp)
            outside = [b for b in sp.vertices if b not in region]
            if outside and brute.brute_nice_witness(sp, region) is not None:
                with pytest.raises(PreconditionError):
                    SP.nice_hull(sp, region, outside[0])
                refused += 1
    assert hulls > 2000 and refused > 50, (hulls, refused)


def test_amalgam_property():
    base = ColoredSpace(2)
    f = base.apply_alpha(Letter(0, 2))
    op1 = SP.BuildOp(Letter(1, 1), f[0], f[2], ())
    op2 = SP.BuildOp(Letter(0, 1), BOTTOM, f[2], ())
    assert SP.amalgam_isomorphic(base, op1, op2)


def test_script_and_export_roundtrip():
    script = {
        "n": 2,
        "ops": [
            {"letter": "[0,2]", "lo": "bottom", "hi": "top"},
            {"letter": "[1]", "lo": 0, "hi": 2},
        ],
    }
    sp = ColoredSpace.from_script(script)
    data = sp.to_json()
    clone = ColoredSpace.from_json(json.loads(json.dumps(data)))
    assert clone.to_json() == data
    dot = sp.to_dot()
    assert "v3@1" in dot and "v0 -- v1" in dot


def test_export_must_state_its_edges():
    data = ColoredSpace.from_script(random_script(random.Random(36), 3)).to_json()
    assert data["edges"]
    for edges in ([], data["edges"][:-1]):
        with pytest.raises(ParseError):
            ColoredSpace.from_json({**data, "edges": edges})
    with pytest.raises(ParseError):
        ColoredSpace.from_json({k: v for k, v in data.items() if k != "edges"})
    empty = ColoredSpace(2).to_json()
    assert empty["edges"] == [] and ColoredSpace.from_json(empty).to_json() == empty


def test_build_log_replays_identically():
    rng = random.Random(34)
    for _ in range(20):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        replay = ColoredSpace(sp.n)
        for op in sp.build_log:
            assert replay.apply_alpha(op.letter, op.lo, op.hi) == list(op.created)
        assert replay.to_json() == sp.to_json()


def test_distance_stability_under_operations():
    rng = random.Random(35)
    for _ in range(20):
        script = random_script(rng, 3)
        sp = ColoredSpace(script["n"])
        recorded = []
        for op in script["ops"]:
            for (x, y) in itertools.combinations(sp.vertices, 2):
                for lo in range(sp.n + 1):
                    for hi in range(lo, sp.n + 1):
                        if lo <= sp.level(x) <= hi and lo <= sp.level(y) <= hi:
                            recorded.append((x, y, lo, hi, _distance(sp, x, y, lo, hi)))
            sp.apply_alpha(parse_letter(op["letter"]), op["lo"], op["hi"])
        for x, y, lo, hi, d in recorded:
            assert _distance(sp, x, y, lo, hi) == d


def test_closure_memo_follows_inserts():
    """Every vertex's closures are memoized before each insert; after it, the
    closures and ``lies_over`` must match a plain DFS, for inserts with every
    combination of real and imaginary anchors."""
    kinds = set()
    for seed in range(250):
        script = random_script(random.Random(seed), 4, max_ops=12)
        sp = ColoredSpace(script["n"])
        for op in script["ops"]:
            for v in sp.vertices:
                sp.upward_closure(v)
                sp.downward_closure(v)
            lo, hi = op["lo"], op["hi"]
            kinds.add((sp.is_real(lo), sp.is_real(hi)))
            sp.apply_alpha(parse_letter(op["letter"]), lo, hi)
            for v in sp.vertices:
                up = brute.dfs_closure(sp, v, +1)
                assert [sp.lies_over(v, w) for w in sp.vertices] == [
                    w in up for w in sp.vertices
                ], (seed, v)
                assert sp.upward_closure(v) == up, (seed, v)
                assert sp.downward_closure(v) == brute.dfs_closure(sp, v, -1), (seed, v)
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def _random_region(rng, sp):
    return {v for v in sp.vertices if rng.random() < 0.6}


def test_region_searches_match_transitive_closure():
    restricted = complete = incomplete = 0
    for rng, sp in brute.random_spaces(41, 40):
        anchors = [BOTTOM, TOP] + sp.vertices
        for _ in range(4):
            region = _random_region(rng, sp)
            for _ in range(10):
                a, b = rng.choice(anchors), rng.choice(anchors)
                inner = sp.between(a, b, region)
                assert inner == brute.brute_between(sp, a, b, region), (a, b, region)
                restricted += inner != sp.between(a, b) & region
            if SP.is_complete(sp, region):
                complete += 1
                assert brute.brute_is_complete(sp, region), region
            else:
                incomplete += 1
                assert not brute.brute_is_complete(sp, region), region
        a, b = rng.choice(anchors), rng.choice(anchors)
        assert sp.between(a, b) == brute.brute_between(sp, a, b, sp.vertices)
    assert restricted > 5 and min(complete, incomplete) > 10


def test_open_pairs_match_component_labelling():
    found = 0
    for rng, sp in brute.random_spaces(42, 40):
        for region in [set(sp.vertices), *(_random_region(rng, sp) for _ in range(3))]:
            pairs = SP.open_pairs(sp, region)
            assert pairs == brute.brute_open_pairs(sp, region), region
            found += bool(pairs)
    assert found > 10


def _witness_spaces(seed):
    """``brute.random_spaces``, then built spaces grown by ``realize_type``
    from a random flag along a random reduced word."""
    yield from brute.random_spaces(seed, 40)
    rng = random.Random(seed)
    for _ in range(40):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        FL.realize_type(sp, rng.choice(FL.enumerate_flags(sp)), random_reduced_word(rng, sp.n, 4))
        yield rng, sp


def test_nice_witness_matches_per_pair_bfs(monkeypatch):
    """Equal witnesses in both modes; without ``exact``, one BFS at most, for
    the distance of a ``distance`` witness."""
    bfs_runs = []
    distances_from = ColoredSpace.distances_from

    def counted(self, x, within=None):
        bfs_runs.append(x)
        return distances_from(self, x, within)

    monkeypatch.setattr(ColoredSpace, "distances_from", counted)
    kinds = {"nice": 0, "between-sets": 0, "distance": 0}
    for rng, sp in _witness_spaces(44):
        for region in [set(sp.vertices), *(_random_region(rng, sp) for _ in range(3))]:
            for exact in (False, True):
                bfs_runs.clear()
                witness = SP.nice_witness(sp, region, exact)
                if not exact:
                    assert len(bfs_runs) == (witness is not None and witness[0] == "distance")
                assert witness == brute.brute_nice_witness(sp, region, exact), (region, exact)
                kinds["nice" if witness is None else witness[0]] += 1
    assert min(kinds.values()) > 10, kinds


def test_simply_connected_witness_matches_per_pair_bfs():
    found = 0
    for _, sp in _witness_spaces(45):
        witness = SP.simply_connected_witness(sp)
        assert witness == brute.brute_simply_connected_witness(sp), sp.to_json()
        found += witness is not None
    assert found > 10


def test_distance_memo_matches_a_fresh_copy_after_every_insert():
    """Spaces grow by interleaved ``apply_alpha`` and ``realize_type``.
    After each insert the grown space, whose distance memo is warm from the
    queries before, and a fresh copy from its export must agree on the BFS
    distances from every point of every level interval and between-set,
    the exact witness for the prior vertex set, the simple-connectivity
    witness and the open pairs of the prior set.  The copy measures each
    distance map with an empty memo, so a memo entry read back for the wrong
    mask shows.  Some BFS of the grown space must be answered by entries
    made before the insert, so a memo that an insert had to clear would
    show."""
    rng = random.Random(46)
    carried = 0
    for _ in range(12):
        n = rng.randint(1, 3)
        sp = ColoredSpace(n)
        sp.apply_alpha(Letter(0, n))
        for _ in range(6):
            prior = set(sp.vertices)
            kept = set(sp._dist)
            if rng.random() < 0.5:
                flag = rng.choice(FL.enumerate_flags(sp))
                FL.realize_type(sp, flag, random_reduced_word(rng, n, 3))
            else:
                sp.apply_alpha(*rng.choice(_applicable_ops(sp)))
            fresh = ColoredSpace.from_json(sp.to_json())
            anchors = [BOTTOM, *sp.vertices, TOP]
            masks = set(sp._interval_masks().values())
            masks |= {sp._between(a, b) for a in anchors for b in anchors}
            for within in sorted(masks):
                for x in SP._members(within):
                    carried += (x, within) in kept
                    fresh._dist.clear()
                    assert sp.distances_from(x, within) == fresh.distances_from(x, within)
            assert SP.nice_witness(sp, prior, exact=True) == SP.nice_witness(fresh, prior, exact=True)
            assert SP.simply_connected_witness(sp) == SP.simply_connected_witness(fresh)
            assert SP.open_pairs(sp, prior) == SP.open_pairs(fresh, prior)
    assert carried > 100, carried


def _interval_steps(sp, flags):
    """``(f, g, s)`` for the ordered pairs of flags that differ at exactly the
    levels of one letter ``s``."""
    for f in flags:
        for g in flags:
            letters = index_set_to_letters(frozenset(i for i in range(sp.n + 1) if f[i] != g[i]))
            if len(letters) == 1:
                yield f, g, letters[0]


def test_is_global_step_matches_per_source_search():
    seen = {True: 0, False: 0}
    for _, sp in brute.random_spaces(43, 100):
        for f, g, s in _interval_steps(sp, FL.enumerate_flags(sp)[:12]):
            expected = brute.brute_is_global_step(sp, f, g, s)
            assert FL.is_global_step(sp, f, g, s) == expected, (f, g, s)
            seen[expected] += 1
    assert min(seen.values()) > 100, seen
