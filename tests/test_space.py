import itertools
import json
import random
import re

import pytest

import brute
import pseudospace.flags as FL
import pseudospace.space as SP
from pseudospace.errors import (
    AnchorLevelMismatchError,
    AnchorsNotOverError,
    DimensionError,
    ParseError,
    PreconditionError,
    PseudospaceError,
)
from pseudospace.letters import MAX_DIMENSION, Letter, all_letters, index_set_to_letters, parse_letter
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


def test_apply_alpha_refuses_anchors_that_are_not_ints():
    """``True``, ``1.0`` and ``0.0`` find vertices 1 and 0 in a dict, but are
    no vertex ids: each is refused as an anchor, and the space keeps its
    export, which still reloads."""
    sp = ColoredSpace(2)
    sp.apply_alpha(Letter(0, 2))  # vertices 0, 1, 2 at levels 0, 1, 2
    before = sp.to_json()
    for s, lo, hi in [
        (Letter(2, 2), True, TOP),
        (Letter(2, 2), 1.0, TOP),
        (Letter(1, 1), 0.0, 2),
        (Letter(1, 1), 0, 2.0),
        (Letter(0, 0), BOTTOM, True),
        (Letter(0, 0), BOTTOM, 1.0),
    ]:
        with pytest.raises(AnchorLevelMismatchError):
            sp.apply_alpha(s, lo, hi)
        assert sp.to_json() == before, (s, lo, hi)
    assert sp.apply_alpha(Letter(2, 2), 1, TOP) == [3]
    assert ColoredSpace.from_json(sp.to_json()).edges() == sp.edges()


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
    sp = ColoredSpace.from_graph(1, [0, 0, 1, 1], [(0, 2), (0, 3), (1, 2), (1, 3)])
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


def test_malformed_export_is_a_parse_error():
    """Missing keys, containers of the wrong type and a top level that is no
    object are refused by ``from_json`` itself with a ``ParseError``."""
    data = ColoredSpace.from_script(random_script(random.Random(36), 3)).to_json()
    op = data["build_log"][0]
    broken = [
        *({k: v for k, v in data.items() if k != key} for key in ("n", "build_log", "edges")),
        *({**data, "build_log": [{k: v for k, v in op.items() if k != key}]}
          for key in ("letter", "lo", "hi", "created")),
        {**data, "build_log": 3},
        {**data, "build_log": [3]},
        {**data, "build_log": [{**op, "created": 3}]},
        {**data, "edges": 3},
        {**data, "edges": [3]},
        {**data, "edges": [[0, 1, 2], *data["edges"]]},
        {**data, "edges": [[0], *data["edges"]]},
        [data],
        None,
        "{}",
    ]
    for export in broken:
        with pytest.raises(ParseError):
            ColoredSpace.from_json(export)


def test_from_graph_refuses_bad_graphs():
    """A level that is no int in [0, N], an edge naming an unknown vertex and
    an edge not joining adjacent levels are ``ParseError``s; JSON true is
    neither a level nor a vertex id.  A bad dimension is a ``DimensionError``."""
    levels, edges = [0, 1, 1, 2], [(0, 1), (2, 0), (1, 3)]
    sp = ColoredSpace.from_graph(2, levels, edges)
    assert sp.vertices == [0, 1, 2, 3] and sp.edges() == [(0, 1), (0, 2), (1, 3)]
    assert sp.build_log == [] and sp.lies_over(0, 3) and not sp.lies_over(2, 3)
    broken = [
        ([0, 1, 1, 3], edges),  # a level above N
        ([0, -1, 1, 2], edges),
        ([0, 1.0, 1, 2], edges),
        ([0, True, 1, 2], edges),
        (["0", 1, 1, 2], edges),
        (levels, [(0, 4)]),  # no vertex 4
        (levels, [(-1, 0)]),
        (levels, [(True, 3)]),  # true equals vertex 1, which is adjacent to 3
        (levels, [(0, 1.0)]),
        (levels, [(0, 3)]),  # levels 0 and 2
        (levels, [(1, 2)]),  # one level
        (levels, [(0, 0)]),
        (None, edges),  # levels that are no sequence
        (3, edges),
        ({0: 0, 1: 1}, edges),
    ]
    for bad_levels, bad_edges in broken:
        with pytest.raises(ParseError):
            ColoredSpace.from_graph(2, bad_levels, bad_edges)
    for bad_edges in ([(0, 1, 2)], [0], [(0,)], None):  # no list of pairs
        stated = repr(bad_edges if bad_edges is None else bad_edges[0])
        with pytest.raises(ParseError, match=re.escape(stated)):
            ColoredSpace.from_graph(2, levels, bad_edges)
    for n in (0, -1, True, 2.0, "2", MAX_DIMENSION + 1):
        with pytest.raises(DimensionError):
            ColoredSpace.from_graph(n, [], [])


def test_from_graph_copy_answers_like_the_built_space():
    """A copy made from a built space's levels and edges answers
    ``lies_over``, ``between``, ``enumerate_flags`` and ``flag_path`` exactly
    as the space does."""
    rng = random.Random(44)
    paths = 0
    for _ in range(30):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        copy = ColoredSpace.from_graph(sp.n, [sp.level(v) for v in sp.vertices], sp.edges())
        assert copy.build_log == [] and copy.edges() == sp.edges()
        for a, b in itertools.product([BOTTOM, *sp.vertices, TOP], repeat=2):
            assert copy.lies_over(a, b) == sp.lies_over(a, b), (a, b)
            assert copy.between(a, b) == sp.between(a, b), (a, b)
        flags = FL.enumerate_flags(sp)
        assert FL.enumerate_flags(copy) == flags
        for f, g in itertools.product(flags[:12], repeat=2):
            assert FL.flag_path(copy, f, g) == FL.flag_path(sp, f, g), (f, g)
            paths += 1
    assert paths > 500, paths


def test_build_log_replays_identically():
    rng = random.Random(34)
    for _ in range(20):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        replay = ColoredSpace(sp.n)
        for op in sp.build_log:
            assert replay.apply_alpha(op.letter, op.lo, op.hi) == list(op.created)
        assert replay.to_json() == sp.to_json()


def test_export_round_trips_levels_edges_and_log():
    """``from_json(to_json(s))``, through JSON text, has the levels, the
    edges and the build log of ``s``."""
    rng = random.Random(45)
    ops = 0
    for _ in range(40):
        sp = ColoredSpace.from_script(random_script(rng, 5, max_ops=64))
        clone = ColoredSpace.from_json(json.loads(json.dumps(sp.to_json())))
        assert [clone.level(v) for v in clone.vertices] == [sp.level(v) for v in sp.vertices]
        assert clone.edges() == sp.edges()
        log = [[(str(op.letter), op.lo, op.hi, op.created) for op in s.build_log] for s in (sp, clone)]
        assert log[0] == log[1]
        ops += len(sp.build_log)
    assert ops > 600, ops


def test_loads_insert_through_apply_alpha_once_per_op(monkeypatch):
    """``from_script`` and ``from_json`` replay through ``apply_alpha``, one
    call per op: there is no second insert path."""
    rng = random.Random(46)
    scripts = [random_script(rng, 4, max_ops=20) for _ in range(10)]
    exports = [ColoredSpace.from_script(script).to_json() for script in scripts]
    calls = []
    apply_alpha = ColoredSpace.apply_alpha

    def counted(self, *args):
        calls.append(args)
        return apply_alpha(self, *args)

    monkeypatch.setattr(ColoredSpace, "apply_alpha", counted)
    for script, data in zip(scripts, exports):
        calls.clear()
        ColoredSpace.from_script(script)
        assert len(calls) == len(script["ops"])
        calls.clear()
        ColoredSpace.from_json(data)
        assert len(calls) == len(data["build_log"]) == len(script["ops"])


EXPORT_FAULTS = (
    "drop-edge", "add-edge", "move-end", "duplicate-edge", "reverse-edge",
    "shift-created", "true-created", "change-letter", "change-anchor",
)


def _with_fault(rng, data, fault):
    """A copy of the export with one fault of the given kind, or None when
    the export has no place for it."""
    data = json.loads(json.dumps(data))
    edges, log = data["edges"], data["build_log"]
    size = len(data["vertices"])
    level = [d["level"] for d in data["vertices"]]
    if fault == "add-edge":
        joined = {tuple(e) for e in edges}
        free = [[v, w] for v in range(size) for w in range(v + 1, size)
                if abs(level[v] - level[w]) == 1 and (v, w) not in joined]
        if not free:
            return None
        edges.insert(rng.randrange(len(edges) + 1), rng.choice(free))
    elif fault in ("drop-edge", "move-end", "duplicate-edge", "reverse-edge"):
        if not edges:
            return None
        i = rng.randrange(len(edges))
        if fault == "drop-edge":
            del edges[i]
        elif fault == "move-end":
            end = rng.randrange(2)
            edges[i][end] = rng.choice([v for v in range(size + 1) if v != edges[i][end]])
        elif fault == "duplicate-edge":
            edges.insert(rng.randrange(len(edges) + 1), list(edges[i]))
        else:
            edges[i].reverse()
    else:
        op = rng.choice(log)
        if fault == "shift-created":
            op["created"][rng.randrange(len(op["created"]))] += rng.choice((-1, 1))
        elif fault == "true-created":  # in half the cases true stands for id 1
            if rng.random() < 0.5:
                op = next((op for op in log if 1 in op["created"]), op)
            ids = op["created"]
            ids[ids.index(1) if 1 in ids else rng.randrange(len(ids))] = True
        elif fault == "change-letter":  # the letters of N + 1 include some beyond N
            op["letter"] = str(rng.choice([s for s in all_letters(data["n"] + 1)
                                           if str(s) != op["letter"]]))
        else:  # in half the cases an older vertex on the anchor's level, if any
            side = rng.choice(("lo", "hi"))
            old = op[side]
            anchors = [a for a in [BOTTOM, TOP, True, *range(size)] if (a, type(a)) != (old, type(old))]
            level_mates = [v for v in range(op["created"][0]) if type(old) is int
                           and v != old and level[v] == level[old]]
            op[side] = rng.choice(level_mates if level_mates and rng.random() < 0.5 else anchors)
    return data


def _outcome(load, data):
    try:
        return "accepted", load(data).to_json()
    except PseudospaceError as exc:  # any other exception fails the test
        return "refused", type(exc)


def test_from_json_refuses_exactly_what_the_reference_refuses():
    """Seeded exports with one fault each load with ``from_json`` exactly as
    with the former two-set check (``brute.reference_from_json``): both
    accept the same space, or both refuse with the same exception class.
    Repeated and reversed edges are accepted; every other fault is
    refused."""
    rng = random.Random(47)
    seen = {}
    for i in range(360):
        data = ColoredSpace.from_script(random_script(rng, 4, max_ops=40)).to_json()
        fault = EXPORT_FAULTS[i % len(EXPORT_FAULTS)]
        broken = _with_fault(rng, data, fault)
        if broken is None:
            continue
        got = _outcome(ColoredSpace.from_json, broken)
        assert got == _outcome(brute.reference_from_json, broken), (fault, broken)
        seen.setdefault(fault, []).append(got[0] if got[0] == "accepted" else got[1])
    assert all(len(seen[fault]) >= 30 for fault in EXPORT_FAULTS), {f: len(o) for f, o in seen.items()}
    for fault, outcomes in seen.items():
        accepted = fault in ("duplicate-edge", "reverse-edge")
        assert all((o == "accepted") == accepted for o in outcomes), (fault, outcomes)
    classes = {o for outcomes in seen.values() for o in outcomes}
    assert {ParseError, AnchorLevelMismatchError, AnchorsNotOverError} <= classes, classes


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
    witness and the open pairs of the prior set, and the niceness witness of
    the prior set and of random regions, which must also equal the
    brute-force one.  The copy measures each distance map with an empty
    memo, so a memo entry read back for the wrong mask shows.  Some BFS and
    some interval components of the grown space must be answered by entries
    made before the insert, so a memo that an insert had to clear would
    show.  Positive control: the components of each level interval before
    the insert, carried to the grown interval as a memo keyed by ``(lo,
    hi)`` would carry them, must give a wrong witness more than five times.
    (The verdict stays right: an insert merges no two old components, and a
    new vertex misses such a memo, so its fresh component finds the
    violation from its side.)"""
    rng = random.Random(46)
    regions_rng = random.Random(47)
    carried = carried_parts = stale_wrong = 0
    for _ in range(12):
        n = rng.randint(1, 3)
        sp = ColoredSpace(n)
        sp.apply_alpha(Letter(0, n))
        for _ in range(6):
            prior = set(sp.vertices)
            kept = set(sp._dist)
            kept_parts = {m: list(parts) for m, parts in sp._parts.items()}
            old_masks = sp._interval_masks()
            if rng.random() < 0.5:
                flag = rng.choice(FL.enumerate_flags(sp))
                FL.realize_type(sp, flag, random_reduced_word(rng, n, 3))
            else:
                sp.apply_alpha(*rng.choice(_applicable_ops(sp)))
            fresh = ColoredSpace.from_json(sp.to_json())
            intervals = sp._interval_masks()
            anchors = [BOTTOM, *sp.vertices, TOP]
            if len(sp.vertices) > len(prior):  # an empty word inserts nothing
                carried_parts += sum(len(sp._parts.get(m, ())) for m in set(intervals.values()))
            masks = set(intervals.values())
            masks |= {sp._between(a, b) for a in anchors for b in anchors}
            for within in sorted(masks):
                for x in SP._members(within):
                    carried += (x, within) in kept
                    fresh._dist.clear()
                    assert sp.distances_from(x, within) == fresh.distances_from(x, within)
            assert SP.nice_witness(sp, prior, exact=True) == SP.nice_witness(fresh, prior, exact=True)
            assert SP.simply_connected_witness(sp) == SP.simply_connected_witness(fresh)
            assert SP.open_pairs(sp, prior) == SP.open_pairs(fresh, prior)
            stale = ColoredSpace.from_json(sp.to_json())
            stale._parts = {
                intervals[t]: list(kept_parts[m]) for t, m in old_masks.items() if m in kept_parts
            }
            for region in [prior, *(_random_region(regions_rng, sp) for _ in range(3))]:
                fresh._parts.clear()
                witness = SP.nice_witness(sp, region)
                assert witness == SP.nice_witness(fresh, region), region
                assert witness == brute.brute_nice_witness(sp, region), region
                stale_wrong += SP.nice_witness(stale, region) != witness
    assert carried > 100, carried
    assert carried_parts > 15, carried_parts
    assert stale_wrong > 5, stale_wrong


def test_interval_components_are_filled_once_per_space(monkeypatch):
    """Non-exact niceness floods each level interval of two levels or more
    once per space: a first query on every vertex fills the components of
    every such interval, and a second query on another region floods only
    inside that region, at those intervals, and fills nothing.  No query
    floods a single-level interval."""
    floods = []
    component = ColoredSpace._component

    def counted(self, x, within):
        floods.append(within)
        return component(self, x, within)

    monkeypatch.setattr(ColoredSpace, "_component", counted)
    rng = random.Random(48)
    second = 0
    for _ in range(30):
        sp = ColoredSpace.from_script(random_script(rng, 4, max_ops=12))
        intervals = sp._interval_masks()
        multi = {m for (lo, hi), m in intervals.items() if lo < hi}
        single = {m for (lo, hi), m in intervals.items() if lo == hi}
        floods.clear()
        assert SP.is_nice(sp, set(sp.vertices))
        assert set(floods) <= multi and not set(floods) & single
        filled = {m: list(parts) for m, parts in sp._parts.items()}
        assert set(filled) == multi
        for _ in range(3):
            region = _random_region(rng, sp)
            inside = SP._mask_of(region)
            floods.clear()
            SP.is_nice(sp, region)
            assert set(floods) <= {inside & m for m in multi}, region
            assert sp._parts == filled
            second += len(floods)
    assert second > 100, second


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
