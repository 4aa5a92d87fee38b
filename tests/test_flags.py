import copy
import itertools
import pickle
import random

import pytest

import brute
import pseudospace.flags as FL
import pseudospace.space as SP
import pseudospace.words as W
from pseudospace import kernels
from pseudospace.errors import (
    DifferenceMismatchError,
    FlagNotInSetError,
    NoFlagError,
    NotAPermutationError,
    NotReducedError,
    ParseError,
    PreconditionError,
)
from pseudospace.flags import Flag
from pseudospace.letters import Letter, all_letters
from pseudospace.oracle import _applicable_ops, _reversed_copy, random_script
from pseudospace.space import BOTTOM, TOP, ColoredSpace
from pseudospace.words import parse_word


@pytest.fixture
def alpha1_space():
    sp = ColoredSpace(2)
    a = sp.apply_alpha(Letter(0, 2))
    b1 = sp.apply_alpha(Letter(1, 1), a[0], a[2])[0]
    return sp, Flag(tuple(a)), Flag((a[0], b1, a[2]))


def test_enumerate_flags(alpha1_space):
    sp, F, G = alpha1_space
    assert FL.enumerate_flags(sp) == [F, G]
    assert FL.enumerate_flags(sp, within=set(F.vertices)) == [F]
    assert FL.enumerate_flags(ColoredSpace(2)) == []


def test_enumerate_flags_matches_plain_search():
    """On built and hand-made spaces, the flags of the whole space and of
    random regions, given with ids that are no vertices, come in
    vertex-tuple order and equal those a plain DFS finds."""
    several = 0
    for rng, sp in brute.random_spaces(49, 200):
        everything = set(sp.vertices)
        assert FL.enumerate_flags(sp) == sorted(brute._region_flags(sp, everything))
        for _ in range(5):
            region = {v for v in everything if rng.random() < 0.7}
            strays = {-1, len(everything), len(everything) + rng.randint(1, 5)}
            flags = FL.enumerate_flags(sp, within=region | strays)
            assert flags == sorted(brute._region_flags(sp, region)), region
            several += len(flags) > 1
    assert several > 500, several


def test_weak_word(alpha1_space):
    sp, F, G = alpha1_space
    assert str(FL.weak_word(sp, F, F)) == "1"
    assert str(FL.weak_word(sp, F, G)) == "[1]"


def test_weak_word_interval_decomposition():
    sp = ColoredSpace(3)
    a = sp.apply_alpha(Letter(0, 3))
    b0 = sp.apply_alpha(Letter(0, 0), BOTTOM, a[1])[0]
    b2, b3 = sp.apply_alpha(Letter(2, 3), a[1], TOP)
    F = Flag(tuple(a))
    # differ at levels {0,2,3}
    G = Flag((b0, a[1], b2, b3))
    assert str(FL.weak_word(sp, F, G)) == "[0].[2,3]"


def test_is_global_step(alpha1_space):
    sp, F, G = alpha1_space
    assert FL.is_global_step(sp, F, G, Letter(1, 1))
    with pytest.raises(DifferenceMismatchError):
        FL.is_global_step(sp, F, F, Letter(1, 1))
    with pytest.raises(DifferenceMismatchError):
        FL.is_global_step(sp, F, G, Letter(0, 1))


def test_non_global_step_detected():
    # change a flag at [0,1] via two singleton operations: the combined
    # weak step has a connecting path inside the between-subgraph
    sp = ColoredSpace(2)
    a = sp.apply_alpha(Letter(0, 2))
    b0 = sp.apply_alpha(Letter(0, 0), BOTTOM, a[1])[0]
    b1 = sp.apply_alpha(Letter(1, 1), b0, a[2])[0]
    F = Flag(tuple(a))
    H = Flag((b0, b1, a[2]))
    assert not FL.is_global_step(sp, F, H, Letter(0, 1))
    # a fresh pair hung on the same top vertex stays global
    fresh = sp.apply_alpha(Letter(0, 1), BOTTOM, a[2])
    assert FL.is_global_step(sp, F, Flag((*fresh, a[2])), Letter(0, 1))


def test_flag_path_single_step(alpha1_space):
    sp, F, G = alpha1_space
    p = FL.flag_path(sp, F, G)
    assert str(p.word) == "[1]"
    assert not p.stuck and W.is_reduced(p.word)
    assert p.flags == (F, G)


def test_flag_path_trivial(alpha1_space):
    sp, F, G = alpha1_space
    p = FL.flag_path(sp, F, F)
    assert str(p.word) == "1"
    assert p.flags == (F,)


def test_flag_path_independent_flags():
    sp = ColoredSpace(2)
    a = sp.apply_alpha(Letter(0, 2))
    b = sp.apply_alpha(Letter(0, 2))
    p = FL.flag_path(sp, Flag(tuple(a)), Flag(tuple(b)))
    assert str(p.word) == "[0,2]"


def test_flag_path_refines_weak_steps():
    # the [0,1]-step built from two singleton operations splits
    sp = ColoredSpace(2)
    a = sp.apply_alpha(Letter(0, 2))
    b0 = sp.apply_alpha(Letter(0, 0), BOTTOM, a[1])[0]
    b1 = sp.apply_alpha(Letter(1, 1), b0, a[2])[0]
    F = Flag(tuple(a))
    H = Flag((b0, b1, a[2]))
    p = FL.flag_path(sp, F, H)
    assert str(p.word) == "[0].[1]"
    assert p.flags[0] == F and p.flags[-1] == H
    assert not p.stuck and W.is_reduced(p.word)


def test_realize_type_round_trips(alpha1_space):
    sp, F, G = alpha1_space
    for text in ["[1]", "[0,1].[1,2]", "[0,2]", "[2].[0,1]", "1"]:
        u = parse_word(text, 2)
        f = FL.realize_type(sp, F, u)
        assert W.equivalent(FL.flag_path(sp, f, F).word, u)


def test_realize_type_rejects_non_reduced(alpha1_space):
    sp, F, G = alpha1_space
    with pytest.raises(NotReducedError):
        FL.realize_type(sp, F, parse_word("[0].[0,1]", 2))


def test_permute_path():
    sp = ColoredSpace(3)
    a = sp.apply_alpha(Letter(0, 3))
    G = Flag(tuple(a))
    F = FL.realize_type(sp, G, parse_word("[0].[2]", 3))
    p = FL.flag_path(sp, F, G)
    assert str(p.word) == "[0].[2]"
    q = FL.permute_path(sp, p, parse_word("[2].[0]", 3))
    assert str(q.word) == "[2].[0]"
    assert q.flags[0] == F and q.flags[-1] == G
    assert q.flags[1] != p.flags[1]
    # identity permutation
    same = FL.permute_path(sp, p, p.word)
    assert same.flags == p.flags
    with pytest.raises(NotAPermutationError):
        FL.permute_path(sp, p, parse_word("[0].[1]", 3))


def test_basepoint_examples(alpha1_space):
    sp, F, G = alpha1_space
    region = set(F.vertices)
    f = FL.realize_type(sp, F, parse_word("[1,2]", 2))
    bp, u = FL.basepoint(sp, f, region)
    assert bp == F and str(u) == "[1,2]"
    # flag inside the region is its own basepoint
    bp, u = FL.basepoint(sp, F, region)
    assert bp == F and str(u) == "1"
    with pytest.raises(NoFlagError):
        FL.basepoint(sp, F, {F.vertices[0]})


def test_basepoint_tie_breaking(alpha1_space):
    sp, F, G = alpha1_space
    region = set(F.vertices) | set(G.vertices)
    f = FL.realize_type(sp, F, parse_word("[0,2]", 2))
    bp, u = FL.basepoint(sp, f, region)
    # both flags are reached by equivalent words; least id tuple wins
    assert str(u) == "[0,2]"
    assert bp == min([F, G], key=lambda g: g.vertices)


def test_indep_examples(alpha1_space):
    sp, F, G = alpha1_space
    f = FL.realize_type(sp, F, parse_word("[0]", 2))
    h = FL.realize_type(sp, F, parse_word("[2]", 2))
    assert FL.indep(sp, f, F, h)
    assert str(FL.flag_path(sp, f, h).word) == "[0].[2]"
    # a flag forks with itself over anything it is not equal to
    assert not FL.indep(sp, f, F, f)


def test_indep_two_realizations(alpha1_space):
    sp, F, G = alpha1_space
    f1 = FL.realize_type(sp, F, parse_word("[1,2]", 2))
    f2 = FL.realize_type(sp, F, parse_word("[1,2]", 2))
    assert FL.indep(sp, f1, F, f2)


def test_indep_over_set():
    # region holds G and a level-0 neighbor G'; a type realized over G'
    # forks with G because the word via G is strictly larger
    sp = ColoredSpace(2)
    a = sp.apply_alpha(Letter(0, 2))
    G = Flag(tuple(a))
    c0 = sp.apply_alpha(Letter(0, 0), BOTTOM, a[1])[0]
    Gp = Flag((c0, a[1], a[2]))
    region = set(G.vertices) | {c0}
    f = FL.realize_type(sp, Gp, parse_word("[1,2]", 2))
    assert FL.indep_over_set(sp, f, Gp, region)
    assert not FL.indep_over_set(sp, f, G, region)
    assert str(FL.flag_path(sp, f, G).word) == "[1,2].[0]"
    with pytest.raises(FlagNotInSetError):
        FL.indep_over_set(sp, f, f, region)


def test_canonical_base_class(alpha1_space):
    sp, F, G = alpha1_space
    f = FL.realize_type(sp, F, parse_word("[0,1].[1,2]", 2))
    cls = FL.canonical_base(sp, f, set(F.vertices))
    assert cls.modulus == {1, 2}
    assert cls.fixed_vertices() == {0: F.vertices[0]}
    # trivial word: the class pins the whole flag
    cls2 = FL.canonical_base(sp, F, set(F.vertices))
    assert cls2.modulus == frozenset()
    assert cls2.fixed_vertices() == dict(enumerate(F.vertices))


def test_hull_examples(alpha1_space):
    """A flag through the other level-1 vertex adds that vertex to the
    region; a flag inside the region adds nothing."""
    sp, F, G = alpha1_space
    assert FL.hull(sp, set(F), G) == set(F) | set(G)
    assert FL.hull(sp, set(F), F) == set(F)
    assert FL.hull(sp, set(G), F) == set(sp.vertices)
    assert brute.brute_nice_witness(sp, set(sp.vertices)) is None


def test_hull_walks_into_the_region():
    """A flag two steps from the region, one of its vertices joined to the
    region: the hull adds the vertices of both steps of the path to the
    basepoint, and is nice."""
    sp = ColoredSpace(2)
    a = Flag(tuple(sp.apply_alpha(Letter(0, 2))))
    b1 = sp.apply_alpha(Letter(1, 1), a[0], a[2])[0]
    c0 = sp.apply_alpha(Letter(0, 0), BOTTOM, b1)[0]
    got = FL.hull(sp, set(a), Flag((c0, b1, a[2])))
    assert got == set(a) | {b1, c0}
    assert brute.brute_nice_witness(sp, got) is None


def test_hull_refuses_a_region_not_nice_or_without_flag(alpha1_space):
    sp, F, G = alpha1_space
    assert brute.brute_nice_witness(sp, {F[1], G[1]}) is not None
    with pytest.raises(PreconditionError):
        FL.hull(sp, {F[1], G[1]}, F)
    for region in (set(), {F[0], F[1]}):
        with pytest.raises(NoFlagError):
            FL.hull(sp, region, G)


def test_hull_of_a_hull_contains_it():
    """On seeded built spaces, a flag's vertex set hulled with one flag and
    then with another: each hull holds its region and its flag, the second
    holds the first, and both are nice by the per-pair reference.  The
    second hull must grow in some cases."""
    rng = random.Random(33)
    grown = 0
    for _ in range(60):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        g, f, h = (rng.choice(FL.enumerate_flags(sp)) for _ in range(3))
        first = FL.hull(sp, set(g), f)
        second = FL.hull(sp, first, h)
        assert set(g) | set(f) <= first <= second and set(h) <= second, (sp.to_json(), g, f, h)
        for got in (first, second):
            assert brute.brute_nice_witness(sp, got) is None, (sp.to_json(), g, f, h)
        grown += first < second
    assert grown > 10, grown


def test_hull_of_each_flag_with_each_flag_is_nice():
    """On seeded built spaces, each flag's vertex set hulled with each flag
    holds both and is nice by the per-pair reference; a random region that
    is not nice is refused."""
    rng = random.Random(34)
    hulls = refused = 0
    for _ in range(80):
        sp = ColoredSpace.from_script(random_script(rng, 3))
        flags = FL.enumerate_flags(sp)
        for g in flags:
            for f in flags:
                got = FL.hull(sp, set(g), f)
                assert set(g) | set(f) <= got, (sp.to_json(), g, f)
                assert brute.brute_nice_witness(sp, got) is None, (sp.to_json(), g, f)
                hulls += 1
        for _ in range(3):
            region = {v for v in sp.vertices if rng.random() < 0.6}
            if brute.brute_nice_witness(sp, region) is not None:
                with pytest.raises(PreconditionError):
                    FL.hull(sp, region, rng.choice(flags))
                refused += 1
    assert hulls > 2000 and refused > 50, (hulls, refused)


def _hand_made_hulls(seed):
    """Over every ordered pair ``g, f`` of the first 10 flags of each graph
    of ``brute.stuck_spaces(seed, 60)``: the hull of ``g``'s vertex set with
    ``f``, or None when refused, next to the union of ``g`` and the vertices
    of the flag path from ``f`` to ``g``, ``g`` being the region's one flag,
    and the brute-force niceness of the region and of that union."""
    for _, sp in brute.stuck_spaces(seed, 60):
        flags = FL.enumerate_flags(sp)[:10]
        for g, f in itertools.product(flags, flags):
            union = set(g) | FL.flag_path(sp, f, g).vertex_set()
            try:
                got = FL.hull(sp, set(g), f)
            except PreconditionError:
                got = None
            nice = [brute.brute_nice_witness(sp, r) is None for r in (set(g), union)]
            yield got, union, nice


def test_hull_on_hand_made_graphs_is_nice_or_refused(monkeypatch):
    """On hand-made graphs with dead ends, a hull is returned exactly when
    the region and the union with the path to its basepoint are nice by the
    per-pair reference, and is that union; more than 1,000 are returned and
    more than 100 refused, more than 100 of them for a union that is not
    nice.  Positive control: with every graph taken as built, more than 100
    of the hulls returned are not nice."""
    counts = {"returned": 0, "refused": 0, "union not nice": 0}
    for got, union, (region_nice, union_nice) in _hand_made_hulls(0):
        assert got == (union if region_nice and union_nice else None)
        counts["returned" if got is not None else "refused"] += 1
        counts["union not nice"] += region_nice and not union_nice
    assert counts["returned"] > 1000 and counts["refused"] > 100, counts
    assert counts["union not nice"] > 100, counts
    monkeypatch.setattr(FL, "_built", lambda sp: True)
    not_nice = sum(got is not None and not nice[1] for got, _, nice in _hand_made_hulls(0))
    assert not_nice > 100, not_nice


def test_flag_class_semantics(alpha1_space):
    sp, F, G = alpha1_space
    c1 = FL.FlagClass(F, frozenset({1}))
    c2 = FL.FlagClass(G, frozenset({1}))
    assert c1 == c2  # F, G differ only at level 1
    assert hash(c1) == hash(c2)
    assert FL.FlagClass(F, frozenset()) != FL.FlagClass(G, frozenset())
    assert FL.FlagClass(F, frozenset()).refines(c1)
    assert not c1.refines(FL.FlagClass(F, frozenset()))


def test_flag_is_a_tuple_and_a_class_hashes_its_fixed_part(alpha1_space):
    sp, F, G = alpha1_space
    assert isinstance(F, tuple) and not hasattr(F, "__dict__")
    assert F.vertices is F and F == tuple(F)
    assert str(F) == "[" + ",".join(map(str, F)) + "]"
    assert repr(F) == f"Flag(vertices={tuple(F)!r})"
    assert type(F.replace(Letter(1, 1), [G[1]])) is Flag
    for flag, modulus in itertools.product((F, G), map(frozenset, [(), (1,), (0, 2), (0, 1, 2)])):
        cls = FL.FlagClass(flag, modulus)
        fixed = {i: v for i, v in enumerate(flag) if i not in modulus}
        assert cls.fixed_vertices() == fixed
        assert hash(cls) == hash((modulus, tuple(sorted(fixed.items()))))


def test_values_survive_copy_and_pickle(alpha1_space):
    sp, F, G = alpha1_space
    path = FL.flag_path(sp, F, G)
    values = [parse_word("[0,1].[2].[1,2]", 2), path.word, F, FL.FlagClass(F, frozenset({1})), path]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x) and str(y) == str(x)
    assert vars(pickle.loads(pickle.dumps(path.word))) == vars(path.word)


def test_type_rank_examples():
    tr = FL.type_rank(parse_word("[0,2]", 2))
    assert str(tr.u_rank) == "w^2"
    tr = FL.type_rank(parse_word("[0,1].[1,3]", 3))
    assert tr.u_rank is None and str(tr.ord_bound) == "w^2+w"
    tr = FL.type_rank(parse_word("1", 2))
    assert str(tr.u_rank) == "0"


def test_ample_report_values():
    for n in (2, 3):
        assert all(c["pass"] for c in FL.ample_report(n))
    n1 = FL.ample_report(1)
    assert len(n1) == 1 and n1[0]["witness"]["actual"] == [1]


def test_flag_path_merges_absorbed_letters():
    # this configuration drives the path through a letter-absorption merge:
    # the naive weak path word contains a letter swallowed by a neighbor
    sp = ColoredSpace(3)
    sp.apply_alpha(Letter(0, 3))
    sp.apply_alpha(Letter(2, 2), 1, 3)
    sp.apply_alpha(Letter(1, 2), 0, 3)
    sp.apply_alpha(Letter(3, 3), 4)
    sp.apply_alpha(Letter(0, 1), BOTTOM, 4)
    F = Flag((0, 5, 6, 3))
    G = Flag((8, 9, 4, 3))
    p = FL.flag_path(sp, F, G)
    assert str(p.word) == "[1,2].[0,1]"
    assert not p.stuck and W.is_reduced(p.word)
    back = FL.flag_path(sp, G, F)
    assert str(back.word) == "[0,1].[1,2]"
    assert W.equivalent(back.word, W.inverse(p.word))


def test_swap_middle_flag_is_unique():
    # for commuting steps, exactly one flag completes the swapped square
    sp = ColoredSpace(3)
    a = sp.apply_alpha(Letter(0, 3))
    G = Flag(tuple(a))
    F = FL.realize_type(sp, G, parse_word("[0].[2]", 3))
    p = FL.flag_path(sp, F, G)
    q = FL.permute_path(sp, p, parse_word("[2].[0]", 3))
    mid = q.flags[1]
    candidates = [
        x
        for x in FL.enumerate_flags(sp)
        if {i for i in range(4) if F[i] != x[i]} == {2}
        and {i for i in range(4) if x[i] != G[i]} == {0}
    ]
    assert candidates == [mid]


@pytest.mark.parametrize(
    "call",
    [
        lambda sp, bad, ok: FL.flag_path(sp, bad, ok),
        lambda sp, bad, ok: FL.flag_path(sp, ok, bad),
        lambda sp, bad, ok: FL.indep(sp, bad, ok, ok),
        lambda sp, bad, ok: FL.indep(sp, ok, bad, ok),
        lambda sp, bad, ok: FL.indep(sp, ok, ok, bad),
        lambda sp, bad, ok: FL.basepoint(sp, bad, set(ok.vertices)),
        lambda sp, bad, ok: FL.indep_over_set(sp, bad, ok, set(ok.vertices)),
        lambda sp, bad, ok: FL.indep_over_set(sp, ok, bad, set(sp.vertices)),
        lambda sp, bad, ok: FL.canonical_base(sp, bad, set(ok.vertices)),
        lambda sp, bad, ok: FL.is_global_step(sp, bad, ok, Letter(1, 1)),
        lambda sp, bad, ok: FL.is_global_step(sp, ok, bad, Letter(1, 1)),
        lambda sp, bad, ok: FL.weak_word(sp, bad, ok),
        lambda sp, bad, ok: FL.weak_word(sp, ok, bad),
        lambda sp, bad, ok: FL.hull(sp, set(ok.vertices), bad),
    ],
)
def test_public_flag_functions_reject_bad_flags(alpha1_space, call):
    sp, F, G = alpha1_space
    a0, b1, a2 = G.vertices
    other = sp.apply_alpha(Letter(0, 2))
    bad_flags = [
        Flag((a0, b1)),  # wrong length
        Flag((a0, a2, b1)),  # vertices at the wrong levels
        Flag((a0, other[1], a2)),  # a0 and other[1] are not adjacent
    ]
    for bad in bad_flags:
        with pytest.raises(ParseError):
            call(sp, bad, F)


def _stuck_space():
    """Vertex 7 links the level-1 vertices 2 and 3 at level 2 but has no
    level-3 neighbour.  So the step [1,3] from (0, 2, 4, 9) to (1, 3, 6, 8)
    is not global, while its only bridge would need a flag through 7: the
    step is stuck."""
    return ColoredSpace.from_graph(
        3,
        [0, 0, 1, 1, 2, 2, 2, 2, 3, 3],
        [(0, 2), (0, 3), (1, 3), (2, 4), (2, 7), (3, 5), (3, 6), (3, 7), (4, 9), (5, 8), (6, 8)],
    )


def test_stuck_step_is_reported_and_blocks_merging():
    sp = _stuck_space()
    path = FL.flag_path(sp, Flag((0, 2, 4, 9)), Flag((1, 3, 6, 8)))
    assert path.flags == (
        Flag((0, 2, 4, 9)), Flag((0, 3, 5, 8)), Flag((1, 3, 5, 8)), Flag((1, 3, 6, 8))
    )
    assert str(path.word) == "[1,3].[0].[2]"
    assert path.stuck == (0,)
    assert not FL.is_global_step(sp, path.flags[0], path.flags[1], Letter(1, 3))
    # [2] is absorbed by [1,3] across [0]: with a stuck step nothing is merged
    assert not W.is_reduced(path.word)


def _realized_spaces(seed, count):
    """Spaces grown by ``realize_type`` from one base flag."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        sp = ColoredSpace(n)
        made = [Flag(tuple(sp.apply_alpha(Letter(0, n))))]
        for _ in range(rng.randint(1, 5)):
            letters = [rng.choice(all_letters(n)) for _ in range(rng.randint(1, 4))]
            made.append(FL.realize_type(sp, rng.choice(made), W.reduce(W.Word(letters, n))))
        yield sp


def test_flag_path_matches_restart_reference():
    """On each space and on its copy with every vertex id reversed, so that
    every tie broken by id falls the other way."""
    counts = {"merges": 0}
    stuck = 0
    spaces = [sp for _, sp in brute.random_spaces(0, 30)] + list(_realized_spaces(1, 30))
    for sp in spaces:
        flags = FL.enumerate_flags(sp)[:16]
        mirror, mirrored = _reversed_copy(sp, flags)
        for space, chosen in ((sp, flags), (mirror, [mirrored[f] for f in flags])):
            for f in chosen:
                for g in chosen:
                    want = brute.restart_flag_path(space, f, g, counts)
                    got = FL.flag_path(space, f, g)
                    assert got.flags == want.flags, (f, g)
                    assert got.word.key == want.word.key, (f, g)
                    assert got.stuck == want.stuck, (f, g)
                    stuck += len(got.stuck)
    assert counts["merges"] > 0 and stuck > 0, (counts, stuck)


def test_basepoint_matches_brute_minimum():
    """On built spaces and nice regions (hulls and flag-path vertex sets)
    the basepoint and the canonical base are those of the brute-force
    ``preceq``-minimum.  The sweep must see regions with several flags, ties
    at the least rank and unique least-rank words."""
    rng = random.Random(17)
    seen = {"several": 0, "tied": 0, "unique": 0}
    scripted = [sp for _, sp in itertools.islice(brute.random_spaces(18, 40), 40)]
    for sp in scripted + list(_realized_spaces(19, 40)):
        flags = FL.enumerate_flags(sp)
        for _ in range(6):
            g = rng.choice(flags)
            if rng.random() < 0.5:
                region = FL.hull(sp, set(g.vertices), rng.choice(flags))
            else:
                region = set(g.vertices) | FL.flag_path(sp, g, rng.choice(flags)).vertex_set()
            if not SP.is_nice(sp, region):
                continue
            f = rng.choice(flags)
            want, word = brute.brute_basepoint(sp, f, region)
            assert FL.basepoint(sp, f, region) == (want, word), (f, region)
            modulus = brute.brute_left_stabilizer(W.Word(word.letters[::-1], sp.n))
            assert FL.canonical_base(sp, f, region) == FL.FlagClass(want, modulus)
            ranks = [W.ord_rank(FL.flag_path(sp, f, h).word)
                     for h in FL.enumerate_flags(sp, within=region)]
            least = ranks.count(min(ranks))
            seen["several"] += len(ranks) > 1
            seen["tied"] += least > 1
            seen["unique"] += len(ranks) > 1 and least == 1
    assert min(seen.values()) > 20, seen


def _refined_through(sp, f, c, g):
    """The normal-form word key from ``f`` to ``g`` refined from the reduced
    paths from ``f`` to ``c`` and from ``c`` to ``g``, past ``c``; None when
    a step is stuck."""
    a, b = FL.flag_path(sp, f, c), FL.flag_path(sp, c, g)
    flags, keys = [*a.flags, *b.flags[1:]], [*a.word.key, *b.word.key]
    if a.stuck or FL._refine(sp, flags, keys, len(a.word)):
        return None
    return kernels.normal_form(tuple(keys))


def _weak_path_mismatches(spaces, seed):
    """Over 40 random triples ``f, c, g`` of flags of each space: how many
    paths through ``c`` refine with no step stuck, and how many of those give
    another word than the restart reference from ``f`` to ``g``."""
    rng = random.Random(seed)
    checked = mismatched = 0
    for sp in spaces:
        flags = FL.enumerate_flags(sp)
        for _ in range(40 if flags else 0):
            f, c, g = (rng.choice(flags) for _ in range(3))
            key = _refined_through(sp, f, c, g)
            if key is not None:
                checked += 1
                mismatched += key != brute.restart_flag_path(sp, f, g).word.key
    return checked, mismatched


def test_any_weak_path_refines_to_the_same_word(monkeypatch):
    """On built spaces (scripted, and grown by ``realize_type``, N <= 4) the
    path from f through c to g, reduced up to c and refined past it, gives
    the restart reference's word from f to g.  On hand-made graphs, which
    need not be simply connected, it often does not: there ``basepoint`` and
    ``indep`` compute every path from scratch.  Positive control: a
    ``_refine`` that leaves a path in hand unrefined gives other words."""
    built = [sp for _, sp in itertools.islice(brute.random_spaces(50, 30), 30)]
    built += list(_realized_spaces(51, 30))
    hand = [sp for _, sp in itertools.islice(brute.random_spaces(52, 30), 30, 60)]
    assert all(map(FL._built, built)) and not any(map(FL._built, hand))
    checked, mismatched = _weak_path_mismatches(built, 53)
    assert checked > 2000 and mismatched == 0, (checked, mismatched)
    assert _weak_path_mismatches(hand, 54)[1] > 20
    refine = FL._refine

    def unrefined_past_start(sp, flags, keys, start):
        return set() if start else refine(sp, flags, keys, start)

    monkeypatch.setattr(FL, "_refine", unrefined_past_start)
    assert _weak_path_mismatches(built, 53)[1] > 200


def test_indep_matches_the_word_criterion_and_falls_back(monkeypatch):
    """``indep`` equals the word criterion on three restart reference words.
    On built spaces it refines the path through the middle flag and computes
    no third reduced path; on hand-made graphs, stuck steps among them, every
    call computes it from scratch.  Independent and forking triples both
    occur."""
    reduced_path = FL._reduced_path
    calls = []

    def counted(sp, f, g):
        calls.append((f, g))
        return reduced_path(sp, f, g)

    monkeypatch.setattr(FL, "_reduced_path", counted)
    rng = random.Random(55)
    built = [sp for _, sp in itertools.islice(brute.random_spaces(56, 30), 30)]
    built += list(_realized_spaces(57, 30))
    hand = [sp for _, sp in itertools.islice(brute.random_spaces(58, 30), 30, 60)]
    hand.append(_stuck_space())
    seen = {"built": 0, "hand": 0, "stuck": 0, "indep": 0, "fork": 0}
    fallbacks = {"built": 0, "hand": 0}
    for kind, spaces, triples in (("built", built, 20), ("hand", hand, 40)):
        for sp in spaces:
            flags = FL.enumerate_flags(sp)
            for _ in range(triples if flags else 0):
                f, g, h = (rng.choice(flags) for _ in range(3))
                u, v, w = (brute.restart_flag_path(sp, *p) for p in ((f, g), (g, h), (f, h)))
                want = W.equivalent(W.concat_reduce(u.word, v.word), w.word)
                calls.clear()
                assert FL.indep(sp, f, g, h) == want, (f, g, h)
                fallbacks[kind] += len(calls) - 2
                seen[kind] += 1
                seen["stuck"] += bool(u.stuck or v.stuck or w.stuck)
                seen["indep" if want else "fork"] += 1
    assert fallbacks == {"built": 0, "hand": seen["hand"]}, (fallbacks, seen)
    assert min(seen.values()) > 10, seen


def _new_queries(rng, sp, flags):
    """For two flag pairs, the first starting at a flag through the newest
    vertex: the flag paths both ways, and ``is_global_step`` for the step at
    the pair's lowest interval of difference.  Then the hull of one
    flag's vertices with another flag, and the monotone chain between two
    anchors on one flag at least two levels apart, so it is never empty."""
    last = len(sp.vertices) - 1
    newest = [f for f in flags if last in f.vertices]
    out = []
    for first in (rng.choice(newest), rng.choice(flags)):
        f, g = first, rng.choice(flags)
        if f == g:
            continue
        out += [("path", f, g), ("path", g, f)]
        diff = [i for i in range(sp.n + 1) if f[i] != g[i]]
        s = Letter(diff[0], next(i for i in diff if i + 1 not in diff))
        out.append(("global", f, f.replace(s, g.levels_of(s)), s))
    out.append(("hull", rng.choice(flags), rng.choice(flags)))
    anchors = [BOTTOM, *rng.choice(flags), TOP]
    i = rng.randrange(len(anchors) - 2)
    j = rng.randrange(i + 2, len(anchors))
    out.append(("chain", anchors[i], anchors[j]))
    return out


def _answer(sp, query):
    kind, *args = query
    if kind == "path":
        path = FL.flag_path(sp, *args)
        return path.flags, path.word.key, path.stuck
    if kind == "global":
        return FL.is_global_step(sp, *args)
    if kind == "chain":
        return SP._monotone_chain(sp, *args)
    g, f = args
    return frozenset(FL.hull(sp, set(g.vertices), f))


def _stale_answer(sp, query):
    try:
        return _answer(sp, query)
    except PreconditionError as exc:  # a stale component may need a chain that is not there
        return exc


def test_memo_answers_match_a_fresh_copy_after_every_insert(monkeypatch):
    """Spaces grow by interleaved ``apply_alpha`` and ``realize_type``.
    After each insert every query asked so far is asked again of the grown
    space, whose component and chain memos are warm from the queries
    before, and of a fresh copy from its export: the answers must agree.
    More than 2,000 between-set components and more than 300 chains found
    before an insert must be read back after it from the same memo entry,
    so a memo that an insert had to clear would show; the grown space drops
    its component lookup ``_anchor_parts``, which every insert clears,
    before each query, so that a query asked again reaches ``_parts``.
    Positive controls: a third copy is given the between-set components of
    the third copy before the insert (of the grown space at the first
    insert), each carried to the grown between-set of the same anchor pair,
    as a memo keyed by anchor pair would carry them if no insert cleared it;
    more than five of its answers must differ.  A fourth copy is given the
    fourth copy's ``_anchor_parts`` from before the insert (the grown
    space's at the first insert), as a lookup that no insert clears would
    have it; more than 20 of its answers must differ."""
    part = ColoredSpace._part
    # between mask -> its list of components in the memo before the insert, and its length then
    kept_parts: dict[int, tuple[list[int], int]] = {}
    read_back = 0

    def counted(self, within, x):
        nonlocal read_back
        if self is sp and within in kept_parts:
            parts, found = kept_parts[within]
            read_back += self._parts.get(within) is parts and any(p >> x & 1 for p in parts[:found])
        return part(self, within, x)

    monkeypatch.setattr(ColoredSpace, "_part", counted)
    rng = random.Random(38)
    chains_read = stale_differs = lookup_differs = 0
    for _ in range(16):
        n = rng.randint(2, 4)
        sp = ColoredSpace(n)
        sp.apply_alpha(Letter(0, n))
        queries, stale, lookup = [], sp, sp
        for _ in range(8):
            anchors = [BOTTOM, *sp.vertices, TOP]
            between = {(a, b): sp._between(a, b) for a in anchors for b in anchors}
            masks = set(between.values()) & sp._parts.keys()
            kept_parts = {m: (sp._parts[m], len(sp._parts[m])) for m in masks}
            carried = {pair: list(stale._parts.get(m, ())) for pair, m in between.items()}
            kept_chains = dict(sp._chains)
            carried_lookup = dict(lookup._anchor_parts)
            flags = FL.enumerate_flags(sp)
            if rng.random() < 0.5:
                letters = [rng.choice(all_letters(n)) for _ in range(rng.randint(1, 3))]
                FL.realize_type(sp, rng.choice(flags), W.reduce(W.Word(letters, n)))
            else:
                sp.apply_alpha(*rng.choice(_applicable_ops(sp)))
            fresh = ColoredSpace.from_json(sp.to_json())
            stale = ColoredSpace.from_json(sp.to_json())
            stale._parts = {stale._between(*ab): parts for ab, parts in carried.items() if parts}
            lookup = ColoredSpace.from_json(sp.to_json())
            lookup._anchor_parts = carried_lookup
            queries += _new_queries(rng, sp, FL.enumerate_flags(sp))
            for query in queries:
                sp._anchor_parts.clear()
                got = _answer(sp, query)
                assert got == _answer(fresh, query), query
                chains_read += query[0] == "chain" and got is kept_chains.get(tuple(query[1:]))
                stale_differs += _stale_answer(stale, query) != got
                lookup_differs += _stale_answer(lookup, query) != got
    assert read_back > 2000 and chains_read > 300 and stale_differs > 5 and lookup_differs > 20, (
        read_back, chains_read, stale_differs, lookup_differs
    )


def test_an_insert_clears_the_component_lookup():
    """A step of the flag a0..a4 at levels 1..3 is asked, which fills the
    component lookup for its anchors a0, a4 and vertex a1.  Two inserts then
    hang a chain e1-e2-e3 on a0, a3 and a4, which joins a1's component
    inside the grown between-set: the step to (a0, e1, e2, e3, a4) is not
    global, and its path is a fresh copy's.  A lookup kept across the
    inserts would miss every e and take the step for global."""
    sp = ColoredSpace(4)
    a = sp.apply_alpha(Letter(0, 4))
    b = sp.apply_alpha(Letter(1, 3), a[0], a[4])
    f = Flag(a)
    assert FL.is_global_step(sp, f, Flag((a[0], *b, a[4])), Letter(1, 3))
    e = sp.apply_alpha(Letter(1, 2), a[0], a[3])
    e += sp.apply_alpha(Letter(3, 3), e[1], a[4])
    h = Flag((a[0], *e, a[4]))
    assert not FL.is_global_step(sp, f, h, Letter(1, 3))
    got = FL.flag_path(sp, f, h)
    assert got == FL.flag_path(ColoredSpace.from_json(sp.to_json()), f, h)
    assert len(got.word) > 1


def test_insert_over_a_dead_end_unsticks_a_step():
    """A chain hung over the dead end 7 of the stuck space gives the stuck
    step its bridge.  The space whose memos saw the step stuck must then
    answer like a fresh copy grown the same way: no step stuck."""
    f, g = Flag((0, 2, 4, 9)), Flag((1, 3, 6, 8))
    sp, fresh = _stuck_space(), _stuck_space()
    assert FL.flag_path(sp, f, g).stuck == (0,)
    assert sp._chains and sp._parts
    for space in (sp, fresh):
        space.apply_alpha(Letter(3, 3), 7, TOP)
    got = FL.flag_path(sp, f, g)
    assert got == FL.flag_path(fresh, f, g)
    assert got.stuck == () and W.is_reduced(got.word)


def _warm_and_fresh_paths(seed):
    """Over every ordered pair of the first 20 flags of each graph of
    ``brute.stuck_spaces(seed, 100)``: the stuck steps of the paths asked
    of the graph, whose memos are warm from the pairs before, and the number
    of paths that differ from those of a fresh ``from_graph`` copy."""
    stuck = differ = 0
    for _, sp in brute.stuck_spaces(seed, 100):
        levels, edges = [sp.level(v) for v in sp.vertices], sp.edges()
        flags = FL.enumerate_flags(sp)[:20]
        for f in flags:
            for g in flags:
                got = FL.flag_path(sp, f, g)
                differ += got != FL.flag_path(ColoredSpace.from_graph(sp.n, levels, edges), f, g)
                stuck += len(got.stuck)
    return stuck, differ


def test_warm_memos_answer_stuck_paths_like_a_fresh_copy(monkeypatch):
    """On hand-made graphs with dead ends, a space's memos, warm from the
    flag paths asked before, give each flag path the flags, word and stuck
    steps of a fresh copy; more than 400 stuck steps occur.  Positive
    control: a component lookup keyed by the anchors alone, not by the
    vertex too, gives other paths."""
    stuck, differ = _warm_and_fresh_paths(0)
    assert stuck > 400 and differ == 0, (stuck, differ)

    def by_anchors(self, a, b, x):  # no graph here grows
        parts = self._anchor_parts
        if (a, b) not in parts:
            parts[a, b] = self._part(self._between(a, b), x)
        return parts[a, b]

    monkeypatch.setattr(ColoredSpace, "_anchor_part", by_anchors)
    assert _warm_and_fresh_paths(0)[1] > 10
