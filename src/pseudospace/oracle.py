"""Randomized and exhaustive law checking for every module.

Each suite checks the laws of one area against brute-force evidence:
independently randomized reduction strategies, swap-closure enumerations,
exhaustive small-domain scans and constructed model configurations.  Suites
are deterministic given their configuration; bounded-only checks (triangle,
strong-reduct enumeration) are labeled "sampled/bounded" in the report
notes.

A suite opens one case per case it counts, with ``report.case(**inputs)``:
the inputs are what the suite drew for the case (a script, or a dimension
and words), and the ``fail(law, observed=None)`` it returns records each
failure of the case as the law, the inputs (words and flags as text) and
what the law observed.  Three ``words-absorption`` laws count no case and
call ``report.record`` directly.  A case whose checks draw more from the
suite's random stream (``words-confluence`` reduces and shuffles at random,
``flags-paths`` and ``flags-forking`` sample flags) can be re-checked only
within its seed's run; every other case from its inputs alone.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass, field

from . import flags as FL
from . import kernels
from . import space as SP
from . import words as W
from .errors import SearchBoundExceededError, UnknownSuiteError
from .letters import Letter, all_letters, commutes, index_set_to_letters, parse_letter
from .space import BOTTOM, TOP, ColoredSpace
from .words import Word

WORD_LEN_MAX = 8  # longest random word a word suite draws
SPLIT_LEN_MAX = 3  # split length bound of the strong-reduct searches


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 0
    cases: int = 1000
    n_max: int = 3

    def __post_init__(self):
        if self.cases < 1 or self.n_max < 1:
            raise ValueError("all suite bounds must be >= 1")


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cases_run: int
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def case(self, **inputs):
        """Count one case; return ``fail(law, observed=None)``, which records
        a failure of ``law`` on these inputs."""
        self.cases_run += 1
        return functools.partial(self.record, inputs)

    def record(self, inputs: dict, law: str, observed=None) -> None:
        """Record a failure of ``law``: ints and scripts in ``inputs`` stay as
        they are, and words and flags become text."""
        text = {k: v if isinstance(v, (int, dict)) else str(v) for k, v in inputs.items()}
        self.failures.append({"law": law, "inputs": text, "observed": observed})

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases_run": self.cases_run,
            "pass": self.passed,
            "failures": self.failures,
            "notes": self.notes,
            "elapsed": round(self.elapsed, 3),
        }


def run_suite(config: SuiteConfig) -> SuiteReport:
    try:
        fn = _SUITES[config.suite]
    except KeyError:
        raise UnknownSuiteError(f"unknown suite {config.suite!r}; choose from {SUITE_NAMES}")
    report = SuiteReport(config.suite, config.seed, 0)
    started = time.monotonic()
    fn(config, report)
    report.elapsed = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# generators


def random_word(rng: random.Random, n: int, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    alphabet = all_letters(n)
    return Word(tuple(rng.choice(alphabet) for _ in range(length)), n)


def random_reduced_word(rng: random.Random, n: int, max_len: int) -> Word:
    return W.reduce(random_word(rng, n, max_len))


def random_dimension(rng: random.Random, n_max: int) -> int:
    return rng.randint(1, n_max)


def random_script(rng: random.Random, n_max: int, max_ops: int = 8) -> dict:
    """A random build script; anchors drawn uniformly among valid pairs."""
    n = random_dimension(rng, n_max)
    space = ColoredSpace(n)
    ops = []
    for _ in range(rng.randint(1, max_ops)):
        choices = _applicable_ops(space)
        if not choices:
            break
        letter, lo, hi = rng.choice(choices)
        space.apply_alpha(letter, lo, hi)
        ops.append({"letter": str(letter), "lo": lo, "hi": hi})
    return {"n": n, "ops": ops}


def _applicable_ops(space: ColoredSpace):
    out = []
    for letter in all_letters(space.n):
        los = [BOTTOM] if letter.lo == 0 else [
            v for v in space.vertices if space.level(v) == letter.lo - 1
        ]
        his = [TOP] if letter.hi == space.n else [
            v for v in space.vertices if space.level(v) == letter.hi + 1
        ]
        for lo in los:
            up = space._closure(lo, +1)
            out.extend((letter, lo, hi) for hi in his if hi == TOP or up >> hi & 1)
    return out


def random_strategy_reduce(rng: random.Random, u: Word) -> Word:
    """Maximal cancellation with randomly chosen deletions and interleaved
    random commutations; independent of the deterministic reducer."""
    key = list(u.key)
    while True:
        _random_swaps(rng, key, rng.randint(0, 4))
        absorbed = kernels.absorbed(key)
        candidates = [i for i in range(len(key)) if absorbed >> i & 1]
        if not candidates:
            return W.normal_form(W._from_key(tuple(key), u.n))
        del key[rng.choice(candidates)]


# ---------------------------------------------------------------------------
# word suites


def _suite_words_confluence(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    for _ in range(config.cases):
        n = random_dimension(rng, config.n_max)
        u = random_word(rng, n, WORD_LEN_MAX)
        fail = report.case(n=n, u=u)
        r1 = random_strategy_reduce(rng, u)
        r2 = random_strategy_reduce(rng, u)
        det = W.reduce(u)
        if not (r1 == r2 == det):
            fail("reduct-uniqueness", {"r1": str(r1), "r2": str(r2), "det": str(det)})
        if not W.is_reduced(det):
            fail("reduce-is-reduced", str(det))
        nf = W.normal_form(u)
        if W.normal_form(nf) != nf:
            fail("normal-form-idempotent", str(nf))
        if not W.equivalent(u, nf):
            fail("normal-form-equivalent", str(nf))
        shuffled = W._from_key(tuple(_random_swaps(rng, list(u.key), 3 * len(u))), n)
        if W.normal_form(shuffled) != nf:
            fail("normal-form-class-invariant",
                 {"perm": str(shuffled), "nf": str(W.normal_form(shuffled))})
        if W.parse_word(str(u), n) != u:
            fail("parse-print-roundtrip")


def _random_swaps(rng: random.Random, key: list, rounds: int) -> list:
    """Draw ``rounds`` random adjacent positions of ``key`` (none when it has
    fewer than two letters) and swap each pair that commutes, in place."""
    if len(key) >= 2:
        for _ in range(rounds):
            i = rng.randrange(len(key) - 1)
            if kernels._commutes(key[i], key[i + 1]):
                key[i], key[i + 1] = key[i + 1], key[i]
    return key


def _enumerate_words(n: int, max_len: int):
    alphabet = all_letters(n)
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield Word(combo, n)


def _suite_words_absorption(config: SuiteConfig, report: SuiteReport) -> None:
    # exhaustive on N <= 2, length <= 3, regardless of `cases`
    report.notes.append("exhaustive: N <= 2, word length <= 3")
    for n in (1, 2):
        reduced = [u for u in _enumerate_words(n, 3) if W.is_reduced(u)]
        for u in reduced:
            for v in reduced:
                fail = report.case(n=n, u=u, v=v)
                lhs = W.equivalent(W.concat_reduce(u, v), v)
                rhs = W.absorbs_left(v, u)
                if lhs != rhs:
                    fail("absorption-law", {"uv=v": lhs, "absorbs": rhs})
                w = W.concat_reduce(u, v)
                if not W.right_stabilizer(v) <= W.right_stabilizer(w):
                    fail("sr-monotone", {"sr(v)": sorted(W.right_stabilizer(v)),
                                         "sr(w)": sorted(W.right_stabilizer(w))})
                if W.is_reduced(u.concat(v)):
                    wob = W.wobbling(u, v)
                    for s in index_set_to_letters(wob):
                        if not (W.properly_absorbs_right(u, Word((s,), n))
                                and W.properly_absorbs_left(v, Word((s,), n))):
                            fail("wobbling-proper", str(s))
        for u in reduced:
            commuting = all(
                commutes(a, b) for a, b in itertools.combinations(u.letters, 2)
            )
            if W.absorbs_left(u, u) != commuting:
                report.record({"n": n, "u": u}, "commuting-idempotent",
                              {"absorbs-self": W.absorbs_left(u, u), "commuting": commuting})
        # absorption witnesses are unique; non-commuting absorbed letters share
        # one; these laws and the one above count no case
        for v in _enumerate_words(n, 3):
            absorbed = []
            letters = v.letters
            for s in all_letters(n):
                witnesses = [
                    j for j, t in enumerate(letters)
                    if (t.lo <= s.lo and s.hi <= t.hi
                        and all(commutes(s, r) for r in letters[:j]))
                ]
                if witnesses:
                    absorbed.append((s, witnesses[0]))
                if len(witnesses) > 1:
                    report.record({"n": n, "v": v, "s": s}, "absorption-witness-unique",
                                  witnesses)
            for (s, js), (t, jt) in itertools.combinations(absorbed, 2):
                if not commutes(s, t) and js != jt:
                    report.record({"n": n, "v": v, "s": s, "t": t}, "absorption-shared-witness",
                                  [js, jt])


def check_fine_decomposition(u: Word, v: Word) -> list[str]:
    """All stated conditions of the fine and symmetric decompositions."""
    bad = []
    d = W.decompose_fine(u, v)
    if not W.equivalent(u, d.u1.concat(d.u_prime)):
        bad.append("u != u1.u'")
    if not W.equivalent(v, d.v_prime.concat(d.v1)):
        bad.append("v != v'.v1")
    if not W.absorbs_left(d.v1, d.u_prime):
        bad.append("u' not left-absorbed by v1")
    if not W.properly_absorbs_right(d.u1, d.v_prime):
        bad.append("v' not properly right-absorbed by u1")
    if not all(commutes(a, b) for a in d.u_prime.letters for b in d.v_prime.letters):
        bad.append("u', v' do not commute")
    if not W.is_reduced(d.u1.concat(d.v1)):
        bad.append("u1.v1 not reduced")
    if not W.equivalent(W.concat_reduce(u, v), d.u1.concat(d.v1)):
        bad.append("reduct != u1.v1")
    s = W.decompose_symmetric(u, v)
    w = s.w
    if not W.equivalent(u, s.u1.concat(s.u_prime).concat(w)):
        bad.append("u != u1.u'.w")
    if not W.equivalent(v, w.concat(s.v_prime).concat(s.v1)):
        bad.append("v != w.v'.v1")
    if not W.properly_absorbs_left(s.v1, s.u_prime):
        bad.append("u' not properly left-absorbed by v1 (symmetric)")
    if not W.properly_absorbs_right(s.u1, s.v_prime):
        bad.append("v' not properly right-absorbed by u1 (symmetric)")
    parts = [s.u_prime.letters, w.letters, s.v_prime.letters]
    for p1, p2 in itertools.combinations(range(3), 2):
        if not all(commutes(a, b) for a in parts[p1] for b in parts[p2]):
            bad.append("u', w, v' do not pairwise commute")
            break
    if not all(commutes(a, b) for a, b in itertools.combinations(w.letters, 2)):
        bad.append("w not a commuting word")
    mid = s.u1.concat(w).concat(s.v1)
    if not W.is_reduced(mid):
        bad.append("u1.w.v1 not reduced")
    if not W.equivalent(W.concat_reduce(u, v), mid):
        bad.append("reduct != u1.w.v1")
    return bad


def _suite_words_decomposition(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    for _ in range(config.cases):
        n = random_dimension(rng, config.n_max)
        u = random_reduced_word(rng, n, WORD_LEN_MAX)
        v = random_reduced_word(rng, n, WORD_LEN_MAX)
        fail = report.case(n=n, u=u, v=v)
        bad = check_fine_decomposition(u, v)
        if bad:
            fail("decomposition", bad)


def _suite_words_strong(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    report.notes.append("sampled/bounded: strong-reduct enumeration is budgeted")
    skipped = 0  # reducts whose prec search passed its state budget
    for _ in range(config.cases):
        n = random_dimension(rng, config.n_max)
        u = random_reduced_word(rng, n, 3)
        v = random_reduced_word(rng, n, 3)
        fail = report.case(n=n, u=u, v=v)
        plain = W.concat_reduce(u, v)
        result = W.strong_reducts_bounded(u.concat(v), SPLIT_LEN_MAX, 50_000)
        for x in sorted(result.words, key=str):
            if W.equivalent(x, plain):
                continue
            try:
                ok = W.prec(x, plain)
            except SearchBoundExceededError:
                skipped += 1
                continue
            if not ok:
                fail("splitting-penalty", {"reduct": str(x), "plain": str(plain)})
        # inverse cancellation
        inv = W.strong_reducts_bounded(u.concat(W.inverse(u)), SPLIT_LEN_MAX, 50_000)
        if Word.one(n) not in inv.words and not inv.exhausted:
            fail("inverse-cancellation", inv.as_strings())
        if Word.one(n) in result.words:
            if not W.equivalent(v, W.inverse(u)):
                fail("inverse-uniqueness")
        # triangle, widened by one splitting width
        tri = W.strong_reducts_bounded(u.concat(v), SPLIT_LEN_MAX, 20_000)
        for r in sorted(tri.words, key=str)[:3]:
            c = W.inverse(r)
            back = W.strong_reducts_bounded(c.concat(u), SPLIT_LEN_MAX + 1, 50_000)
            if W.normal_form(W.inverse(v)) not in {
                W.normal_form(x) for x in back.words
            } and not back.exhausted:
                fail("triangle", {"c": str(c), "back": back.as_strings()})
    if skipped:
        report.notes.append(f"sampled/bounded: {skipped} reducts unchecked, "
                            "their prec search over its state budget")


def _suite_words_order(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    pairs = random.Random(config.seed + 1)  # the random division pairs
    for _ in range(config.cases):
        n = random_dimension(rng, config.n_max)
        u = random_reduced_word(rng, n, 4)
        v = random_reduced_word(rng, n, 4)
        w = random_reduced_word(rng, n, 3)
        v2 = random_reduced_word(rng, n, 4)
        pair_n = random_dimension(pairs, config.n_max)
        pair_u = random_reduced_word(pairs, pair_n, 4)
        pair_v = random_reduced_word(pairs, pair_n, 4)
        fail = report.case(n=n, u=u, v=v, w=w, v2=v2,
                           pair_n=pair_n, pair_u=pair_u, pair_v=pair_v)
        if W.prec(u, v):
            if not W.ord_rank(u) < W.ord_rank(v):
                fail("prec-implies-ord",
                     {"ord(u)": str(W.ord_rank(u)), "ord(v)": str(W.ord_rank(v))})
            # compatibility with the product
            left_u = W.concat_reduce(w, u)
            left_v = W.concat_reduce(w, v)
            if not W.preceq(left_u, left_v):
                fail("prec-product-compatible", {"wu": str(left_u), "wv": str(left_v)})
        # cancellation order: w.v reduced and w.v <= w.v2 implies v <= v2
        wv = w.concat(v)
        if W.is_reduced(wv):
            if W.preceq(wv, w.concat(v2)) and not W.preceq(v, v2):
                fail("cancellation-order")
        # left division: u divides reduce(u.w), and the least witness has
        # no more letters than reduce(w)
        prod = W.concat_reduce(u, w)
        res = W.divides_left_bounded(u, prod)
        if (res.witness is None
                or not W.equivalent(W.concat_reduce(u, res.witness), prod)
                or len(res.witness) > len(W.reduce(w))):
            fail("divides-own-product", str(prod))
        if not W.preceq(u, prod):
            fail("u-below-uv", str(prod))
        # left division of the random pair, which need not divide: a witness
        # must divide, and a None at N <= 2, |v| <= 3 is checked against all
        # words of at most len(v) letters, among which the least witness lies
        witness = W.divides_left_bounded(pair_u, pair_v).witness
        if witness is not None:
            ok = W.equivalent(W.concat_reduce(pair_u, witness), pair_v)
        else:
            ok = pair_n > 2 or len(pair_v) > 3 or not any(
                W.equivalent(W.concat_reduce(pair_u, x), pair_v)
                for x in _enumerate_words(pair_n, len(pair_v))
            )
        if not ok:
            fail("divides-random-pair", str(witness))


# ---------------------------------------------------------------------------
# space and flag suites


def _suite_space_axioms(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    for _ in range(config.cases):
        script = random_script(rng, config.n_max)
        _check_one_space(report.case(script=script), script)


def _check_one_space(fail, script: dict) -> None:
    space = ColoredSpace(script["n"])
    distances = _all_distances(space)
    for op in script["ops"]:
        before_vertices = list(space.vertices)
        space.apply_alpha(parse_letter(op["letter"]), op["lo"], op["hi"])
        after = _all_distances(space)
        for (x, y, t), d in distances.items():
            if after[(x, y, t)] != d:
                fail("distance-stability", {"x": x, "y": y, "t": t})
        distances = after
        if before_vertices and (prior := SP.nice_witness(space, set(before_vertices), exact=True)):
            fail("prior-set-wunderbar", prior)
    witness = SP.simply_connected_witness(space)
    if witness is not None:
        fail("simply-connected", repr(witness))
    if not SP.is_complete(space):
        fail("complete")
    intervals = space._interval_masks()
    for level in range(space.n):
        if not _is_forest(space, intervals[(level, level + 1)]):
            fail("adjacent-level-forest", level)
    # amalgam on the first two ops applicable after the script's first op
    if script["ops"]:
        base = ColoredSpace(script["n"])
        op1 = script["ops"][0]
        base.apply_alpha(parse_letter(op1["letter"]), op1["lo"], op1["hi"])
        pair = _applicable_ops(base)
        if len(pair) >= 2:
            o1, o2 = pair[0], pair[1]
            if not SP.amalgam_isomorphic(
                base, SP.BuildOp(o1[0], o1[1], o1[2], ()), SP.BuildOp(o2[0], o2[1], o2[2], ())
            ):
                fail("amalgam")


def _all_distances(space: ColoredSpace) -> dict:
    """``(x, y, (lo, hi)) -> distance`` for every pair ``x < y`` of vertices at
    the levels of every interval."""
    out = {}
    for t, levels in space._interval_masks().items():
        pts = SP._members(levels)
        for x in pts:
            dist = space.distances_from(x, levels)
            for y in pts:
                if y > x:
                    out[(x, y, t)] = dist.get(y, SP.INF)
    return out


def _is_forest(space: ColoredSpace, levels: int) -> bool:
    """Whether the subgraph induced on the ``levels`` mask has no cycle."""
    pts = SP._members(levels)
    edges = sum(1 for v in pts for w in space.neighbors(v) if w > v and levels >> w & 1)
    components = 0
    rest = levels
    while rest:
        components += 1
        rest &= ~space._component(SP._lowest(rest), levels)
    return edges == len(pts) - components


def _suite_flags_paths(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    report.notes.append("flag enumeration capped at 24 flags per space")
    for _ in range(config.cases):
        script = random_script(rng, config.n_max)
        fail = report.case(script=script)
        space = ColoredSpace.from_script(script)
        every_flag = FL.enumerate_flags(space)
        all_flags = every_flag[:24]
        ends = None  # the path from the first flag to the last
        scaffolds: dict = {}
        mirror, mirrored = _reversed_copy(space, all_flags)
        for f in all_flags:
            for g in all_flags:
                path = FL.flag_path(space, f, g)
                if f is all_flags[0] and g is all_flags[-1]:
                    ends = path
                if path.stuck:
                    fail("path-stuck-on-built-space", {"f": str(f), "g": str(g)})
                if not W.is_reduced(path.word):
                    fail("path-word-reduced", {"f": str(f), "g": str(g), "word": str(path.word)})
                if f == g and len(path.word) > 0:
                    fail("closed-path-trivial", str(f))
                if f != g and len(path.word) == 0:
                    fail("distinct-flags-nontrivial-word", {"f": str(f), "g": str(g)})
                alt = FL.flag_path(mirror, mirrored[f], mirrored[g])
                if not W.equivalent(alt.word, path.word):
                    fail("path-word-invariance",
                         {"f": str(f), "g": str(g), "w1": str(path.word), "w2": str(alt.word)})
                _check_scaffold(fail, space, path, scaffolds)
        # flags inside a path's vertex set occur in some permutation of it
        if len(all_flags) >= 2:
            _check_flags_in_path(fail, space, ends)
            _check_wobbling(fail, space, ends, every_flag)
        _check_nice_characterization(fail, space, all_flags, rng)


def _reversed_copy(space: ColoredSpace, flags) -> tuple[ColoredSpace, dict]:
    """The space with each of its ``V`` vertices ``v`` renamed ``V - 1 - v``,
    so every tie broken by id falls the other way, and each flag's image."""
    top = len(space.vertices) - 1
    copy = ColoredSpace.from_graph(space.n, [space.level(top - v) for v in range(top + 1)],
                                   [(top - v, top - w) for v, w in space.edges()])
    return copy, {f: FL.Flag(tuple(top - v for v in f.vertices)) for f in flags}


def _check_scaffold(fail, space, path, scaffolds: dict) -> None:
    """The path's vertex set is nice, with the open pairs its final segment
    gives.  ``scaffolds`` maps each vertex set already checked in ``space`` to
    its open pairs, or to None when it is not nice: the paths f to g and g to f
    share one."""
    if len(path.word) == 0:
        return
    vertex_set = frozenset(path.vertex_set())
    if vertex_set not in scaffolds:
        nice = SP.nice_witness(space, vertex_set) is None
        scaffolds[vertex_set] = SP.open_pairs(space, vertex_set) if nice else None
    pairs = scaffolds[vertex_set]
    if pairs is None:
        fail("scaffold-nice", sorted(vertex_set))
        return
    last = path.flags[-1]
    _, segment = W.final_segment(path.word)
    expected_pairs = {FL._anchors_for(space, last, s) for s in segment.letters}
    anchors = set(last.vertices) | {BOTTOM, TOP}
    observed = {(a, b) for a, b in pairs if a in anchors and b in anchors}
    if observed != expected_pairs:
        fail("scaffold-open-pairs", {"expected": sorted(map(str, expected_pairs)),
                                     "observed": sorted(map(str, observed)),
                                     "word": str(path.word)})


def _check_flags_in_path(fail, space, path) -> None:
    vertex_set = path.vertex_set()
    inside = FL.enumerate_flags(space, within=vertex_set)
    # the flags of every permuted path, each permutation made once
    covered = set()
    for perm in _word_class(path.word):
        covered.update(FL.permute_path(space, path, perm).flags)
    for k in inside:
        if k not in covered:
            fail("flags-in-path", {"flag": str(k), "word": str(path.word)})


def _word_class(u: Word) -> list[Word]:
    """Full commutation class via swap closure (desk-scale words only)."""
    seen = {u.letters}
    frontier = [u.letters]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur) - 1):
            if commutes(cur[i], cur[i + 1]):
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return [Word(ls, u.n) for ls in sorted(seen)]


def _check_wobbling(fail, space, path, every_flag) -> None:
    """Mid flags of equal-word paths agree outside the wobbling set; the
    candidates are ``every_flag``, all flags of the space."""
    word = path.word
    if len(word) < 2:
        return
    f, g = path.flags[0], path.flags[-1]
    candidates = [
        (c, FL.flag_path(space, f, c).word, FL.flag_path(space, c, g).word)
        for c in every_flag
    ]
    for i in range(1, len(word)):
        prefix = W._from_key(word.key[:i], word.n)
        suffix = W._from_key(word.key[i:], word.n)
        wob = W.wobbling(prefix, suffix)
        reference = path.flags[i]
        for candidate, u1, u2 in candidates:
            if candidate == reference:
                continue
            if not (W.equivalent(u1, prefix) and W.equivalent(u2, suffix)):
                continue
            diff = {
                j for j in range(space.n + 1) if candidate[j] != reference[j]
            }
            if not diff <= set(wob):
                fail("wobbling-determines-midflags",
                     {"word": str(word), "i": i, "diff": sorted(diff), "wob": sorted(wob)})


def _check_nice_characterization(fail, space, all_flags, rng) -> None:
    if not all_flags:
        return
    sample = rng.sample(all_flags, min(len(all_flags), 3))
    union: set[int] = set()
    for f in sample:
        union.update(f.vertices)
    nice = SP.is_nice(space, union)
    inside = FL.enumerate_flags(space, within=union)
    connected = all(
        _reduced_path_inside(space, inside, f, g)
        for f in sample
        for g in sample
    )
    if nice != connected:
        fail("nice-iff-flag-connected",
             {"union": sorted(union), "nice": nice, "connected": connected})


def _reduced_path_inside(space, inside: list, f, g) -> bool:
    """Search a reduced flag path from f to g through the flags ``inside``,
    those of a region."""
    word = FL.flag_path(space, f, g).word
    if f not in inside or g not in inside:
        return False
    for perm in _word_class(word):
        if _walk_word(space, inside, f, g, perm.letters):
            return True
    return False


def _walk_word(space, inside, current, goal, letters) -> bool:
    if not letters:
        return current == goal
    s = letters[0]
    for nxt in inside:
        diff = {i for i in range(space.n + 1) if current[i] != nxt[i]}
        if diff != set(range(s.lo, s.hi + 1)):
            continue
        if not FL.is_global_step(space, current, nxt, s):
            continue
        if _walk_word(space, inside, nxt, goal, letters[1:]):
            return True
    return False


def _suite_flags_forking(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    pairs = random.Random(config.seed + 1)  # the two-realization words
    for _ in range(config.cases):
        n = random_dimension(rng, config.n_max)
        space = ColoredSpace(n)
        base = FL.Flag(tuple(space.apply_alpha(Letter(0, n))))
        u = random_reduced_word(rng, n, 3)
        v = random_reduced_word(rng, n, 3)
        fail = report.case(n=n, u=u, v=v)
        f = FL.realize_type(space, base, u)
        h = FL.realize_type(space, base, v)
        # the connecting words are what realize_type promises
        path_fb = FL.flag_path(space, f, base)
        if not W.equivalent(path_fb.word, u):
            fail("realize-word-roundtrip", str(path_fb.word))
        # independence via the word criterion matches the basepoint criterion
        path_gh = FL.flag_path(space, base, h)
        region = set(base.vertices) | path_gh.vertex_set()
        word_indep = FL.indep(space, f, base, h)
        set_indep = FL.indep_over_set(space, f, base, region)
        if word_indep != set_indep:
            fail("forking-criteria-agree", {"word": word_indep, "set": set_indep})
        _check_canonical_base(fail, space, f, region)
        # a flag forks with itself over any other flag, and forking is symmetric
        if FL.indep(space, f, base, f) != (f == base):
            fail("indep-with-itself", str(f))
        if FL.indep(space, h, base, f) != word_indep:
            fail("indep-symmetric", {"f-over-h": word_indep})
        # independence from the whole witness path
        if word_indep:
            for mid in path_gh.flags:
                if not FL.indep(space, f, base, mid):
                    fail("indep-from-path", str(mid))
        if FL.indep_over_set(space, f, base, set(base.vertices)):
            _check_basepoint_chain(fail, space, path_fb, base)
            _check_basepoint_support(fail, space, path_fb, base)
        _check_transitivity(fail, space, rng)
        # over the region, no flag is reached from a realization of u over h
        # by a word of lower rank than its basepoint word; f itself would not
        # do, as base is both its basepoint and the region's first flag
        x = FL.realize_type(space, h, u)
        least = W._rank(FL.basepoint(space, x, region)[1].key, n)
        for g in FL.enumerate_flags(space, within=region):
            if W._rank(FL.flag_path(space, x, g).word.key, n) < least:
                fail("basepoint-least-rank", {"x": str(x), "flag": str(g)})
        # symmetry on a triple that can fork: k hangs off f's path to base
        k = FL.realize_type(space, path_fb.flags[len(path_fb.flags) // 2], v)
        if FL.indep(space, f, base, k) != FL.indep(space, k, base, f):
            fail("indep-symmetric", {"k": str(k)})
        # two realizations of a word from the second stream, a case of its own
        m = random_dimension(pairs, config.n_max)
        w = random_reduced_word(pairs, m, 3)
        if len(w) > 0:
            _check_two_realizations(report.case(n=m, u=w), w)
    s, t = W.parse_word("[1,2]", 2), W.parse_word("[1]", 2)
    _check_counterexample(report.case(n=2, s=s, t=t), s, t)


def _check_canonical_base(fail, space, f, region) -> None:
    """The region flags in the class ``canonical_base(f, region)`` are
    exactly those whose word from f is equivalent to the basepoint word."""
    word = FL.basepoint(space, f, region)[1]
    cls = FL.canonical_base(space, f, region)
    for g in FL.enumerate_flags(space, within=region):
        in_class = all(g[i] == v for i, v in cls.fixed)
        if in_class != W.equivalent(FL.flag_path(space, f, g).word, word):
            fail("canonical-base-describes-basepoints", {"flag": str(g), "in-class": in_class})


def _check_basepoint_chain(fail, space, path, base) -> None:
    """``path`` runs from a flag f to ``base``; the caller has checked that f
    is independent from base over base's own vertices."""
    region = set(base.vertices)
    # every step is a global application over the remaining tail plus region
    for i, s in enumerate(path.word):
        tail: set[int] = set(region)
        for g in path.flags[i + 1 :]:
            tail.update(g.vertices)
        new_vertices = set(path.flags[i].vertices) - set(path.flags[i + 1].vertices)
        lo, hi = FL._anchors_for(space, path.flags[i], s)
        between, tail_mask = space._between(lo, hi), SP._mask_of(tail)
        if any(space._component(v, between) & tail_mask for v in new_vertices):
            fail("basepoint-chain-global", {"step": i})
            return
    union = set(region)
    for g in path.flags:
        union.update(g.vertices)
    if SP.nice_witness(space, union) is not None:
        fail("basepoint-chain-nice", sorted(union))


def _check_basepoint_support(fail, space, path, base) -> None:
    """``path`` runs from a flag f to ``base``, and f is independent from base
    over base's own vertices.  A modulus under which a mid flag's class meets
    a region flag g's holds the levels where the two differ, so only that least
    modulus is tested: it must hold the support of the rest of the word."""
    word = path.word
    region_flags = FL.enumerate_flags(space, within=set(base.vertices))
    for i in range(1, len(path.flags) - 1):
        mid = path.flags[i]
        support = W.support(W._from_key(word.key[i:], word.n))
        for g in region_flags:
            modulus = [j for j in range(space.n + 1) if mid[j] != g[j]]
            if not support <= set(modulus):
                fail("basepoint-word-support",
                     {"i": i, "modulus": modulus, "support": sorted(support)})


def _check_transitivity(fail, space, rng) -> None:
    flags = FL.enumerate_flags(space)
    if len(flags) > 8:
        flags = rng.sample(flags, 8)
    # flags are passed by index; at most 512 distinct triples occur in the
    # 512 quadruples below, so each verdict is computed once
    @functools.cache
    def word(a: int, b: int) -> Word:
        return FL.flag_path(space, flags[a], flags[b]).word

    @functools.cache
    def ind(a: int, b: int, c: int) -> bool:
        return W.equivalent(W.concat_reduce(word(a, b), word(b, c)), word(a, c))

    @functools.cache
    def reduced_two_step(a: int, b: int, c: int) -> bool:
        return W.is_reduced(word(a, b).concat(word(b, c)))

    def observed(*quad: int) -> dict:
        return {k: str(flags[i]) for k, i in zip(("f", "f0", "h0", "h"), quad)}

    quadruples = itertools.product(range(len(flags)), repeat=4)
    for f, f0, h0, h in itertools.islice(quadruples, 512):
        if ind(f, f0, h0) and ind(f, h0, h):
            if not ind(f, f0, h):
                fail("transitivity-forward", observed(f, f0, h0, h))
        # converse along reduced two-step paths
        if reduced_two_step(f0, h0, h) and ind(f0, h0, h) and ind(f, f0, h):
            if not (ind(f, f0, h0) and ind(f, h0, h)):
                fail("transitivity-converse", observed(f, f0, h0, h))


def _check_counterexample(fail, s: Word, t: Word) -> None:
    """The proper-subletter diagram rejecting the unreduced converse, for
    ``s = [1,2]`` and ``t = [1]`` at N = 2."""
    space = ColoredSpace(s.n)
    h0 = FL.Flag(tuple(space.apply_alpha(Letter(0, s.n))))
    f0 = FL.realize_type(space, h0, s)
    h = FL.realize_type(space, f0, t)
    f = FL.realize_type(space, h0, t)
    expect = {
        ("w(F0,H0)", str(FL.flag_path(space, f0, h0).word), "[1,2]"),
        ("w(H0,H)", str(FL.flag_path(space, h0, h).word), "[1,2]"),
        ("w(F0,H)", str(FL.flag_path(space, f0, h).word), "[1]"),
        ("indep(F,F0,H)", FL.indep(space, f, f0, h), True),
        ("indep(F,F0,H0)", FL.indep(space, f, f0, h0), False),
        ("indep(F,H0,H)", FL.indep(space, f, h0, h), True),
    }
    for name, got, want in sorted(expect, key=lambda x: x[0]):
        if got != want:
            fail("unreduced-converse-counterexample", {"check": name, "got": got, "want": want})


def _check_two_realizations(fail, u: Word) -> None:
    """Two independent realizations of ``u`` over one flag determine the mid
    flag modulo sr(u)."""
    space = ColoredSpace(u.n)
    g = FL.Flag(tuple(space.apply_alpha(Letter(0, u.n))))
    f1 = FL.realize_type(space, g, u)
    f2 = FL.realize_type(space, g, u)
    if not FL.indep(space, f1, g, f2):
        # two fresh realizations are independent over the basepoint
        fail("two-realizations-indep")
        return
    between = FL.flag_path(space, f1, f2).word
    expected = W.concat_reduce(u, W.inverse(u))
    if not W.equivalent(between, expected):
        fail("two-realizations-word", {"between": str(between), "expected": str(expected)})
    sr = W.right_stabilizer(u)
    remainder, segment = W.final_segment(u)
    split_order = remainder.concat(segment)
    mid1 = FL.permute_path(space, FL.flag_path(space, f1, g), split_order).flags[len(remainder)]
    mid2 = FL.permute_path(space, FL.flag_path(space, f2, g), split_order).flags[len(remainder)]
    if FL.FlagClass(mid1, sr) != FL.FlagClass(mid2, sr):
        fail("two-realizations-midflag", {"mid1": str(mid1), "mid2": str(mid2), "sr": sorted(sr)})


# ---------------------------------------------------------------------------
# rank and ample suites


def _suite_ranks(config: SuiteConfig, report: SuiteReport) -> None:
    rng = random.Random(config.seed)
    fixed = [
        ("ord_rank", "[0,1].[1,3]", 3, "w^2+w"),
        ("ord_rank", "1", 3, "0"),
        ("rd_closed_form", "[0,2]", 2, "w^2"),
        ("rd_closed_form", "[0,2].[2,3].[1]", 3, "w^2+w+1"),
    ]
    for fn, text, n, expected in fixed:
        u = W.parse_word(text, n)
        fail = report.case(n=n, u=u)
        value = W.ord_rank(u) if fn == "ord_rank" else W.rd_closed_form(u)
        if str(value) != expected:
            fail(f"{fn}-pinned-value", {"got": str(value), "want": expected})
    u = W.parse_word("[0,1].[1,3]", 3)
    fail = report.case(n=3, u=u)
    tr = FL.type_rank(u)
    if tr.u_rank is not None or str(tr.ord_bound) != "w^2+w":
        fail("nonmonotone-type-rank", {"u_rank": str(tr.u_rank), "ord": str(tr.ord_bound)})
    for _ in range(config.cases):
        n = random_dimension(rng, config.n_max)
        u = random_reduced_word(rng, n, WORD_LEN_MAX)
        v = random_reduced_word(rng, n, WORD_LEN_MAX)
        fail = report.case(n=n, u=u, v=v)
        sizes = [s.size for s in u.letters]
        if sizes == sorted(sizes, reverse=True):
            if W.rd_closed_form(u) != W.ord_rank(u):
                fail("monotone-rd-equals-ord",
                     {"rd": str(W.rd_closed_form(u)), "ord": str(W.ord_rank(u))})
        if W.prec(u, v) and not W.ord_rank(u) < W.ord_rank(v):
            fail("prec-ord-strict")


def _suite_ample(config: SuiteConfig, report: SuiteReport) -> None:
    for n in range(1, max(2, config.n_max) + 1):
        fail = report.case(n=n)
        for check in FL.ample_report(n):
            if not check["pass"]:
                fail("ample-identity", check)


_SUITES = {
    "words-confluence": _suite_words_confluence,
    "words-absorption": _suite_words_absorption,
    "words-decomposition": _suite_words_decomposition,
    "words-strong": _suite_words_strong,
    "words-order": _suite_words_order,
    "space-axioms": _suite_space_axioms,
    "flags-paths": _suite_flags_paths,
    "flags-forking": _suite_flags_forking,
    "ranks": _suite_ranks,
    "ample": _suite_ample,
}
SUITE_NAMES = list(_SUITES)


def report_to_text(report: SuiteReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    lines = [
        f"suite {report.suite}: {status} ({report.cases_run} cases, "
        f"{len(report.failures)} failures, {report.elapsed:.2f}s)"
    ]
    for note in report.notes:
        lines.append(f"  note: {note}")
    for failure in report.failures[:20]:
        lines.append("  " + json.dumps(failure, default=str))
    return "\n".join(lines)
