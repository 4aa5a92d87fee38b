"""The four workloads: seeded inputs, the timed calls, and their checks.

A workload is built from ``--seed`` (its set-up) and then hands out rounds.
Round ``r`` is a fixed list of operations whose inputs come from a generator
seeded with ``(seed, r)``; every round holds the same operations in the same
proportions, so a run that stops after any whole round has the same mix.
Each operation is one call into the library on an input not used before in
the process, followed by an untimed check against ``refs``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import brute
from pseudospace import flags as FL
from pseudospace import oracle
from pseudospace import words as W
from pseudospace.errors import ParseError
from pseudospace.letters import Letter
from pseudospace.space import ColoredSpace

import refs
from refs import require


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    expect: type[Exception] | None = None  # the call must raise this


def word(key, n: int) -> W.Word:
    return W.Word(tuple(Letter(lo, hi) for lo, hi in key), n)


def rng_for(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


class Exhausted(Exception):
    """A workload has no unused inputs left for another whole round."""


class Fresh:
    """Draws inputs until one not seen before in this process turns up."""

    def __init__(self):
        self.seen: set = set()

    def draw(self, make: Callable[[], tuple], key: Callable[[tuple], Any]):
        for _ in range(1000):
            value = make()
            k = key(value)
            if k not in self.seen:
                self.seen.add(k)
                return value
        raise Exhausted("no unused input found in 1000 draws")


# ---------------------------------------------------------------------------
# words: the word calculus alone


class Words:
    """Long near-reduced words through ``reduce`` and many short words through
    the other word operations.  Long random words collapse to a letter or
    two, so the long inputs are reduced words with one letter in ten added
    back as an absorbable subletter: their reducts keep nine tenths of the
    letters and the restart loop in the kernel does real work."""

    LONG = ((3, 800), (20, 800), (3, 200), (20, 200))
    SHORT = {"concat_reduce": 600, "decompose_fine": 300, "prec": 300, "strong": 150, "divides": 100}
    # the 800-letter reduces are 0.14% of a round, so the tail (p99.9) falls
    # inside them; they take about two thirds of the timed time
    min_rounds = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.fresh = Fresh()
        # the splitting products behind strong reduction are memoized per
        # letter on first use; fill them here, on inputs never timed later
        for n in (2, 3):
            for s in refs.letters_of(n):
                W.strong_reducts_bounded(word((s, s), n))
                self.fresh.seen.add(("strong", n, (s,), (s,)))

    def round(self, r: int) -> list[Op]:
        rng = rng_for("words", self.seed, r)
        ops = [self._long(rng, n, length) for n, length in self.LONG]
        for kind, count in self.SHORT.items():
            make = getattr(self, "_" + kind)
            ops.extend(make(rng) for _ in range(count))
        rng.shuffle(ops)
        return ops

    def _long(self, rng, n, length) -> Op:
        extra = length // 10
        base = refs.reduced_word(rng, n, length - extra, full=False)
        u = word(refs.near_reduced(rng, base, extra), n)
        expected = refs.nf(base)

        def check(res):
            require(refs.is_reduced(res.key), "reduct is not reduced")
            require(refs.is_sub_multiset(res.key, u.key), "reduct is not a sub-multiset of the input")
            require(res.key == expected, "reduct differs from the inserted-letter cancellation order")

        return Op(f"reduce-n{n}-{length}", lambda: W.reduce(u), check)

    def _pair(self, rng, n_max, len_max, kind):
        def make():
            n = rng.randint(2, n_max)
            return (n, refs.reduced_word(rng, n, rng.randint(0, len_max)),
                    refs.reduced_word(rng, n, rng.randint(0, len_max)))

        return self.fresh.draw(make, key=lambda x: (kind,) + x)

    def _concat_reduce(self, rng) -> Op:
        n, a, b = self._pair(rng, 5, 6, "concat")
        u, v = word(a, n), word(b, n)
        check = concat_reduce_check(u, v)
        return Op("concat_reduce", lambda: W.concat_reduce(u, v), check)

    def _decompose_fine(self, rng) -> Op:
        n, a, b = self._pair(rng, 5, 6, "decompose")
        u, v = word(a, n), word(b, n)

        def check(d):
            eq = refs.equivalent
            require(eq(d.u1.key + d.u_prime.key, a), "u is not u1.u'")
            require(eq(d.v_prime.key + d.v1.key, b), "v is not v'.v1")
            require(refs.is_reduced(d.u1.key + d.v1.key), "u1.v1 is not reduced")
            require(refs.reduce_key(a + b) == refs.nf(d.u1.key + d.v1.key), "reduct of u.v is not u1.v1")

        return Op("decompose_fine", lambda: W.decompose_fine(u, v), check)

    def _prec(self, rng) -> Op:
        def make():
            n = rng.randint(2, 4)
            b = refs.reduced_word(rng, n, rng.randint(1, 4))
            if rng.random() < 0.5:
                i = rng.randrange(len(b))
                a = refs.shuffle_commuting(rng, b[:i] + refs.subletter_product(rng, b[i], 2) + b[i + 1 :])
            else:
                a = refs.reduced_word(rng, n, rng.randint(0, 4))
            return n, a, b

        n, a, b = self.fresh.draw(make, key=lambda x: ("prec",) + x)
        u, v = word(a, n), word(b, n)

        def check(res):
            require(res == brute.brute_prec(u, v), "prec disagrees with the exhaustive segmentation")

        return Op("prec", lambda: W.prec(u, v), check)

    def _strong(self, rng) -> Op:
        n, a, b = self._pair(rng, 3, 3, "strong")
        uv = word(a + b, n)

        def check(res):
            keys = {w.key for w in res.words}
            require(all(refs.is_reduced(k) and refs.nf(k) == k for k in keys),
                    "a strong reduct is not a reduced normal form")
            if not res.exhausted:
                require(refs.reduce_key(a + b) in keys, "the plain reduct is not among the strong reducts")

        return Op("strong_reducts_bounded", lambda: W.strong_reducts_bounded(uv), check)

    def _divides(self, rng) -> Op:
        def make():
            n = rng.randint(2, 3)
            return (n, refs.reduced_word(rng, n, rng.randint(0, 4)),
                    refs.reduced_word(rng, n, rng.randint(0, 2)))

        n, a, w = self.fresh.draw(make, key=lambda x: ("divides",) + x)
        target = refs.reduce_key(a + w)
        u, v = word(a, n), word(target, n)

        def check(res):
            if res.witness is not None:
                require(refs.reduce_key(a + res.witness.key) == target, "the division witness does not divide")
            else:
                require(not res.conclusive, "no witness although u divides u.w")

        return Op("divides_left_bounded", lambda: W.divides_left_bounded(u, v), check)


def concat_reduce_check(u: W.Word, v: W.Word) -> Callable[[W.Word], None]:
    total = u.key + v.key

    def check(res):
        require(refs.is_reduced(res.key), "reduct is not reduced")
        require(refs.is_sub_multiset(res.key, total), "reduct is not a sub-multiset of the input")
        if len(total) <= 7:
            require({res.key} == brute.exhaustive_reducts(u.concat(v)), "reduct differs from the exhaustive closure")
        else:
            require(res.key == refs.reduce_key(total), "reduct differs from the reference cancellation order")

    return check


# ---------------------------------------------------------------------------
# flags: read-mostly queries on spaces built once


@dataclass
class Pooled:
    space: ColoredSpace
    model: refs.ModelSpace
    flags: list

    @cached_property
    def twin(self) -> ColoredSpace:
        """A copy for generation and checks, so that whatever the library
        might keep on a space is never warmed for a timed call by them."""
        return copy.deepcopy(self.space)


def model_of(space: ColoredSpace) -> refs.ModelSpace:
    log = [(op.letter.lo, op.letter.hi, op.lo, op.hi) for op in space.build_log]
    return refs.model_from_log(space.n, log)


def flag_path_check(p: Pooled, f, g, path, back=None) -> None:
    """Properties a reduced flag path from ``f`` to ``g`` must have."""
    m = p.model
    require(not path.stuck, "stuck step on a built space")
    require(path.flags[0].vertices == f and path.flags[-1].vertices == g, "path endpoints")
    key = path.word.key
    require(len(key) == len(path.flags) - 1, "one letter per step")
    for a, b, s in zip(path.flags, path.flags[1:], key):
        a, b = a.vertices, b.vertices
        require(m.is_flag(b), "path visits a non-flag")
        diff = [i for i in range(m.n + 1) if a[i] != b[i]]
        require(diff == list(range(s[0], s[1] + 1)), "step differs off its letter")
        require(m.step_is_global(a, b, s[0], s[1]), "step is not global")
    require(refs.is_reduced(key), "path word is not reduced")
    require((len(key) == 0) == (f == g), "w(f,g) = 1 exactly when f = g")
    if back is not None:
        require(refs.equivalent(back.word.key, refs.inverse(key)), "w(g,f) is not w(f,g) inverted")


class Flags:
    """``flag_path``, ``indep``, ``canonical_base`` (which runs ``basepoint``)
    and ``realize_type`` on a pool built during set-up: realized-type spaces,
    where every step is global, and random-scripted spaces of about 10 and
    30-60 vertices, where steps need refinement.  One space answers many
    queries, which is where a read-side index or memo pays.  Each flag pair
    of the pool is asked for at most once, in one direction; a run ends early
    if a pool runs out of pairs."""

    POOL = {"realized": 48, "small": 1000, "medium": 48}
    # per round and pool kind; every kind gets its share of each query
    PATHS = {"realized": 12, "small": 6, "medium": 12}
    INDEP = {"realized": 2, "small": 2, "medium": 2}
    CANBASE = {"realized": 1, "small": 3, "medium": 2}
    REALIZE = {"realized": 2, "medium": 2}
    min_rounds = 30

    def __init__(self, seed: int):
        self.seed = seed
        # the pool is the same for every seed, so a seed changes the queries
        # and not which spaces answer them; a handful of large spaces would
        # otherwise move the tail from one seed to the next
        rng = rng_for("flags", "pool")
        deal = rng_for("flags", seed, "deal")
        self.pool: dict[str, list[Pooled]] = {}
        self.pairs: dict[str, list] = {}
        for kind, count in self.POOL.items():
            self.pool[kind] = []
            for i in range(count):
                # dimensions and sizes are spread evenly, not drawn, so
                # every seed gets a pool of the same make-up
                n = (2, 3, 3, 4)[i % 4]
                space = getattr(self, "_" + kind)(rng, n, i / max(1, count - 1))
                model = model_of(space)
                self.pool[kind].append(Pooled(space, model, model.flags()))
            pairs = [
                (i, f, g) if deal.random() < 0.5 else (i, g, f)
                for i, p in enumerate(self.pool[kind])
                for a, f in enumerate(p.flags)
                for g in p.flags[a:]
            ]
            deal.shuffle(pairs)
            self.pairs[kind] = pairs
        self.fresh = Fresh()

    @staticmethod
    def _realized(rng, n, _) -> ColoredSpace:
        space = ColoredSpace(n)
        made = [FL.Flag(tuple(space.apply_alpha(Letter(0, n))))]
        for _ in range(12):
            u = word(refs.reduced_word(rng, n, rng.randint(1, 3)), n)
            made.append(FL.realize_type(space, rng.choice(made), u))
        return space

    @staticmethod
    def _scripted(rng, n, target, hi) -> ColoredSpace:
        while True:
            model = refs.ModelSpace(n)
            ops = []
            while len(model.level) < target:
                lo_level, hi_level, a, b = model.random_op(rng)
                model.apply(lo_level, hi_level, a, b)
                ops.append((lo_level, hi_level, a, b))
            if len(model.level) <= hi:
                break
        space = ColoredSpace(n)
        for lo_level, hi_level, a, b in ops:
            space.apply_alpha(Letter(lo_level, hi_level), a, b)
        return space

    def _small(self, rng, n, at):
        return self._scripted(rng, n, 8 + round(3 * at), 12)

    def _medium(self, rng, n, at):
        return self._scripted(rng, n, 30 + round(26 * at), 60)

    def round(self, r: int) -> list[Op]:
        if any(len(self.pairs[kind]) < count for kind, count in self.PATHS.items()):
            raise Exhausted("flag pairs")
        rng = rng_for("flags", self.seed, r)
        ops = []
        for make, counts in ((self._path, self.PATHS), (self._indep, self.INDEP),
                             (self._canbase, self.CANBASE), (self._realize, self.REALIZE)):
            for kind, count in counts.items():
                ops.extend(make(rng, kind) for _ in range(count))
        rng.shuffle(ops)
        return ops

    def _path(self, rng, kind) -> Op:
        i, f, g = self.pairs[kind].pop()
        p = self.pool[kind][i]
        ff, gg = FL.Flag(f), FL.Flag(g)

        def check(path):
            flag_path_check(p, f, g, path, FL.flag_path(p.twin, gg, ff))

        return Op(f"flag_path-{kind}", lambda: FL.flag_path(p.space, ff, gg), check)

    def _triple(self, rng, kind, op):
        spaces = self.pool[kind]

        def make():
            i = rng.randrange(len(spaces))
            flags = spaces[i].flags
            return i, rng.choice(flags), rng.choice(flags), rng.choice(flags)

        i, f, g, h = self.fresh.draw(make, key=lambda x: (op, kind) + x)
        return spaces[i], FL.Flag(f), FL.Flag(g), FL.Flag(h)

    def _indep(self, rng, kind) -> Op:
        p, f, g, h = self._triple(rng, kind, "indep")

        def check(res):
            region = set(g.vertices) | FL.flag_path(p.twin, g, h).vertex_set()
            require(res == FL.indep_over_set(p.twin, f, g, region), "indep disagrees with indep_over_set")

        return Op("indep", lambda: FL.indep(p.space, f, g, h), check)

    def _canbase(self, rng, kind) -> Op:
        p, f, g, h = self._triple(rng, kind, "canbase")
        region = FL.flag_path(p.twin, g, h).vertex_set()

        def check(cls):
            base = cls.flag.vertices
            require(p.model.is_flag(base) and set(base) <= region, "basepoint is not a flag of the region")
            u = FL.flag_path(p.twin, f, cls.flag).word.key
            require(cls.modulus == refs.right_stabilizer(u, p.model.n),
                    "modulus is not the right stabilizer of the basepoint word")

        return Op("canonical_base", lambda: FL.canonical_base(p.space, f, region), check)

    def _realize(self, rng, kind) -> Op:
        spaces = self.pool[kind]

        def make():
            i = rng.randrange(len(spaces))
            n = spaces[i].model.n
            return i, rng.choice(spaces[i].flags), refs.reduced_word(rng, n, rng.randint(1, 3))

        i, g, u = self.fresh.draw(make, key=lambda x: ("realize", kind) + x)
        n = spaces[i].model.n
        space = copy.deepcopy(spaces[i].space)
        gg, uu = FL.Flag(g), word(u, n)

        def check(new):
            m = model_of(space)
            require(m.is_flag(new.vertices), "realized flag is not a flag")
            back = FL.flag_path(space, new, gg).word.key
            require(refs.equivalent(back, u), "flag_path after realize_type does not give back u")

        return Op("realize_type", lambda: FL.realize_type(space, gg, uu), check)


# ---------------------------------------------------------------------------
# verify: time to a verdict


class Verify:
    """Small ``oracle.run_suite`` calls, as ``psn verify --suite S --seed k
    --cases c`` makes them; spaces grow one ``apply_alpha`` at a time and are
    queried between inserts, so a cache here pays its invalidation cost."""

    # (suite, cases, runs per round): case counts that make each run cost
    # about 20 ms at the median, so the median falls inside a smooth mixture
    SUITES = (("words-confluence", 60, 2), ("space-axioms", 3, 2), ("flags-paths", 1, 2), ("flags-forking", 2, 2))
    min_rounds = 30

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        ops = []
        i = 0
        for suite, cases, count in self.SUITES:
            for _ in range(count):
                config = oracle.SuiteConfig(suite, seed=(self.seed * 1_000_000 + r * 100 + i), cases=cases)
                ops.append(Op(suite, lambda c=config: oracle.run_suite(c), verdict_check(cases)))
                i += 1
        rng_for("verify", self.seed, r).shuffle(ops)
        return ops


def verdict_check(cases: int) -> Callable[[oracle.SuiteReport], None]:
    def check(report):
        require(report.passed, f"suite verdict is FAIL: {report.failures[:1]}")
        require(report.cases_run >= cases, "PASS with fewer cases than requested")

    return check


# ---------------------------------------------------------------------------
# build: writes, export and reload


class Build:
    """Large spaces built from scripts, exported, reloaded and queried.  Every
    round also loads one tampered export (a stated vertex level changed),
    which must be refused with a ``ParseError``; the tampered files do not
    depend on the seed."""

    DIMENSIONS = (2, 3, 4)  # one script of each per round
    SCRIPT_OPS = 500
    min_rounds = 13

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = rng_for("build", self.seed, r)
        ops = []
        for n in self.DIMENSIONS:
            script, model = refs.random_script(rng, n, self.SCRIPT_OPS)
            ops.extend(self._script_ops(rng, script, model))
        ops.append(self._tampered(r))
        return ops

    def _script_ops(self, rng, script, model) -> list[Op]:
        held: dict = {}
        expected_log = [
            (op["letter"], op["lo"], op["hi"]) for op in script["ops"]
        ]

        def same_space(space):
            require([space.level(v) for v in space.vertices] == model.level, "vertex levels")
            require(space.edges() == model.edges(), "edges")
            log = [(str(op.letter), op.lo, op.hi) for op in space.build_log]
            require(log == expected_log, "build log")

        def built(space):
            same_space(space)
            held["space"] = space

        def exported(data):
            require([(d["id"], d["level"]) for d in data["vertices"]] == list(enumerate(model.level)),
                    "exported vertex levels")
            require([tuple(e) for e in data["edges"]] == model.edges(), "exported edges")
            held["data"] = data

        ops = [
            Op("from_script", lambda: ColoredSpace.from_script(script), built),
            Op("to_json", lambda: held["space"].to_json(), exported),
            Op("from_json", lambda: ColoredSpace.from_json(held["data"]), same_space),
        ]
        size = len(model.level)
        a = rng.randrange(size)
        above = [v for v in range(size) if model.lies_over(a, v)]
        b = rng.choice(above) if above and rng.random() < 0.5 else rng.randrange(size)
        ops.append(Op("lies_over", lambda: held["space"].lies_over(a, b),
                      lambda res: require(res == model.lies_over(a, b), "lies_over")))
        ops.append(Op("between", lambda: held["space"].between(a, b),
                      lambda res: require(res == model.between(a, b), "between")))
        return ops

    @staticmethod
    def _tampered(r: int) -> Op:
        rng = rng_for("build-tamper", r)
        script, _ = refs.random_script(rng, rng.choice(Build.DIMENSIONS), Build.SCRIPT_OPS)
        data = tamper(ColoredSpace.from_script(script).to_json(), rng)
        return Op("from_json-tampered", lambda: ColoredSpace.from_json(data), lambda res: None, ParseError)


def tamper(data: dict, rng: random.Random) -> dict:
    """The export with one stated vertex level changed."""
    data = copy.deepcopy(data)
    vertex = rng.choice(data["vertices"])
    vertex["level"] = (vertex["level"] + 1) % (data["n"] + 1)
    return data


WORKLOADS = {"words": Words, "flags": Flags, "verify": Verify, "build": Build}
