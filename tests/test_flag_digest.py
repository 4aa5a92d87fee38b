"""Every answer of the flag queries on seeded spaces, pinned by one digest.

The suite digests record failures only, so a rewrite that changes which
flag a tie picks, or the order of a path's steps, passes them.  This test
asks ``flag_path`` (flags, word key, stuck steps), ``indep``,
``indep_over_set``, ``basepoint`` (flag and word key), ``canonical_base``
(fixed vertices and modulus) and ``nice_witness`` in both modes on built
spaces, spaces grown by ``realize_type`` and hand-made graphs, and hashes
the answers, an error by its class name, in order.  A change that keeps
every answer keeps the digest; one that alters an answer on purpose prints
the new digest with ``PYTHONPATH=src python tests/test_flag_digest.py``
and says in CHANGES.md which answers changed, and why.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys

import brute
import pseudospace.flags as FL
import pseudospace.space as SP
import pseudospace.words as W
from pseudospace.errors import PseudospaceError
from pseudospace.flags import Flag
from pseudospace.letters import Letter, all_letters
from pseudospace.space import ColoredSpace

DIGEST = "cf47649ea1a44b3b061e6f945738a78cd409bfcd8fe92e6940557636268aecc0"


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


def _spaces():
    made = list(itertools.islice(brute.random_spaces(71, 60), 120))  # 60 built, 60 hand-made
    return made[:60] + [(None, sp) for sp in _realized_spaces(72, 60)] + made[60:]


def _stuck_space():
    """The stuck space of ``test_flags.py``: the step [1,3] from
    (0, 2, 4, 9) to (1, 3, 6, 8) is not global, and its only bridge would
    need a flag through vertex 7, which has no level-3 neighbour."""
    return ColoredSpace.from_graph(
        3,
        [0, 0, 1, 1, 2, 2, 2, 2, 3, 3],
        [(0, 2), (0, 3), (1, 3), (2, 4), (2, 7), (3, 5), (3, 6), (3, 7), (4, 9), (5, 8), (6, 8)],
    )


def _answer(query, *args):
    try:
        return query(*args)
    except PseudospaceError as exc:
        return type(exc).__name__


def _path(sp, f, g):
    path = FL.flag_path(sp, f, g)
    return tuple(map(tuple, path.flags)), path.word.key, path.stuck


def _base(sp, f, region):
    g, u = FL.basepoint(sp, f, region)
    return tuple(g), u.key


def _class(sp, f, region):
    cls = FL.canonical_base(sp, f, region)
    return cls.fixed, sorted(cls.modulus)


def flag_answers():
    """The answers in order, as reprs."""
    rng = random.Random(73)
    for _, sp in _spaces():
        flags = FL.enumerate_flags(sp)
        vertices = sp.vertices
        for _ in range(12 if flags else 0):
            f, g, h = (rng.choice(flags) for _ in range(3))
            yield repr(_answer(_path, sp, f, g))
            yield repr(_answer(FL.indep, sp, f, g, h))
            region = set(g) | FL.flag_path(sp, g, h).vertex_set()
            yield repr(_answer(_base, sp, f, region))
            yield repr(_answer(_class, sp, f, region))
            inside = [x for x in flags if set(x) <= region]
            yield repr(_answer(FL.indep_over_set, sp, f, rng.choice(inside), region))
        for _ in range(6):
            region = set(rng.sample(vertices, rng.randint(1, len(vertices))))
            for exact in (False, True):
                yield repr(SP.nice_witness(sp, region, exact))
    # random graphs almost never hold a stuck step, so every triple here
    sp = _stuck_space()
    flags = FL.enumerate_flags(sp)
    for f, g, h in itertools.product(flags, repeat=3):
        yield repr(_answer(_path, sp, f, g))
        yield repr(_answer(FL.indep, sp, f, g, h))


def flag_digest() -> str:
    digest = hashlib.sha256()
    for answer in flag_answers():
        digest.update(answer.encode() + b"\n")
    return digest.hexdigest()


def test_flag_answers_match_their_digest():
    assert flag_digest() == DIGEST


if __name__ == "__main__":
    sys.stdout.write(flag_digest() + "\n")
