"""Input generators and reference computations written apart from the library.

Words here are raw keys: tuples of ``(lo, hi)`` pairs.  Nothing in this module
calls ``pseudospace``, so the answers it gives are a second opinion, not a
copy of the program's own strategy.
"""

from __future__ import annotations

import random
from collections import Counter, deque


class CheckFailure(Exception):
    """A program answer that contradicts the reference computation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


# ---------------------------------------------------------------------------
# words


def commutes(a, b) -> bool:
    return b[0] >= a[1] + 2 or a[0] >= b[1] + 2


def contains(a, b) -> bool:
    return a[0] <= b[0] and b[1] <= a[1]


def letters_of(n: int) -> list[tuple[int, int]]:
    return [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]


def nf(key) -> tuple:
    """Normal form by insertion: each letter moves left past the commuting
    letters that lie entirely above it (the library bubbles instead)."""
    out: list = []
    for s in key:
        i = len(out)
        while i > 0 and out[i - 1][0] >= s[1] + 2:
            i -= 1
        out.insert(i, s)
    return tuple(out)


def absorbed(w, i: int) -> bool:
    s = w[i]
    for step in (1, -1):
        j = i + step
        while 0 <= j < len(w):
            if contains(w[j], s):
                return True
            if not commutes(s, w[j]):
                break
            j += step
    return False


def is_reduced(key) -> bool:
    return not any(absorbed(key, i) for i in range(len(key)))


def reduce_key(key) -> tuple:
    """Reduct by deleting the rightmost absorbed letter first (the library
    deletes the leftmost), then the normal form."""
    w = list(key)
    i = len(w) - 1
    while i >= 0:
        if absorbed(w, i):
            del w[i]
            i = len(w) - 1
        else:
            i -= 1
    return nf(w)


def equivalent(a, b) -> bool:
    return nf(a) == nf(b)


def inverse(key) -> tuple:
    return tuple(reversed(key))


def right_stabilizer(key, n: int) -> frozenset:
    """Levels ``i`` whose one-level letter is absorbed on the right:
    ``reduce(v.[i]) ~ reduce(v)``, straight from the definition."""
    target = reduce_key(key)
    return frozenset(i for i in range(n + 1) if reduce_key(tuple(key) + ((i, i),)) == target)


def is_sub_multiset(part, whole) -> bool:
    return not (Counter(part) - Counter(whole))


def reduced_word(rng: random.Random, n: int, length: int, full: bool = True) -> tuple:
    """A reduced word of up to ``length`` letters, grown one letter at a time.

    A new letter is kept when nothing it reaches on its left contains it and
    it contains no letter of the final segment (the letters that commute with
    everything after them), which is all that can reach it.  The full letter
    ``[0,n]`` absorbs anything after it, so the word ends there; without
    ``full`` that letter is never drawn and the word has exactly ``length``
    letters.
    """
    alphabet = [s for s in letters_of(n) if full or s != (0, n)]
    w: list = []
    segment: list = []
    misses = 0
    while len(w) < length:
        s = rng.choice(alphabet)
        ok = not any(contains(s, t) for t in segment)
        if ok:
            for t in reversed(w):
                if contains(t, s):
                    ok = False
                    break
                if not commutes(s, t):
                    break
        if not ok:
            misses += 1
            if misses > 10_000:
                raise RuntimeError(f"no reduced extension found for n={n}")
            continue
        misses = 0
        w.append(s)
        segment = [t for t in segment if commutes(t, s)] + [s]
        if s == (0, n):
            break
    return tuple(w)


def near_reduced(rng: random.Random, base: tuple, extra: int) -> tuple:
    """``base`` with ``extra`` absorbable letters: a subletter of a base
    letter (possibly the letter itself) put right after it.  Deleting the
    inserted letters is a cancellation order, so the reduct is ``base``."""
    positions = set(rng.sample(range(len(base)), extra))
    out = []
    for i, t in enumerate(base):
        out.append(t)
        if i in positions:
            lo = rng.randint(t[0], t[1])
            out.append((lo, rng.randint(lo, t[1])))
    return tuple(out)


def subletter_product(rng: random.Random, s, max_len: int) -> tuple:
    """A product of at most ``max_len`` proper subletters of ``s``."""
    subs = [(lo, hi) for lo in range(s[0], s[1] + 1) for hi in range(lo, s[1] + 1) if (lo, hi) != s]
    return tuple(rng.choice(subs) for _ in range(rng.randint(0, max_len))) if subs else ()


def shuffle_commuting(rng: random.Random, key) -> tuple:
    w = list(key)
    for _ in range(3 * len(w)):
        if len(w) < 2:
            break
        i = rng.randrange(len(w) - 1)
        if commutes(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


# ---------------------------------------------------------------------------
# spaces

BOTTOM = "bottom"
TOP = "top"


class ModelSpace:
    """A second model of a built space: levels, adjacency, and for every
    vertex the bitmask of the vertices lying over it, kept up to date on
    each insert instead of searched for on each query."""

    def __init__(self, n: int):
        self.n = n
        self.level: list[int] = []
        self.adj: list[set[int]] = []
        self.up: list[int] = []

    def apply(self, lo_level: int, hi_level: int, lo, hi) -> list[int]:
        created = list(range(len(self.level), len(self.level) + hi_level - lo_level + 1))
        for lv in range(lo_level, hi_level + 1):
            self.level.append(lv)
            self.adj.append(set())
        chain = [lo] + created + [hi]
        for a, b in zip(chain, chain[1:]):
            if isinstance(a, int) and isinstance(b, int):
                self.adj[a].add(b)
                self.adj[b].add(a)
        above = (1 << hi) | self.up[hi] if isinstance(hi, int) else 0
        self.up.extend(0 for _ in created)
        for v in reversed(created):
            self.up[v] = above
            above |= 1 << v
        if isinstance(lo, int):
            chain_mask = sum(1 << v for v in created)
            for x in range(created[0]):
                if x == lo or (self.up[x] >> lo) & 1:
                    self.up[x] |= chain_mask
        return created

    def lies_over(self, a, b) -> bool:
        if a == BOTTOM or b == TOP:
            return True
        if a == TOP or b == BOTTOM:
            return False
        return bool((self.up[a] >> b) & 1)

    def between(self, a, b) -> set[int]:
        up = (1 << len(self.level)) - 1 if a == BOTTOM else 0 if a == TOP else self.up[a]
        out = set()
        for v in range(len(self.level)):
            if (up >> v) & 1 and self.lies_over(v, b):
                out.add(v)
        return out

    def edges(self) -> list[tuple[int, int]]:
        return sorted((v, w) for v in range(len(self.level)) for w in self.adj[v] if v < w)

    def anchors_for(self, lo_level: int, hi_level: int) -> tuple[list, list]:
        los = [BOTTOM] if lo_level == 0 else [v for v, lv in enumerate(self.level) if lv == lo_level - 1]
        his = [TOP] if hi_level == self.n else [v for v, lv in enumerate(self.level) if lv == hi_level + 1]
        return los, his

    def random_op(self, rng: random.Random):
        """A random applicable operation ``(lo_level, hi_level, lo, hi)``."""
        alphabet = letters_of(self.n)
        while True:
            lo_level, hi_level = rng.choice(alphabet)
            los, his = self.anchors_for(lo_level, hi_level)
            if not los or not his:
                continue
            lo = rng.choice(los)
            his = [h for h in his if not (isinstance(lo, int) and isinstance(h, int)) or self.lies_over(lo, h)]
            if his:
                return lo_level, hi_level, lo, rng.choice(his)

    def is_flag(self, vertices) -> bool:
        if len(vertices) != self.n + 1:
            return False
        if any(v >= len(self.level) or self.level[v] != i for i, v in enumerate(vertices)):
            return False
        return all(b in self.adj[a] for a, b in zip(vertices, vertices[1:]))

    def flags(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        stack = [(v,) for v, lv in enumerate(self.level) if lv == 0]
        while stack:
            prefix = stack.pop()
            if len(prefix) == self.n + 1:
                out.append(prefix)
                continue
            for w in self.adj[prefix[-1]]:
                if self.level[w] == len(prefix):
                    stack.append(prefix + (w,))
        return sorted(out)

    def step_is_global(self, a, b, lo_level: int, hi_level: int) -> bool:
        """The two parts of flags ``a`` and ``b`` at the step's levels are
        disconnected inside the between-set of the step's anchors."""
        lo = a[lo_level - 1] if lo_level > 0 else BOTTOM
        hi = a[hi_level + 1] if hi_level < self.n else TOP
        members = self.between(lo, hi)
        targets = set(a[lo_level : hi_level + 1])
        seen = {v for v in b[lo_level : hi_level + 1] if v in members}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            if v in targets:
                return False
            for w in self.adj[v]:
                if w in members and w not in seen and lo_level <= self.level[w] <= hi_level:
                    seen.add(w)
                    queue.append(w)
        return True


def random_script(rng: random.Random, n: int, ops: int) -> tuple[dict, ModelSpace]:
    """A build script with ``ops`` random operations and the model it builds."""
    model = ModelSpace(n)
    script = []
    for _ in range(ops):
        lo_level, hi_level, lo, hi = model.random_op(rng)
        model.apply(lo_level, hi_level, lo, hi)
        letter = f"[{lo_level}]" if lo_level == hi_level else f"[{lo_level},{hi_level}]"
        script.append({"letter": letter, "lo": lo, "hi": hi})
    return {"n": n, "ops": script}, model


def model_from_log(n: int, log) -> ModelSpace:
    """Replay ``(lo_level, hi_level, lo, hi)`` records into a fresh model."""
    model = ModelSpace(n)
    for record in log:
        model.apply(*record)
    return model
