"""Finite colored N-spaces built from the empty space by path-adjoining
operations.

A colored N-space is a leveled graph: every vertex carries a level in
``[0, N]`` and edges join adjacent levels only.  Two imaginary anchors,
``BOTTOM`` below level 0 and ``TOP`` above level N, are adjacent to every
level-0 and level-N vertex respectively.  The only constructor is
``apply_alpha``: adjoin a fresh chain of vertices at the levels of a letter
between two anchors, one of which must lie over the other.  Spaces built this
way are exactly the desk-scale strong extensions of the empty space; the
previously built part stays wunderbar in every extension, so graph distances
measured here are absolute.

"Infinite distance" means plain unreachability in the finite graph.

Every reachability question goes through one of three searches on
``ColoredSpace``: ``_closure``, the vertices above or beneath an anchor,
optionally inside a region (``upward_closure``, ``downward_closure``,
``lies_over`` and ``between`` wrap it); ``distances_from``, BFS distances; and
``shortest_path``, a deterministic shortest path between two vertex sets, or
None when there is none.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Container, Iterable

from .errors import (
    AnchorLevelMismatchError,
    AnchorsNotOverError,
    LevelNotInIntervalError,
    ParseError,
    PreconditionError,
)
from .letters import Letter, check_dimension, parse_letter

BOTTOM = "bottom"
TOP = "top"

Anchor = int | str  # vertex id, BOTTOM or TOP

INF = float("inf")


@dataclass(frozen=True)
class BuildOp:
    letter: Letter
    lo: Anchor
    hi: Anchor
    created: tuple[int, ...]


class ColoredSpace:
    """Append-only leveled graph; vertices are dense integer ids."""

    def __init__(self, n: int):
        check_dimension(n)
        self.n = n
        self._level: dict[int, int] = {}
        self._adj: dict[int, set[int]] = {}
        self.build_log: list[BuildOp] = []

    # -- basic structure ---------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        return sorted(self._level)

    def level(self, v: int) -> int:
        return self._level[v]

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in self.vertices:
            for w in self._adj[v]:
                if v < w:
                    out.append((v, w))
        return sorted(out)

    def anchor_level(self, a: Anchor) -> int:
        if a == BOTTOM:
            return -1
        if a == TOP:
            return self.n + 1
        return self._level[a]

    def is_real(self, a: Anchor) -> bool:
        return not (a == BOTTOM or a == TOP)

    # -- construction --------------------------------------------------------

    def apply_alpha(self, s: Letter, lo: Anchor = BOTTOM, hi: Anchor = TOP) -> list[int]:
        """Adjoin a fresh path at the levels of ``s`` between the anchors."""
        if not s.valid_for(self.n):
            raise AnchorLevelMismatchError(f"letter {s} exceeds dimension {self.n}")
        if s.lo == 0:
            if lo != BOTTOM:
                raise AnchorLevelMismatchError(f"letter {s} needs the bottom anchor")
        else:
            if not (self.is_real(lo) and self._level.get(lo) == s.lo - 1):
                raise AnchorLevelMismatchError(
                    f"lo anchor for {s} must be a vertex at level {s.lo - 1}"
                )
        if s.hi == self.n:
            if hi != TOP:
                raise AnchorLevelMismatchError(f"letter {s} needs the top anchor")
        else:
            if not (self.is_real(hi) and self._level.get(hi) == s.hi + 1):
                raise AnchorLevelMismatchError(
                    f"hi anchor for {s} must be a vertex at level {s.hi + 1}"
                )
        if self.is_real(lo) and self.is_real(hi) and not self.lies_over(lo, hi):
            raise AnchorsNotOverError(f"anchor {hi} does not lie over {lo}")
        created = []
        prev = lo if self.is_real(lo) else None
        for level in range(s.lo, s.hi + 1):
            v = len(self._level)
            self._level[v] = level
            self._adj[v] = set()
            if prev is not None:
                self._adj[v].add(prev)
                self._adj[prev].add(v)
            created.append(v)
            prev = v
        if self.is_real(hi):
            self._adj[prev].add(hi)
            self._adj[hi].add(prev)
        self.build_log.append(BuildOp(s, lo, hi, tuple(created)))
        return created

    # -- order structure -----------------------------------------------------

    def _closure(self, a: int, step: int, within: set[int] | None) -> set[int]:
        """Vertices reached from ``a`` along edges that change the level by
        ``step``, every vertex after ``a`` lying in ``within`` when given."""
        frontier = [a]
        seen: set[int] = set()
        while frontier:
            v = frontier.pop()
            lw = self._level[v] + step
            for w in self._adj[v]:
                if self._level[w] == lw and w not in seen and (within is None or w in within):
                    seen.add(w)
                    frontier.append(w)
        return seen

    def upward_closure(self, a: Anchor, within: set[int] | None = None) -> set[int]:
        """Vertices lying over the anchor (monotone ascending paths), through
        ``within`` only when given."""
        if a == BOTTOM:
            return set(self._level if within is None else within)
        if a == TOP:
            return set()
        return self._closure(a, +1, within)

    def downward_closure(self, a: Anchor, within: set[int] | None = None) -> set[int]:
        """Vertices lying beneath the anchor, through ``within`` only when
        given."""
        if a == TOP:
            return set(self._level if within is None else within)
        if a == BOTTOM:
            return set()
        return self._closure(a, -1, within)

    def lies_over(self, a: Anchor, b: Anchor) -> bool:
        """True iff ``b`` lies over ``a``; the imaginary anchors lie beneath
        resp. over everything."""
        if a == BOTTOM or b == TOP:
            return True
        if a == TOP or b == BOTTOM:
            return False
        return b in self.upward_closure(a)

    def between(self, a: Anchor, b: Anchor, within: set[int] | None = None) -> set[int]:
        """Vertices strictly between the anchors, joined to both by monotone
        paths through ``within`` when given."""
        return self.upward_closure(a, within) & self.downward_closure(b, within)

    # -- metric ----------------------------------------------------------------

    def distance(self, x: int, y: int, t: Iterable[int]) -> float:
        """Shortest-path length inside the subgraph induced on levels ``t``."""
        tset = set(t)
        if sorted(tset) != list(range(min(tset), max(tset) + 1)):
            raise LevelNotInIntervalError(f"levels {sorted(tset)} are not consecutive")
        if self._level[x] not in tset or self._level[y] not in tset:
            raise LevelNotInIntervalError("endpoint level outside the interval")
        dist = self.distances_from(x, tset)
        return dist.get(y, INF)

    def distances_from(
        self,
        x: int,
        levels: set[int] | None = None,
        within: set[int] | None = None,
    ) -> dict[int, int]:
        """BFS distances from ``x`` restricted to levels / vertex set."""

        def ok(v: int) -> bool:
            if levels is not None and self._level[v] not in levels:
                return False
            return within is None or v in within

        if not ok(x):
            return {}
        dist = {x: 0}
        queue = deque([x])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in dist and ok(w):
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def shortest_path(
        self,
        sources: Iterable[int],
        targets: Container[int],
        within: Container[int],
        levels: Container[int] | None = None,
        reverse: bool = False,
    ) -> list[int] | None:
        """A shortest path from some source to some target through vertices
        of ``within`` on ``levels``, else None.

        Sources and neighbours are tried in ascending id order (descending
        with ``reverse``), so the path returned is deterministic."""

        def ok(v: int) -> bool:
            return v in within and (levels is None or self._level[v] in levels)

        prev: dict[int, int | None] = {}
        queue: deque[int] = deque()
        for v in sorted(sources, reverse=reverse):
            if v not in prev and ok(v):
                prev[v] = None
                queue.append(v)
        while queue:
            v = queue.popleft()
            if v in targets:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            for w in sorted(self._adj[v], reverse=reverse):
                if w not in prev and ok(w):
                    prev[w] = v
                    queue.append(w)
        return None

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [{"id": v, "level": self._level[v]} for v in self.vertices],
            "edges": [list(e) for e in self.edges()],
            "build_log": [
                {
                    "letter": str(op.letter),
                    "lo": op.lo,
                    "hi": op.hi,
                    "created": list(op.created),
                }
                for op in self.build_log
            ],
        }

    @classmethod
    def from_script(cls, script: dict) -> "ColoredSpace":
        """Replay a build script ``{"n": N, "ops": [{letter, lo, hi}, ...]}``."""
        try:
            n = script["n"]
            ops = list(script["ops"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed build script: {exc!r}") from exc
        space = cls(n)
        for i, op in enumerate(ops):
            try:
                letter, lo, hi = op["letter"], op.get("lo", BOTTOM), op.get("hi", TOP)
            except (KeyError, TypeError) as exc:
                raise ParseError(f"malformed build script op {i}: {exc!r}") from exc
            space.apply_alpha(parse_letter(letter), _anchor(lo), _anchor(hi))
        return space

    @classmethod
    def from_json(cls, data: dict) -> "ColoredSpace":
        """Rebuild from an export; the build log is replayed and must
        reproduce the stated graph exactly."""
        space = cls(data["n"])
        for op in data["build_log"]:
            created = space.apply_alpha(
                parse_letter(op["letter"]), _anchor(op["lo"]), _anchor(op["hi"])
            )
            if created != list(op["created"]):
                raise ParseError("build log replay produced different vertex ids")
        stated_edges = {tuple(sorted(e)) for e in data.get("edges", [])}
        if stated_edges and stated_edges != {tuple(e) for e in space.edges()}:
            raise ParseError("build log replay disagrees with the stated edges")
        return space

    def to_dot(self) -> str:
        lines = ["graph pseudospace {", "  rankdir=BT;"]
        for level in range(self.n + 1):
            ids = [v for v in self.vertices if self._level[v] == level]
            if ids:
                ranks = " ".join(f"v{v};" for v in ids)
                lines.append(f"  {{ rank=same; {ranks} }}")
        for v in self.vertices:
            lines.append(f'  v{v} [label="v{v}@{self._level[v]}"];')
        for a, b in self.edges():
            lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines)


def _anchor(raw) -> Anchor:
    if raw in (BOTTOM, TOP):
        return raw
    if isinstance(raw, int):
        return raw
    raise ParseError(f"bad anchor {raw!r}")


# ---------------------------------------------------------------------------
# the defining axioms, checkable on finite spaces


def simply_connected_witness(space: ColoredSpace):
    """First tuple ``(a, b, t, x, y, k)`` violating simple connectivity, else
    None.

    For anchors ``a`` beneath ``b`` and every level interval ``t`` inside the
    closed span ``[level(a), level(b)]``: whenever two vertices between the
    anchors are joined by a ``t``-path of length ``k`` avoiding the anchors,
    some ``t``-path of length at most ``k`` must run entirely between them.
    Checking the shortest avoiding path suffices (the condition is monotone
    in ``k``).
    """
    anchors_lo: list[Anchor] = [BOTTOM] + space.vertices
    anchors_hi: list[Anchor] = space.vertices + [TOP]
    everything = set(space.vertices)
    for a in anchors_lo:
        for b in anchors_hi:
            if a == BOTTOM and b == TOP:
                continue  # empty condition
            if not space.lies_over(a, b):
                continue
            la, lb = space.anchor_level(a), space.anchor_level(b)
            between = space.between(a, b)
            if len(between) < 2:
                continue
            outside = everything - {a, b}
            for t_lo in range(max(la, 0), min(lb, space.n) + 1):
                for t_hi in range(t_lo, min(lb, space.n) + 1):
                    levels = set(range(t_lo, t_hi + 1))
                    pts = sorted(v for v in between if space.level(v) in levels)
                    if len(pts) < 2:
                        continue
                    for x in pts:
                        outer = space.distances_from(x, levels=levels, within=outside)
                        inner = space.distances_from(x, levels=levels, within=between)
                        for y in pts:
                            if y <= x:
                                continue
                            k = outer.get(y, INF)
                            if k < INF and inner.get(y, INF) > k:
                                return (a, b, (t_lo, t_hi), x, y, k)
    return None


def is_simply_connected(space: ColoredSpace) -> bool:
    return simply_connected_witness(space) is None


def is_complete(space: ColoredSpace, region: set[int] | None = None) -> bool:
    """Every vertex of the region extends to a full level-0..N path inside it."""
    region = set(space.vertices) if region is None else set(region)

    def reaches(v: int, closure, goal: int) -> bool:
        return space.level(v) == goal or any(space.level(w) == goal for w in closure(v, region))

    return all(
        reaches(v, space.downward_closure, 0) and reaches(v, space.upward_closure, space.n)
        for v in region
    )


def _interval_sets(n: int) -> list[set[int]]:
    return [set(range(lo, hi + 1)) for lo in range(n + 1) for hi in range(lo, n + 1)]


def nice_witness(space: ColoredSpace, region: set[int], exact: bool = False):
    """Violation witness for niceness (or, with ``exact``, for the stronger
    distance-preserving property), else None.

    Condition 1: for anchors in the region (imaginaries included), the
    between-set computed inside the region equals the region's intersection
    with the ambient between-set.  Condition 2: finite ambient distances at
    every level interval are realized inside the region (with equal length
    when ``exact``).
    """
    region = set(region)
    anchors: list[Anchor] = [BOTTOM, TOP] + sorted(region)
    for a in anchors:
        for b in anchors:
            if not space.lies_over(a, b):
                continue
            inner_between = space.between(a, b, region)
            ambient = space.between(a, b) & region
            if inner_between != ambient:
                return ("between-sets", a, b, sorted(ambient - inner_between))
    for levels in _interval_sets(space.n):
        pts = sorted(v for v in region if space.level(v) in levels)
        for x in pts:
            ambient_d = space.distances_from(x, levels=levels)
            region_d = space.distances_from(x, levels=levels, within=region)
            for y in pts:
                if y == x:
                    continue
                dm = ambient_d.get(y, INF)
                dd = region_d.get(y, INF)
                if exact:
                    if dm != dd:
                        return ("distance", tuple(sorted(levels)), x, y, dm, dd)
                elif dm < INF and dd == INF:
                    return ("distance", tuple(sorted(levels)), x, y, dm, dd)
    return None


def is_nice(space: ColoredSpace, region: set[int]) -> bool:
    return nice_witness(space, region) is None


def is_wunderbar(space: ColoredSpace, region: set[int]) -> bool:
    return nice_witness(space, region, exact=True) is None


def open_pairs(space: ColoredSpace, region: set[int]) -> list[tuple[Anchor, Anchor]]:
    """Anchor pairs over the region with two region vertices between them at
    infinite distance inside the ambient between-subgraph."""
    region = set(region)
    anchors: list[Anchor] = [BOTTOM] + sorted(region) + [TOP]
    out = []
    for a in anchors:
        for b in anchors:
            if a == b or not space.lies_over(a, b):
                continue
            ambient = space.between(a, b)
            pts = sorted(ambient & region)
            if len(pts) < 2:
                continue
            reached = space.distances_from(pts[0], within=ambient)
            if not all(v in reached for v in pts):
                out.append((a, b))
    return out


def nice_hull(space: ColoredSpace, region: set[int], b: int, _depth: int = 0) -> set[int]:
    """Smallest-effort nice superset of ``region`` containing ``b``, built by
    the width/distance induction: adjoin a full fresh connecting chain when
    the vertex sits at infinite distance between its bounding anchors,
    otherwise walk a shortest path into the region first."""
    region = set(region)
    if b in region:
        return region
    if nice_witness(space, region) is not None:
        raise PreconditionError("nice_hull requires a nice starting region")
    if _depth > len(space.vertices) ** 2 + 10:
        raise PreconditionError("nice_hull failed to converge")
    lb = space.level(b)
    lo_anchor: Anchor = BOTTOM
    for level in range(lb - 1, -1, -1):
        cands = [v for v in sorted(region) if space.level(v) == level and space.lies_over(v, b)]
        if cands:
            lo_anchor = cands[0]
            break
    hi_anchor: Anchor = TOP
    for level in range(lb + 1, space.n + 1):
        cands = [v for v in sorted(region) if space.level(v) == level and space.lies_over(b, v)]
        if cands:
            hi_anchor = cands[0]
            break
    ambient = space.between(lo_anchor, hi_anchor)
    targets = ambient & region
    dist = space.distances_from(b, within=ambient)
    reachable = sorted(v for v in targets if v in dist)
    if not reachable:
        chain = _monotone_chain(space, lo_anchor, b) + [b] + _monotone_chain(space, b, hi_anchor)
        return region | set(chain)
    nearest = min(reachable, key=lambda v: (dist[v], v))
    path = space.shortest_path([nearest], {b}, ambient)
    neighbor = path[-2]  # last vertex before b on the connecting path
    if neighbor in region:
        # ruled out by the anchor maximality: an adjacent region vertex
        # between the anchors would have moved the anchor itself
        raise PreconditionError("mis-leveled region passed to nice_hull")
    bigger = nice_hull(space, region, neighbor, _depth + 1)
    return nice_hull(space, bigger, b, _depth + 1)


def _monotone_chain(space: ColoredSpace, a: Anchor, b: Anchor) -> list[int]:
    """Interior of a monotone path from anchor ``a`` up to anchor ``b``
    (both endpoints excluded); deterministic smallest-id choice."""
    la, lb = space.anchor_level(a), space.anchor_level(b)
    if lb - la < 2:
        return []
    down = space.downward_closure(b)
    level = la + 1
    if space.is_real(a):
        frontier = [v for v in sorted(space.neighbors(a)) if space.level(v) == level]
    else:
        frontier = [v for v in space.vertices if space.level(v) == level]
    chain: list[int] = []
    current = next((v for v in sorted(frontier) if v in down or v == b), None)
    while current is not None and current != b:
        chain.append(current)
        if space.level(current) == lb - 1:
            break
        nxt = None
        for w in sorted(space.neighbors(current)):
            if space.level(w) == space.level(current) + 1 and (w in down or w == b):
                nxt = w
                break
        current = nxt
    if len(chain) != lb - la - 1:
        raise PreconditionError(f"no monotone chain between {a} and {b}")
    return chain


def amalgam_isomorphic(space: ColoredSpace, op1: BuildOp, op2: BuildOp) -> bool:
    """Apply two independent operations in either order; the results must be
    isomorphic via the canonical matching of created vertices."""
    s1 = _replay(space)
    a1 = s1.apply_alpha(op1.letter, op1.lo, op1.hi)
    b1 = s1.apply_alpha(op2.letter, op2.lo, op2.hi)
    s2 = _replay(space)
    b2 = s2.apply_alpha(op2.letter, op2.lo, op2.hi)
    a2 = s2.apply_alpha(op1.letter, op1.lo, op1.hi)
    mapping = {v: v for v in space.vertices}
    mapping.update(dict(zip(a1, a2)))
    mapping.update(dict(zip(b1, b2)))
    if sorted(mapping) != s1.vertices or sorted(mapping.values()) != s2.vertices:
        return False
    if any(s1.level(v) != s2.level(mapping[v]) for v in mapping):
        return False
    edges1 = {tuple(sorted((mapping[x], mapping[y]))) for x, y in s1.edges()}
    return edges1 == {tuple(e) for e in s2.edges()}


def _replay(space: ColoredSpace) -> ColoredSpace:
    clone = ColoredSpace(space.n)
    for op in space.build_log:
        clone.apply_alpha(op.letter, op.lo, op.hi)
    return clone
