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

Every reachability question goes through one of five searches on
``ColoredSpace``: ``_reach(v, step, within=None, memo=None)``, the vertices
above or beneath a vertex, inside a region when one is given (``_closure``
adds the imaginary anchors; ``upward_closure``, ``downward_closure`` and
``between`` wrap it); ``lies_over(a, b)``, whether one anchor lies over
another; ``_component(x, within)``, the component of a vertex inside a
region, for "connected or not"; ``distances_from(x, within)``, BFS
distances inside a region; and ``shortest_path(sources, targets, within,
reverse=False)``, a deterministic shortest path inside a region, or None,
asked only where the path itself is needed.  Exact niceness and simple
connectivity compare distances in one scan, ``_shortcut``.

Vertex sets travel through these searches as Python-int bitmasks, bit ``v``
standing for vertex ``v`` (ids are dense).  ``_reach`` is one recursion over
the level DAG: ``up(v)`` is the union over the upper neighbours ``w`` (inside
the region, if any) of ``w`` and ``up(w)``.  Without a region each vertex's
strict up-set and down-set are memoized as masks in ``_up`` and ``_down``,
filled on demand from ``_adj``, so a space whose graph is written directly
needs no rebuild.  With a region the memo lives for one call: a caller that
asks about many vertices of one region (``nice_witness``, ``is_complete``)
keeps one memo per direction for all of them.  A caller that asks whether
many anchors lie over one reads that anchor's up-set once.  ``lies_over``
between two vertices is a bit test when the lower one's up-set is memoized;
otherwise it searches up from it only through the levels below the upper
one's, stops there, and fills no memo.  ``apply_alpha`` checks its anchors
with it, then clears ``_up`` only when its lower anchor is a vertex and
``_down`` only when its upper anchor is one: a chain hung from ``BOTTOM`` is
reached from below by no existing vertex, so no existing up-set changes, and
likewise for ``TOP`` and down-sets.  Regions are masks inside the library and
become ``set[int]`` only at the public API (``upward_closure``,
``downward_closure`` and ``between``).  A restriction to a level interval is
a region too: the searches that need one build the masks of the level
intervals once per call (``_interval_masks``) rather than keep an index,
since tests write ``_level`` and ``_adj`` directly.

Two more memos serve the flag layer and ``open_pairs``, both keyed by an
anchor pair ``(a, b)``: ``_parts`` holds the masks of the components of the
between-set found so far (``_between_part(a, b, x)`` looks one up, with one
``_component`` fill per miss), and ``_chains`` holds the result of
``_monotone_chain(a, b)``, None when there is no chain.  Every insert clears
both, whatever its anchors, unlike ``_up`` and ``_down``: the new vertices
join the between-sets of every anchor pair around them, and a chain may pass
where none did before.

BFS distances are memoized for the life of the space: ``_dist`` maps
``(x, within)`` to the distances ``distances_from(x, within)`` found, and no
insert clears it.  An insert adds only edges that touch a new vertex, so the
subgraph induced on a mask of existing vertices, and every BFS inside it,
never changes, while a mask that holds a new vertex is a new key.  The oracle
measures every level interval after each insert, so the exact niceness of
the prior vertex set reads its BFS back from the memo.  ``_shortcut`` reads
the distance in the whole level interval, usually a memo hit, as a lower
bound of the ambient one, and runs the ambient BFS only for a point whose
region distance exceeds it.  Code that writes ``_adj`` between existing
vertices after a query breaks the invariant and must clear ``_dist`` too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Container, Iterable

from .errors import (
    AnchorLevelMismatchError,
    AnchorsNotOverError,
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
        self._up: dict[int, int] = {}  # vertex -> mask of its strict up-set
        self._down: dict[int, int] = {}  # vertex -> mask of its strict down-set
        # anchor pair -> masks of the components of its between-set found so far
        self._parts: dict[tuple[Anchor, Anchor], list[int]] = {}
        # anchor pair -> its _monotone_chain, None when there is none
        self._chains: dict[tuple[Anchor, Anchor], tuple[int, ...] | None] = {}
        # (x, within) -> BFS distances from x inside the mask; no insert clears it
        self._dist: dict[tuple[int, int], dict[int, int]] = {}
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
        out = self._edge_pairs()
        out.sort()
        return out

    def _edge_pairs(self) -> list[tuple[int, int]]:
        """Every edge once, as ``(v, w)`` with ``v < w``, in no particular order."""
        return [(v, w) for v, adj in self._adj.items() for w in adj if v < w]

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
        lo_real, hi_real = self.is_real(lo), self.is_real(hi)
        if not s.valid_for(self.n):
            raise AnchorLevelMismatchError(f"letter {s} exceeds dimension {self.n}")
        if s.lo == 0:
            if lo != BOTTOM:
                raise AnchorLevelMismatchError(f"letter {s} needs the bottom anchor")
        else:
            if not (lo_real and self._level.get(lo) == s.lo - 1):
                raise AnchorLevelMismatchError(
                    f"lo anchor for {s} must be a vertex at level {s.lo - 1}"
                )
        if s.hi == self.n:
            if hi != TOP:
                raise AnchorLevelMismatchError(f"letter {s} needs the top anchor")
        else:
            if not (hi_real and self._level.get(hi) == s.hi + 1):
                raise AnchorLevelMismatchError(
                    f"hi anchor for {s} must be a vertex at level {s.hi + 1}"
                )
        if lo_real and hi_real and not self.lies_over(lo, hi):
            raise AnchorsNotOverError(f"anchor {hi} does not lie over {lo}")
        created = []
        prev = lo if lo_real else None
        for level in range(s.lo, s.hi + 1):
            v = len(self._level)
            self._level[v] = level
            self._adj[v] = set()
            if prev is not None:
                self._adj[v].add(prev)
                self._adj[prev].add(v)
            created.append(v)
            prev = v
        if hi_real:
            self._adj[prev].add(hi)
            self._adj[hi].add(prev)
        if lo_real:
            self._up.clear()
        if hi_real:
            self._down.clear()
        self._parts.clear()
        self._chains.clear()
        self.build_log.append(BuildOp(s, lo, hi, tuple(created)))
        return created

    # -- order structure -----------------------------------------------------

    def _reach(
        self, v: int, step: int, within: int | None = None, memo: dict | None = None
    ) -> int:
        """Mask of the vertices reached from vertex ``v`` along edges that
        change the level by ``step``, every vertex after ``v`` lying in the
        ``within`` mask when given.  Memoized in ``_up`` or ``_down`` without
        ``within``; with it, in ``memo``, which a caller asking about one
        region keeps for each direction (a fresh dict when None)."""
        if memo is None:
            memo = {} if within is not None else self._up if step > 0 else self._down
        mask = memo.get(v)
        if mask is None:
            mask = 0
            lw = self._level[v] + step
            for w in self._adj[v]:
                if self._level[w] == lw and (within is None or within >> w & 1):
                    mask |= 1 << w | self._reach(w, step, within, memo)
            memo[v] = mask
        return mask

    def _closure(
        self, a: Anchor, step: int, within: int | None = None, memo: dict | None = None
    ) -> int:
        """``_reach`` from an anchor: ``BOTTOM`` reaches everything (inside
        ``within``) upwards and ``TOP`` everything downwards."""
        if not self.is_real(a):
            if (a == BOTTOM) != (step > 0):
                return 0
            return (1 << len(self._level)) - 1 if within is None else within
        return self._reach(a, step, within, memo)

    def upward_closure(self, a: Anchor) -> set[int]:
        """Vertices lying over the anchor (monotone ascending paths)."""
        return set(_members(self._closure(a, +1)))

    def downward_closure(self, a: Anchor) -> set[int]:
        """Vertices lying beneath the anchor."""
        return set(_members(self._closure(a, -1)))

    def lies_over(self, a: Anchor, b: Anchor) -> bool:
        """True iff ``b`` lies over ``a``; the imaginary anchors lie beneath
        resp. over everything.  For two vertices: a bit test when ``a``'s
        up-set is memoized, else a search up from ``a`` through the levels
        below ``b``'s that stops at ``b`` and fills no memo."""
        if a == BOTTOM or b == TOP:
            return True
        if a == TOP or b == BOTTOM:
            return False
        up = self._up.get(a)
        if up is not None:
            return up >> b & 1 == 1
        level, adj, top = self._level, self._adj, self._level[b]
        seen = 1 << a
        stack = [a]
        while stack:
            v = stack.pop()
            lw = level[v] + 1
            if lw == top and b in adj[v]:
                return True
            if lw < top:
                for w in adj[v]:
                    if level[w] == lw and not seen >> w & 1:
                        seen |= 1 << w
                        stack.append(w)
        return False

    def _between(self, a: Anchor, b: Anchor, within: int | None = None) -> int:
        """Mask of the vertices strictly between the anchors, joined to both
        by monotone paths through the ``within`` mask when given."""
        return self._closure(a, +1, within) & self._closure(b, -1, within)

    def _between_part(self, a: Anchor, b: Anchor, x: int) -> int:
        """Mask of the component of vertex ``x`` inside the between-set of the
        anchors, 0 when ``x`` lies outside it.  The components found are kept
        per anchor pair in ``_parts`` until the next insert; a miss costs one
        ``_component`` fill."""
        parts = self._parts.get((a, b))
        if parts is None:
            parts = self._parts[(a, b)] = []
        for part in parts:
            if part >> x & 1:
                return part
        part = self._component(x, self._between(a, b))
        if part:
            parts.append(part)
        return part

    def between(self, a: Anchor, b: Anchor, within: set[int] | None = None) -> set[int]:
        """Vertices strictly between the anchors, joined to both by monotone
        paths through ``within`` when given."""
        return set(_members(self._between(a, b, None if within is None else _mask_of(within))))

    # -- metric ----------------------------------------------------------------

    def _interval_masks(self) -> dict[tuple[int, int], int]:
        """Mask of the vertices at levels ``lo..hi`` for every level interval
        ``(lo, hi)``, in the order ``lo`` ascending, then ``hi`` ascending."""
        by_level = [0] * (self.n + 1)
        for v, level in self._level.items():
            by_level[level] |= 1 << v
        out = {}
        for lo in range(self.n + 1):
            mask = 0
            for hi in range(lo, self.n + 1):
                mask |= by_level[hi]
                out[(lo, hi)] = mask
        return out

    def _component(self, x: int, within: int) -> int:
        """Mask of the component of ``x`` in the subgraph induced on the
        ``within`` mask, 0 when ``x`` lies outside it."""
        if not within >> x & 1:
            return 0
        rest = within ^ 1 << x  # the part of ``within`` not reached yet
        frontier = [x]
        while frontier:
            for w in self._adj[frontier.pop()]:
                if rest >> w & 1:
                    rest ^= 1 << w
                    frontier.append(w)
        return within & ~rest

    def distances_from(self, x: int, within: int) -> dict[int, int]:
        """BFS distances from ``x`` through the vertices of the ``within``
        mask, kept in ``_dist``; callers must not change the dict returned."""
        if not within >> x & 1:
            return {}
        dist = self._dist.get((x, within))
        if dist is None:
            dist = self._dist[(x, within)] = {x: 0}
            queue = deque([x])
            while queue:
                v = queue.popleft()
                d = dist[v] + 1
                for w in self._adj[v]:
                    if w not in dist and within >> w & 1:
                        dist[w] = d
                        queue.append(w)
        return dist

    def shortest_path(
        self,
        sources: Iterable[int],
        targets: Container[int],
        within: int,
        reverse: bool = False,
    ) -> list[int] | None:
        """A shortest path from some source to some target through vertices
        of the ``within`` mask, else None.

        Sources and neighbours are tried in ascending id order (descending
        with ``reverse``), so the path returned is deterministic."""
        prev: dict[int, int | None] = {}
        queue: deque[int] = deque()
        for v in sorted(sources, reverse=reverse):
            if v not in prev and within >> v & 1:
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
                if w not in prev and within >> w & 1:
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
        """Rebuild from an export; the replayed build log must reproduce the
        ids each op created and the stated edges exactly."""
        space = cls(data["n"])
        for op in data["build_log"]:
            created = space.apply_alpha(
                parse_letter(op["letter"]), _anchor(op["lo"]), _anchor(op["hi"])
            )
            if created != list(op["created"]):
                raise ParseError("build log replay produced different vertex ids")
        if "edges" not in data:
            raise ParseError("export states no edges")
        # JSON true and false equal 1 and 0, but are no vertex ids
        stated = chain(*(op["created"] for op in data["build_log"]), *data["edges"])
        if not set(map(type, stated)) <= {int}:
            raise ParseError("stated vertex ids must be integers")
        if {tuple(sorted(e)) for e in data["edges"]} != set(space._edge_pairs()):
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


def _mask_of(vertices: Iterable[int]) -> int:
    """The bitmask of a set of vertex ids."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _lowest(mask: int) -> int:
    """The least vertex id of a non-empty bitmask."""
    return (mask & -mask).bit_length() - 1


def _members(mask: int) -> list[int]:
    """The vertex ids of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _anchor(raw) -> Anchor:
    if raw in (BOTTOM, TOP) or type(raw) is int:  # JSON true is no vertex id
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
    everything = _mask_of(space.vertices)
    intervals = space._interval_masks()
    for a in [BOTTOM] + space.vertices:
        up = space._closure(a, +1)
        # the pair (BOTTOM, TOP) has an empty condition
        for b in _members(up) + ([TOP] if a != BOTTOM else []):
            la, lb = space.anchor_level(a), space.anchor_level(b)
            between = up & space._closure(b, -1)
            outside = everything & ~_mask_of(v for v in (a, b) if space.is_real(v))
            span = range(max(la, 0), min(lb, space.n) + 1)
            found = _shortcut(space, between, outside, (
                ((lo, hi), intervals[(lo, hi)]) for lo in span for hi in span if lo <= hi
            ))
            if found is not None:
                return (a, b, *found[:4])  # k is the distance avoiding the anchors
    return None


def _shortcut(space: ColoredSpace, region: int, ambient: int, intervals):
    """First ``(t, x, y, d_ambient, d_region)`` where region points ``x < y``
    on the ``levels`` mask of ``(t, levels)`` in ``intervals`` are nearer
    inside the ``ambient`` mask than inside the ``region`` mask, which lies
    inside it; else None.  Intervals are scanned in order, then ``x`` and
    ``y`` ascending; one with fewer than two region points, or where the two
    masks agree, holds no shortcut.  The distance inside the whole of
    ``levels`` bounds the ambient one from below, so a ``y`` no farther
    inside the region than that holds no shortcut, and the ambient BFS from
    ``x`` runs only once some ``y`` is."""
    for t, levels in intervals:
        pts = region & levels
        around = ambient & levels
        if pts.bit_count() < 2 or pts == around:
            continue
        members = _members(pts)
        for i, x in enumerate(members[:-1]):
            bound = space.distances_from(x, levels)
            region_d = space.distances_from(x, pts)
            ambient_d = bound if around == levels else None
            for y in members[i + 1 :]:
                dd = region_d.get(y, INF)
                if dd <= bound.get(y, INF):
                    continue
                if ambient_d is None:
                    ambient_d = space.distances_from(x, around)
                dm = ambient_d.get(y, INF)
                if dd > dm:
                    return t, x, y, dm, dd
    return None


def is_complete(space: ColoredSpace, region: set[int] | None = None) -> bool:
    """Every vertex of the region extends to a full level-0..N path inside it."""
    region = set(space.vertices) if region is None else set(region)
    inside = _mask_of(region)
    bottom = _mask_of(v for v in region if space.level(v) == 0)
    top = _mask_of(v for v in region if space.level(v) == space.n)

    memo = {+1: {}, -1: {}}  # one per direction for every vertex of the region

    def reaches(v: int, step: int, goal: int) -> bool:
        return bool((1 << v | space._reach(v, step, inside, memo[step])) & goal)

    return all(reaches(v, -1, bottom) and reaches(v, +1, top) for v in region)


def nice_witness(space: ColoredSpace, region: set[int], exact: bool = False):
    """Violation witness for niceness (or, with ``exact``, for the stronger
    distance-preserving property), else None.

    Condition 1: for anchors in the region (imaginaries included), the
    between-set computed inside the region equals the region's intersection
    with the ambient between-set.  Condition 2: finite ambient distances at
    every level interval are realized inside the region (with equal length
    when ``exact``).

    Pairs are scanned anchor ``a``, then ``b``, and level interval, then
    ``x``, then ``y``, each ascending, and the first violation is returned.
    Condition 1 holds exactly when every anchor's up-set and down-set inside
    the region equal its ambient ones cut to the region, since the pairs
    ``(a, TOP)`` and ``(BOTTOM, b)`` are among those scanned; so the pair
    scan runs only to name the first witness.
    Without ``exact``, condition 2 asks only that region points joined in the
    ambient interval are joined inside the region.  So for each region
    component one flood fill inside the region and one in the interval find
    the least ``x`` whose ambient component holds region points outside its
    region component, and one BFS measures the distance to the least such
    ``y``.
    """
    inside = _mask_of(region)
    ids = _members(inside)
    anchors: list[Anchor] = [BOTTOM, TOP] + ids
    # a pair with b not over a has empty between-sets, inside and ambient
    up_memo, down_memo = {}, {}
    up_inside = [space._closure(a, +1, inside, up_memo) for a in anchors]
    down_inside = [space._closure(b, -1, inside, down_memo) for b in anchors]
    up_ambient = [space._closure(a, +1) & inside for a in anchors]
    down_ambient = [space._closure(b, -1) & inside for b in anchors]
    if up_inside != up_ambient or down_inside != down_ambient:
        for i, a in enumerate(anchors):
            for j, b in enumerate(anchors):
                ambient = up_ambient[i] & down_ambient[j]
                missing = ambient & ~(up_inside[i] & down_inside[j])
                if missing:
                    return ("between-sets", a, b, _members(missing))
    intervals = space._interval_masks()
    if exact:
        labelled = ((tuple(range(lo, hi + 1)), levels) for (lo, hi), levels in intervals.items())
        found = _shortcut(space, inside, _mask_of(space._level), labelled)
        return None if found is None else ("distance", *found)
    for (lo, hi), levels in intervals.items():
        pts = inside & levels
        todo = pts
        while todo:
            x = _lowest(todo)
            joined = space._component(x, pts)
            apart = space._component(x, levels) & pts & ~joined
            if apart:
                y = _lowest(apart)
                dm = space.distances_from(x, levels)[y]
                return ("distance", tuple(range(lo, hi + 1)), x, y, dm, INF)
            todo &= ~joined
    return None


def is_nice(space: ColoredSpace, region: set[int]) -> bool:
    return nice_witness(space, region) is None


def open_pairs(space: ColoredSpace, region: set[int]) -> list[tuple[Anchor, Anchor]]:
    """Anchor pairs over the region with two region vertices between them at
    infinite distance inside the ambient between-subgraph: those whose
    region points leave the between-set component (``_between_part``) of
    the lowest one."""
    inside = _mask_of(region)
    anchors: list[Anchor] = [BOTTOM] + _members(inside) + [TOP]
    # a pair with b not over a (a == b included) has an empty between-set
    ups = [space._closure(a, +1) for a in anchors]
    downs = [space._closure(b, -1) for b in anchors]
    out = []
    for i, a in enumerate(anchors):
        for j, b in enumerate(anchors):
            pts = ups[i] & downs[j] & inside
            if pts.bit_count() < 2:
                continue
            if pts & ~space._between_part(a, b, _lowest(pts)):
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
    inside = _mask_of(region)
    # the region vertices beneath and over b nearest its level, least id first
    lo_anchor: Anchor = max(
        _members(space._closure(b, -1) & inside),
        key=lambda v: (space.level(v), -v), default=BOTTOM,
    )
    hi_anchor: Anchor = min(
        _members(space._closure(b, +1) & inside),
        key=lambda v: (space.level(v), v), default=TOP,
    )
    ambient = space._between(lo_anchor, hi_anchor)
    dist = space.distances_from(b, within=ambient)
    reachable = [v for v in _members(ambient & inside) if v in dist]
    if not reachable:
        down, up = _monotone_chain(space, lo_anchor, b), _monotone_chain(space, b, hi_anchor)
        return region | {*down, b, *up}
    nearest = min(reachable, key=lambda v: (dist[v], v))
    path = space.shortest_path([nearest], {b}, ambient)
    neighbor = path[-2]  # last vertex before b on the connecting path
    if neighbor in region:
        # ruled out by the anchor maximality: an adjacent region vertex
        # between the anchors would have moved the anchor itself
        raise PreconditionError("mis-leveled region passed to nice_hull")
    bigger = nice_hull(space, region, neighbor, _depth + 1)
    return nice_hull(space, bigger, b, _depth + 1)


def _monotone_chain(space: ColoredSpace, a: Anchor, b: Anchor) -> tuple[int, ...]:
    """Interior of a monotone path from anchor ``a`` up to anchor ``b``
    (both endpoints excluded): from ``a``, step to the least upper neighbour
    (the least level-0 vertex from ``BOTTOM``) that lies beneath ``b``.  Kept
    per anchor pair in ``space._chains``, None when there is no chain, until
    the next insert."""
    if (a, b) not in space._chains:
        down = space._closure(b, -1)
        level, adj = space._level, space._adj
        chain: list[int] | None = []
        v = a
        for lw in range(space.anchor_level(a) + 1, space.anchor_level(b)):
            if space.is_real(v):
                v = min((w for w in adj[v] if down >> w & 1 and level[w] == lw), default=None)
            else:
                rest = down
                while rest and level[_lowest(rest)] != lw:
                    rest &= rest - 1
                v = _lowest(rest) if rest else None
            if v is None:
                chain = None
                break
            chain.append(v)
        space._chains[(a, b)] = None if chain is None else tuple(chain)
    chain = space._chains[(a, b)]
    if chain is None:
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
