"""Finite colored N-spaces built from the empty space by path-adjoining
operations.

A colored N-space is a leveled graph: every vertex carries a level in
``[0, N]`` and edges join adjacent levels only.  Two imaginary anchors,
``BOTTOM`` below level 0 and ``TOP`` above level N, are adjacent to every
level-0 and level-N vertex respectively.  The only insert is
``apply_alpha``: adjoin a fresh chain of vertices at the levels of a letter
between two anchors, one of which must lie over the other.  Spaces built this
way are exactly the desk-scale strong extensions of the empty space; the
previously built part stays wunderbar in every extension, so graph distances
measured here are absolute.  ``from_graph`` makes a checked hand-made graph
with no build log, such as a relabeled copy.

An insert records one ``BuildOp`` in ``build_log``: the letter, the two
anchors and the ids it created, the next free ones in level order.  Loading a
space costs one replay and one linear check: ``from_script`` and
``from_json`` both replay through ``apply_alpha``, and there is no other
insert path.  ``from_json`` checks, in this order: the keys ``n``, ``edges``
and ``build_log``; then op by op its keys, its letter and anchors, the
insert's own checks, and that the stated ``created`` ids equal the ids the
replay made and are all ints; then, in one pass, that each stated edge is a
pair of ints (``_stated_edges``, either orientation, repeats allowed) that
is an edge of the replay; last, that the distinct stated edges are as many
as the replay's edges.  The stated ``vertices`` are not read.

"Infinite distance" means plain unreachability in the finite graph.

Every reachability question goes through one of five searches on
``ColoredSpace``: ``_reach(v, step, within=None, memo=None)``, the vertices
above or beneath a vertex, inside a region when one is given (``_closure``
adds the imaginary anchors and ``upward_closure`` and ``downward_closure``
wrap it; ``_between`` intersects two closures, and ``between`` wraps that);
``lies_over(a, b)``, whether one anchor lies over another;
``_component(x, within)``, the component of a vertex inside a region, for
"connected or not"; ``distances_from(x, within)``, BFS distances inside a
region; and ``shortest_path(sources, targets, within)``, the shortest path
inside a region that ascending ids pick first, or None, asked only where the
path itself is needed.  Exact niceness and simple connectivity compare
distances in one scan, ``_shortcut``.

Vertex sets travel through these searches as Python-int bitmasks, bit ``v``
standing for vertex ``v`` (ids are dense).  ``_reach`` is one recursion over
the level DAG: ``up(v)`` is the union over the upper neighbours ``w`` (inside
the region, if any) of ``w`` and ``up(w)``.  With a region its memo lives for
one call: ``nice_witness``, when it names a witness, keeps one for the
down-sets of every vertex of its region.  A caller that asks whether many
anchors lie over one reads that anchor's up-set once.  ``lies_over`` between
two vertices is a bit test when the lower one's up-set is memoized;
otherwise it searches up from it only through the levels below the upper
one's, stops there, and fills no memo.  Regions are masks inside the library
and become ``set[int]`` only at the public API (``upward_closure``,
``downward_closure`` and ``between``, which take no region).  A restriction
to a level interval is a region too: the searches that need one read the
masks of all level intervals from ``_interval_masks``.

``ColoredSpace`` keeps seven memos, filled on demand from ``_adj`` and
``_level``, so a space made by ``from_graph`` needs no rebuild.  Each follows
one of two rules: an insert clears what it can change, and every other memo
is keyed so that no insert can change its answer.

An insert clears four.  ``_up`` and ``_down`` hold each vertex's strict
up-set and down-set; ``apply_alpha`` clears ``_up`` only when its lower
anchor is a vertex and ``_down`` only when its upper anchor is one, since a
chain hung from ``BOTTOM`` is reached from below by no old vertex, and
likewise for ``TOP``.  ``_intervals`` holds the masks of the level
intervals, and ``_anchor_parts`` maps ``(a, b, x)`` to
``_anchor_part(a, b, x)``, the component of vertex ``x`` inside the
between-set of anchors ``a`` and ``b``, which the flag layer asks for at
every step.  Every insert clears both: it adds a vertex to some interval,
and it can grow a between-set and so a component.  Reading them is one
lookup, with no check that they are current.

No insert clears the other three.  An insert adds vertices with ids above
every old one and edges that touch a new vertex only, between anchors that
lie over each other, so the subgraph induced on a mask of old vertices never
changes, nor does the set of old vertices beneath or over an old one.
``_dist`` maps ``(x, within)`` to the BFS distances from ``x`` inside the
mask, and ``_parts`` maps a region mask to the masks of its components found
so far (``_part(within, x)``, one ``_component`` fill per miss); a mask that
holds a new vertex is a new key.  ``_anchor_part`` and ``open_pairs`` read
``_parts`` under the between-set mask of two anchors, and non-exact niceness
under a level-interval mask.  ``_chains`` maps an anchor pair to its
``_monotone_chain``, whose least-id choice at each level no new id can
displace; a missing chain is not kept, as an insert may make one.  Code that
writes ``_adj`` between existing vertices breaks the rules and must clear
every memo but ``_intervals``, which reads levels only.

The oracle measures every level interval after each insert, so the exact
niceness of the prior vertex set reads its BFS back from ``_dist``.
``_shortcut`` reads the distance in the whole level interval, usually a memo
hit, as a lower bound of the ambient one, and runs the ambient BFS only for
a point whose region distance exceeds it.

Edges join adjacent levels only, so a single-level interval has no edges and
holds no witness: niceness and simple connectivity scan only the intervals
of two levels or more.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Container, Iterable, Iterator, Sequence
from typing import NamedTuple

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


class BuildOp(NamedTuple):
    """One insert of the build log: the letter, the anchors and the ids of
    the vertices it created, in level order."""

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
        # (lo, hi) -> mask of the vertices at levels lo..hi
        self._intervals: dict[tuple[int, int], int] = {}
        # (a, b, x) -> _anchor_part(a, b, x)
        self._anchor_parts: dict[tuple[Anchor, Anchor, int], int] = {}
        # no insert clears these three (module docstring)
        # region mask -> masks of its components found so far
        self._parts: dict[int, list[int]] = {}
        # anchor pair -> its _monotone_chain, once one is found
        self._chains: dict[tuple[Anchor, Anchor], tuple[int, ...]] = {}
        # (x, within) -> BFS distances from x inside the mask
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
        """Every edge once, as ``(v, w)`` with ``v < w``, ascending."""
        out = [(v, w) for v, adj in self._adj.items() for w in adj if v < w]
        out.sort()
        return out

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
        """Adjoin a fresh path at the levels of ``s`` between the anchors.

        A real anchor must be a vertex (a plain ``int``, so not ``True`` or
        ``0.0``) one level below resp. above ``s``; ``_level.get`` of an
        imaginary one is None, so that one test also refuses ``BOTTOM`` and
        ``TOP`` where a vertex is needed."""
        level, adj = self._level, self._adj
        s_lo, s_hi = s.lo, s.hi
        if s_hi > self.n:
            raise AnchorLevelMismatchError(f"letter {s} exceeds dimension {self.n}")
        if s_lo == 0:
            if lo != BOTTOM:
                raise AnchorLevelMismatchError(f"letter {s} needs the bottom anchor")
        elif type(lo) is not int or level.get(lo) != s_lo - 1:
            raise AnchorLevelMismatchError(f"lo anchor for {s} must be a vertex at level {s_lo - 1}")
        if s_hi == self.n:
            if hi != TOP:
                raise AnchorLevelMismatchError(f"letter {s} needs the top anchor")
        elif type(hi) is not int or level.get(hi) != s_hi + 1:
            raise AnchorLevelMismatchError(f"hi anchor for {s} must be a vertex at level {s_hi + 1}")
        lo_real, hi_real = s_lo > 0, s_hi < self.n
        if lo_real and hi_real and not self.lies_over(lo, hi):
            raise AnchorsNotOverError(f"anchor {hi} does not lie over {lo}")
        first = len(level)
        created = list(range(first, first + s_hi - s_lo + 1))
        shift = first - s_lo
        prev = lo if lo_real else None
        for v in created:
            level[v] = v - shift
            if prev is None:
                adj[v] = set()
            else:
                adj[v] = {prev}
                adj[prev].add(v)
            prev = v
        if hi_real:
            adj[prev].add(hi)
            adj[hi].add(prev)
            self._down.clear()
        if lo_real:
            self._up.clear()
        self._anchor_parts.clear()
        self._intervals = {}  # a new dict, as a caller may still read the old masks
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

    def _closure(self, a: Anchor, step: int) -> int:
        """``_reach`` from an anchor: ``BOTTOM`` reaches everything upwards
        and ``TOP`` everything downwards."""
        if not self.is_real(a):
            return (1 << len(self._level)) - 1 if (a == BOTTOM) == (step > 0) else 0
        return self._reach(a, step)

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

    def _between(self, a: Anchor, b: Anchor) -> int:
        """Mask of the vertices strictly between the anchors, the key of
        their between-set in ``_parts`` and the answer of ``between``.
        ``_anchor_part`` asks for it on every miss, so a memoized up- or
        down-set is read directly and an imaginary anchor's side constrains
        nothing."""
        if a == BOTTOM:
            return self._closure(b, -1)
        up = self._up.get(a)
        if up is None:
            up = self._closure(a, +1)
        if b == TOP:
            return up
        down = self._down.get(b)
        return up & (self._closure(b, -1) if down is None else down)

    def between(self, a: Anchor, b: Anchor) -> set[int]:
        """Vertices strictly between the anchors."""
        return set(_members(self._between(a, b)))

    # -- metric ----------------------------------------------------------------

    def _interval_masks(self) -> dict[tuple[int, int], int]:
        """Mask of the vertices at levels ``lo..hi`` for every level interval
        ``(lo, hi)``, in the order ``lo`` ascending, then ``hi`` ascending.
        Kept in ``_intervals`` until the next insert; callers only read it."""
        if not self._intervals:
            by_level = [0] * (self.n + 1)
            for v, level in self._level.items():
                by_level[level] |= 1 << v
            for lo in range(self.n + 1):
                mask = 0
                for hi in range(lo, self.n + 1):
                    mask |= by_level[hi]
                    self._intervals[(lo, hi)] = mask
        return self._intervals

    def _part(self, within: int, x: int) -> int:
        """Mask of the component of vertex ``x`` inside the ``within`` mask,
        0 when ``x`` lies outside it.  The components found are kept per mask
        in ``_parts`` for the life of the space; a miss costs one
        ``_component`` fill."""
        parts = self._parts.get(within)
        if parts is None:
            parts = self._parts[within] = []
        for part in parts:
            if part >> x & 1:
                return part
        part = self._component(x, within)
        if part:
            parts.append(part)
        return part

    def _anchor_part(self, a: Anchor, b: Anchor, x: int) -> int:
        """``_part(_between(a, b), x)``, kept in ``_anchor_parts`` until the
        next insert, which can grow the between-set, while ``_parts`` keys a
        component by the mask it lies in."""
        key = (a, b, x)
        part = self._anchor_parts.get(key)
        if part is None:
            part = self._anchor_parts[key] = self._part(self._between(a, b), x)
        return part

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
        self, sources: Iterable[int], targets: Container[int], within: int
    ) -> list[int] | None:
        """A shortest path from some source to some target through vertices
        of the ``within`` mask, else None.

        Sources and neighbours are tried in ascending id order, so the path
        returned is deterministic."""
        prev: dict[int, int | None] = {v: None for v in sorted(sources) if within >> v & 1}
        queue = deque(prev)
        while queue:
            v = queue.popleft()
            if v in targets:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            for w in sorted(self._adj[v]):
                if w not in prev and within >> w & 1:
                    prev[w] = v
                    queue.append(w)
        return None

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        # ``edges()`` made as lists: one object per edge, not a tuple and a copy
        edges = [[v, w] for v, adj in self._adj.items() for w in adj if v < w]
        edges.sort()
        return {
            "n": self.n,
            "vertices": [{"id": v, "level": self._level[v]} for v in self.vertices],
            "edges": edges,
            "build_log": [
                {"letter": str(letter), "lo": lo, "hi": hi, "created": list(created)}
                for letter, lo, hi, created in self.build_log
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
    def from_graph(cls, n: int, levels: Sequence[int], edges: Iterable) -> "ColoredSpace":
        """A hand-made space with no build log: vertex ``v`` at ``levels[v]``.
        Levels that are no sequence, a level that is no int in ``[0, n]``, an
        edge that is no pair of ints (``_stated_edges``), one naming an unknown
        vertex or one not joining adjacent levels is a ``ParseError``."""
        space = cls(n)
        if not isinstance(levels, Sequence):
            raise ParseError(f"levels {levels!r} are no sequence")
        for v, level in enumerate(levels):
            if type(level) is not int or not 0 <= level <= n:  # JSON true is no level
                raise ParseError(f"vertex {v} has level {level!r}, not one in [0, {n}]")
            space._level[v], space._adj[v] = level, set()
        for v, w in _stated_edges(edges):
            if v not in space._adj or w not in space._adj:
                raise ParseError(f"edge ({v}, {w}) names an unknown vertex")
            if abs(space._level[v] - space._level[w]) != 1:
                raise ParseError(f"edge ({v}, {w}) does not join adjacent levels")
            space._adj[v].add(w)
            space._adj[w].add(v)
        return space

    @classmethod
    def from_json(cls, data: dict) -> "ColoredSpace":
        """Rebuild from an export by one replay of its build log and one pass
        over its stated edges, checked in the order the module docstring
        gives.  A malformed export (a missing key, a container of the wrong
        type) is a ``ParseError``."""
        try:
            n, edges, log = data["n"], data["edges"], iter(data["build_log"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed space export: {exc!r}") from exc
        space = cls(n)
        for i, op in enumerate(log):
            try:
                letter, lo, hi, stated = op["letter"], op["lo"], op["hi"], list(op["created"])
            except (KeyError, TypeError) as exc:
                raise ParseError(f"malformed build log op {i}: {exc!r}") from exc
            if space.apply_alpha(parse_letter(letter), _anchor(lo), _anchor(hi)) != stated:
                raise ParseError(f"build log op {i}: the replay made other ids than {stated}")
            for v in stated:
                if type(v) is not int:  # JSON true equals 1, but is no vertex id
                    raise ParseError(f"build log op {i} states a vertex id {v!r}")
        adj = space._adj
        seen = set()
        for pair in _stated_edges(edges):
            if pair[1] not in adj.get(pair[0], ()):
                raise ParseError(f"stated edge {pair} is no edge of the build log replay")
            seen.add(pair)
        if 2 * len(seen) != sum(map(len, adj.values())):
            raise ParseError("the stated edges miss an edge of the build log replay")
        return space

    def to_dot(self) -> str:
        lines = ["graph pseudospace {", "  rankdir=BT;"]
        ids = self.vertices
        rows: list[list[int]] = [[] for _ in range(self.n + 1)]
        for v in ids:
            rows[self._level[v]].append(v)
        for row in rows:
            if row:
                ranks = " ".join(f"v{v};" for v in row)
                lines.append(f"  {{ rank=same; {ranks} }}")
        for v in ids:
            lines.append(f'  v{v} [label="v{v}@{self._level[v]}"];')
        for a, b in self.edges():
            lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines)


def _stated_edges(edges: Iterable) -> Iterator[tuple[int, int]]:
    """Each edge of a stated edge list as ``(v, w)`` with ``v < w``.  A list
    that is no iterable, an edge that is no pair and an end that is no int
    are ``ParseError``s naming what was stated."""
    try:
        stated = iter(edges)
    except TypeError:
        raise ParseError(f"edges {edges!r} are no list") from None
    for e in stated:
        try:
            v, w = e
        except (TypeError, ValueError):
            raise ParseError(f"edge {e!r} is no pair of vertex ids") from None
        if type(v) is not int or type(w) is not int:  # JSON true is no vertex id
            raise ParseError(f"edge {e!r} names a vertex id that is no int")
        yield (v, w) if v < w else (w, v)


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
                ((lo, hi), intervals[(lo, hi)]) for lo in span for hi in span if lo < hi
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


def is_complete(space: ColoredSpace) -> bool:
    """Every vertex extends to a full level-0..N path.  Edges join adjacent
    levels only, so this holds iff every vertex above level 0 has a lower
    neighbour and every vertex below level N an upper one."""
    level, n = space._level, space.n
    for v, adj in space._adj.items():
        lv = level[v]
        if (lv > 0 and all(level[w] > lv for w in adj)) or (lv < n and all(level[w] < lv for w in adj)):
            return False
    return True


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
    ``(a, TOP)`` and ``(BOTTOM, b)`` are among those scanned.  The imaginary
    anchors' always do.  ``w`` lies over ``v`` inside the region iff ``v``
    lies beneath ``w`` inside it, so the up-sets agree for every region
    vertex iff the down-sets do, and ``_up_sets_agree`` tests up-sets only.
    On a failure some down-set differs, and the first pair scanned whose
    between-sets differ is ``(BOTTOM, b)``, ``b`` the least region vertex
    whose down-set inside the region misses part of its ambient one cut to
    the region: ``BOTTOM`` comes first, and ``(BOTTOM, BOTTOM)`` and
    ``(BOTTOM, TOP)`` never differ.  So the witness is named from the
    down-sets alone, with one memo for the region.
    Without ``exact``, condition 2 asks only that region points joined in the
    ambient interval are joined inside the region.  So for each region
    component one flood fill inside the region and one ambient component,
    read from the space's ``_parts`` under the interval's mask, find the
    least ``x`` whose ambient component holds region points outside its
    region component, and one BFS measures the distance to the least such
    ``y``.  Single-level
    intervals, which have no edges, are skipped in both modes.
    """
    inside = _mask_of(region)
    ids = _members(inside)
    if not _up_sets_agree(space, inside, ids):
        memo: dict = {}
        for b in ids:
            missing = space._reach(b, -1) & inside & ~space._reach(b, -1, inside, memo)
            if missing:
                return ("between-sets", BOTTOM, b, _members(missing))
    # a single-level interval has no edges, so it holds no witness
    intervals = [(t, levels) for t, levels in space._interval_masks().items() if t[0] < t[1]]
    if exact:
        labelled = ((tuple(range(lo, hi + 1)), levels) for (lo, hi), levels in intervals)
        found = _shortcut(space, inside, _mask_of(space._level), labelled)
        return None if found is None else ("distance", *found)
    for (lo, hi), levels in intervals:
        pts = inside & levels
        todo = pts
        while todo:
            x = _lowest(todo)
            joined = space._component(x, pts)
            apart = space._part(levels, x) & pts & ~joined
            if apart:
                y = _lowest(apart)
                dm = space.distances_from(x, levels)[y]
                return ("distance", tuple(range(lo, hi + 1)), x, y, dm, INF)
            todo &= ~joined
    return None


def _up_sets_agree(space: ColoredSpace, inside: int, ids: list[int]) -> bool:
    """True iff each vertex of ``ids``, the ``inside`` mask's, has its
    ambient up-set cut to the mask as up-set inside it: by induction from the
    top level, iff that cut is the union over its upper neighbours ``w`` in
    the mask of ``w`` and ``w``'s cut, in one pass over the ambient memo."""
    cut = {v: space._reach(v, +1) & inside for v in ids}
    level, adj = space._level, space._adj
    for v in ids:
        lw, joined = level[v] + 1, 0
        for w in adj[v]:
            if w in cut and level[w] == lw:
                joined |= 1 << w | cut[w]
        if joined != cut[v]:
            return False
    return True


def is_nice(space: ColoredSpace, region: set[int]) -> bool:
    return nice_witness(space, region) is None


def open_pairs(space: ColoredSpace, region: set[int]) -> list[tuple[Anchor, Anchor]]:
    """Anchor pairs over the region with two region vertices between them at
    infinite distance inside the ambient between-subgraph: those whose
    region points leave the component of the lowest one inside the
    between-set, read from the space's ``_parts`` under the between mask."""
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
            if pts & ~space._part(ups[i] & downs[j], _lowest(pts)):
                out.append((a, b))
    return out


def _monotone_chain(space: ColoredSpace, a: Anchor, b: Anchor) -> tuple[int, ...]:
    """Interior of a monotone path from anchor ``a`` up to anchor ``b``
    (both endpoints excluded): from ``a``, step to the least upper neighbour
    (the least level-0 vertex from ``BOTTOM``) that lies beneath ``b``.

    A chain found is kept per anchor pair in ``space._chains`` for the life
    of the space: an insert never changes which old vertices lie beneath
    ``b``, and its ids exceed every old one, so no least-id choice changes.
    A missing chain, which only hand-made graphs have, is not kept, since an
    insert may make one."""
    chain = space._chains.get((a, b))
    if chain is not None:
        return chain
    down = space._closure(b, -1)
    level, adj = space._level, space._adj
    found = []
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
            raise PreconditionError(f"no monotone chain between {a} and {b}")
        found.append(v)
    chain = space._chains[(a, b)] = tuple(found)
    return chain


def amalgam_isomorphic(space: ColoredSpace, op1: BuildOp, op2: BuildOp) -> bool:
    """Apply two independent operations in either order; the results must be
    isomorphic via the canonical matching of created vertices."""
    levels = [space.level(v) for v in space.vertices]
    s1 = ColoredSpace.from_graph(space.n, levels, space.edges())
    a1 = s1.apply_alpha(op1.letter, op1.lo, op1.hi)
    b1 = s1.apply_alpha(op2.letter, op2.lo, op2.hi)
    s2 = ColoredSpace.from_graph(space.n, levels, space.edges())
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
