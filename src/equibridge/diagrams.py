"""Oriented planar diagrams for 4-plat closures of continued fractions.

The diagram of [a1, ..., am] is built as a rational-tangle staircase,
consuming entries from the innermost outward: odd positions become east
twist blocks (the middle strand pair of the flattened plat), even positions
south twist blocks (the bottom pair).  The numerator closure caps the two
top ends and the two bottom ends.  Every edge carries an explicit
axis-aligned polyline so the Seifert machinery can decide circle nesting
exactly.

Crossing geometry is canonical: strand A occupies the NW-SE diagonal and
strand B the SW-NE diagonal.  With both strands oriented NW->SE and SW->NE
the crossing sign is +1 exactly when A is on top, so a crossing is nothing
but that over-flag: its place in the plane is fixed by its four edges.

An edge meets a crossing at an anchor, the integer 4 * crossing + slot for
the corner slots NW, NE, SE, SW below.  Strand A holds the even slots and
strand B the odd ones, so anchor ^ 2 is the far end of the same strand.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .laurent import DomainError, InvariantViolation
from .presentations import I1Presentation

Point = tuple[int, int]

NW, NE, SE, SW = range(4)


class PDEdge:
    """An edge along the polyline `points`, from anchor a to anchor b."""

    # A plain class, not a NamedTuple: the diagram and Seifert loops read
    # these attributes often, and a slot reads faster than a tuple field.
    __slots__ = ("a", "b", "points")

    def __init__(self, a: int, b: int, points: list[Point]):
        self.a, self.b, self.points = a, b, points


class OrientedPD:
    """Crossings, anchored edges and free loops: over_a[crossing] is True
    where strand A is on top, and slot_edge[anchor] is the edge at that
    anchor.  `_trace_components` fills components (per component: (edge
    id, dir)), direction (per edge: +1 flow a->b, -1 flow b->a) and
    component_of (per edge), and the builder sets final_marker."""

    __slots__ = ("over_a", "edges", "slot_edge", "free_loops", "components",
                 "direction", "component_of", "final_marker")

    def __init__(self, over_a: list[bool], edges: list[PDEdge],
                 slot_edge: list[int], free_loops: list[list[Point]]):
        self.over_a = over_a
        self.edges = edges
        self.slot_edge = slot_edge
        self.free_loops = free_loops
        self.components: list[list[tuple[int, int]]] = []
        self.direction: list[int] = []
        self.component_of: list[int] = []
        self.final_marker: Optional[tuple[tuple[int, int], tuple[int, int]]] = None

    def component_count(self) -> int:
        return len(self.components) + len(self.free_loops)

    def inflow(self) -> list[bool]:
        """Per anchor: True where the oriented strand runs into its crossing."""
        into = [False] * len(self.slot_edge)
        for e, d in zip(self.edges, self.direction):
            into[e.b if d == 1 else e.a] = True
        return into

    def crossing_signs(self, inflow: list[bool]) -> list[int]:
        """Per crossing, from `inflow` of the current orientation: +1 when
        strand A is on top exactly when the two strands run parallel (A
        NW->SE with B SW->NE, or both reversed)."""
        return [1 if over == (inflow[a] == inflow[a + SW]) else -1
                for a, over in zip(range(0, len(inflow), 4), self.over_a)]


class _Builder:
    """Staircase tangle builder with four dangling ends.

    over_a holds the crossings' over-flags in anchor order.  Wire pieces
    are parallel lists: the points of each piece and the anchor at its
    first (head) and last (tail) point, -1 while it dangles.
    ends[corner] is (piece, at_head) for the corners NW, NE, SE, SW.  The
    staircase grows east and south only, so x >= 0 and y <= 0 throughout,
    and max_x, min_y bound every point.
    """

    def __init__(self, infinity: bool):
        self.over_a: list[bool] = []
        self.head = [-1, -1]
        self.tail = [-1, -1]
        if not infinity:
            self.pts = [[(0, 0), (2, 0)], [(0, -2), (2, -2)]]
            self.ends = [(0, True), (0, False), (1, False), (1, True)]
        else:
            self.pts = [[(0, 0), (0, -2)], [(2, 0), (2, -2)]]
            self.ends = [(0, True), (1, True), (1, False), (0, False)]
        self.max_x, self.min_y = 2, -2

    def end_point(self, corner: int) -> Point:
        pid, at_head = self.ends[corner]
        return self.pts[pid][0 if at_head else -1]

    def extend(self, corner: int, pt: Point):
        pid, at_head = self.ends[corner]
        pts = self.pts[pid]
        cur = pts[0] if at_head else pts[-1]
        if pt == cur:
            return
        if pt[0] != cur[0] and pt[1] != cur[1]:
            raise InvariantViolation("non-axis-aligned extension")
        if at_head:
            pts.insert(0, pt)
        else:
            pts.append(pt)

    def cross(self, corner: int, pt: Point, anchor: int, out_pt: Point,
              out_anchor: int):
        """Run the strand at `corner` into a crossing at `pt`, and hand the
        corner to a new piece leaving the crossing at `out_pt`."""
        self.extend(corner, pt)
        pid, at_head = self.ends[corner]
        (self.head if at_head else self.tail)[pid] = anchor
        self.ends[corner] = (len(self.pts), False)
        self.pts.append([out_pt])
        self.head.append(out_anchor)
        self.tail.append(-1)

    def east_block(self, k: int):
        """|k| crossings between the NE and SE ends, extending eastward."""
        ne_pt = self.end_point(NE)
        se_pt = self.end_point(SE)
        yu = ne_pt[1]
        yv = yu - 2
        col = self.max_x + 2
        # Route the lower strand beneath everything, then up a fresh column.
        if se_pt[1] != yv or se_pt[0] != ne_pt[0]:
            self.min_y = min(self.min_y, se_pt[1]) - 2
            self.extend(SE, (se_pt[0], self.min_y))
            self.extend(SE, (col, self.min_y))
            self.extend(SE, (col, yv))
            col += 2
        for _ in range(abs(k)):
            cx = col + 1
            a = 4 * len(self.over_a)
            self.over_a.append(k > 0)
            self.cross(NE, (cx - 1, yu), a + NW, (cx + 1, yu), a + NE)
            self.cross(SE, (cx - 1, yv), a + SW, (cx + 1, yv), a + SE)
            col += 4
        self.max_x = col - 2
        if k:
            self.min_y = min(self.min_y, yv)

    def south_block(self, k: int):
        """|k| crossings between the SW and SE ends, extending southward."""
        if k == 0:
            return
        sw_pt = self.end_point(SW)
        se_pt = self.end_point(SE)
        xl = sw_pt[0]
        xr = xl + 2
        row = self.min_y - 2
        # Route the right strand east of everything, then along a fresh row.
        if se_pt[0] != xr or se_pt[1] != sw_pt[1]:
            self.max_x = max(self.max_x, se_pt[0]) + 2
            self.extend(SE, (self.max_x, se_pt[1]))
            self.extend(SE, (self.max_x, row))
            self.extend(SE, (xr, row))
            row -= 2
        for _ in range(abs(k)):
            cy = row - 1
            a = 4 * len(self.over_a)
            self.over_a.append(k > 0)
            self.cross(SW, (xl, cy + 1), a + NW, (xl, cy - 1), a + SW)
            self.cross(SE, (xr, cy + 1), a + NE, (xr, cy - 1), a + SE)
            row -= 4
        self.max_x = max(self.max_x, xr)
        self.min_y = row + 2


def build_plat_diagram(entries: Sequence[int]) -> OrientedPD:
    """4-plat of a continued fraction: one twist region per entry.

    Odd-position entries twist the middle strand pair, even-position entries
    the bottom pair; |entry| crossings each, handedness by sign; the two top
    ends and the two bottom ends are capped (numerator closure).  A trailing
    zero is an empty region.
    """
    if len(entries) == 0:
        raise DomainError("plat needs at least one entry")
    m = len(entries)
    b = _Builder(infinity=(m % 2 == 0))
    for i in range(m - 1, -1, -1):
        if i % 2 == 0:
            b.east_block(entries[i])
        else:
            b.south_block(entries[i])

    # Numerator closure: top cap joins NW-NE, bottom cap joins SW-SE, both
    # outside the staircase (min x = 0, max y = 0).
    bot = b.min_y - 2
    east = b.max_x + 2
    nw, ne, se, sw = (b.end_point(c) for c in (NW, NE, SE, SW))
    glue = {}
    for c1, c2, path in (
            (NW, NE, [nw, (-2, nw[1]), (-2, 2), (east, 2), (east, ne[1]), ne]),
            (SW, SE, [sw, (-4, sw[1]), (-4, bot), (east + 2, bot),
                      (east + 2, se[1]), se])):
        glue[b.ends[c1]] = (b.ends[c2], path)
        glue[b.ends[c2]] = (b.ends[c1], path[::-1])

    pd, home = _assemble(b, glue)
    _trace_components(pd)
    # The final region is the first block built, between pieces 0 and 1.
    if m % 2 == 1 and 0 in home and 1 in home:
        pd.final_marker = (home[0], home[1])
    return pd


def _assemble(b: _Builder, glue) -> tuple[OrientedPD, dict[int, tuple[int, int]]]:
    """Anchored edges and free loops from the builder's pieces, in piece
    order, and the (edge id, +1 if run in built direction) of each piece on
    an edge.  A piece anchored at both ends is an edge of its own; only the
    pieces dangling at a corner are walked through the caps."""
    pts, head, tail = b.pts, b.head, b.tail

    def walk(pid: int, fwd: bool):
        """From piece pid, entered at its head if fwd, through the caps to
        the next anchor (-1 if the walk closes up first): the points, the
        pieces with their directions, and that anchor."""
        start = (pid, fwd)
        path: list[Point] = []
        members = []
        while True:
            members.append((pid, 1 if fwd else -1))
            piece = pts[pid] if fwd else pts[pid][::-1]
            path.extend(piece[1:] if path else piece)
            end = (tail if fwd else head)[pid]
            if end >= 0:
                return path, members, end
            (pid, fwd), cap = glue[(pid, not fwd)]
            path.extend(cap[1:])
            if (pid, fwd) == start:
                return path, members, -1

    edges: list[PDEdge] = []
    slot_edge = [0] * (4 * len(b.over_a))
    home: dict[int, tuple[int, int]] = {}
    loose = []
    for pid, (h, t) in enumerate(zip(head, tail)):
        if h >= 0 and t >= 0:
            eid = len(edges)
            edges.append(PDEdge(h, t, pts[pid]))
            slot_edge[h] = slot_edge[t] = eid
            home[pid] = (eid, 1)
        elif h < 0 and t < 0:
            loose.append(pid)
        elif pid not in home:
            eid = len(edges)
            start = h if h >= 0 else t
            path, members, end = walk(pid, h >= 0)
            edges.append(PDEdge(start, end, path))
            slot_edge[start] = slot_edge[end] = eid
            home.update((p, (eid, ori)) for p, ori in members)

    free_loops: list[list[Point]] = []
    looped: set[int] = set()
    for pid in loose:
        if pid not in home and pid not in looped:
            path, members, _ = walk(pid, True)
            free_loops.append(path)
            looped.update(p for p, _ in members)
    return OrientedPD(b.over_a, edges, slot_edge, free_loops), home


def _trace_components(pd: OrientedPD):
    """Partition edges into components and give each a traversal direction."""
    edges, slot_edge = pd.edges, pd.slot_edge
    direction = pd.direction = [0] * len(edges)  # 0 until visited
    component_of = pd.component_of = [0] * len(edges)
    limit = 4 * len(edges) + 4
    for start in range(len(edges)):
        if direction[start]:
            continue
        comp: list[tuple[int, int]] = []
        eid, d = start, 1
        while True:
            comp.append((eid, d))
            direction[eid] = d
            component_of[eid] = len(pd.components)
            e = edges[eid]
            nxt_anchor = (e.b if d == 1 else e.a) ^ 2
            nxt = slot_edge[nxt_anchor]
            nxt_d = 1 if edges[nxt].a == nxt_anchor else -1
            if nxt == start and nxt_d == 1:
                break
            eid, d = nxt, nxt_d
            if len(comp) > limit:
                raise InvariantViolation("component trace does not close")
        pd.components.append(comp)


def _marker_flow(pd: OrientedPD, marker: tuple[int, int]) -> int:
    """+1 if the marked wire piece is traversed in its built direction."""
    eid, ori = marker
    return ori * pd.direction[eid]


def _check_band_coherent(pd: OrientedPD):
    """The two strands through the final twist region run anti-parallel.

    `_trace_components` runs each component from its first edge in built
    direction, and for a butterfly plat that is the band-coherent
    orientation already, so a parallel pair is a builder fault."""
    if pd.final_marker is None:
        raise InvariantViolation("no final region marker recorded")
    mu, ml = pd.final_marker
    if pd.component_of[mu[0]] == pd.component_of[ml[0]]:
        raise InvariantViolation("final region strands lie in one component")
    if _marker_flow(pd, mu) == _marker_flow(pd, ml):
        raise InvariantViolation("final region strands run parallel")


def build_lhat_diagram(pres: I1Presentation) -> OrientedPD:
    """Butterfly-link plat with the band-coherent semi-orientation.

    The balancing region has anti-parallel strands (the boundary
    orientation of the coherent band); the resulting 2-component diagram
    must have linking number 0.
    """
    pd = build_plat_diagram(pres.butterfly_cf())
    _check_band_coherent(pd)
    if pd.component_count() != 2:
        raise InvariantViolation(f"butterfly plat of {pres} is not a 2-link")
    if linking_number(pd) != 0:
        raise InvariantViolation(f"butterfly link of {pres} has non-zero linking")
    return pd


def build_knot_diagram(pres: I1Presentation) -> OrientedPD:
    pd = build_plat_diagram(pres.knot_cf())
    if pd.component_count() != 1:
        raise InvariantViolation(f"knot plat of {pres} is not a knot")
    return pd


def linking_number(pd: OrientedPD) -> int:
    """Half the signed count of crossings between the two components."""
    if pd.component_count() != 2:
        raise DomainError("linking number needs exactly 2 components")
    comp_of, slot_edge = pd.component_of, pd.slot_edge
    total = 0
    for a, sign in zip(range(0, len(slot_edge), 4), pd.crossing_signs(pd.inflow())):
        if comp_of[slot_edge[a]] != comp_of[slot_edge[a + SW]]:
            total += sign
    if total % 2 != 0:
        raise InvariantViolation("odd inter-component crossing sum")
    return total // 2
