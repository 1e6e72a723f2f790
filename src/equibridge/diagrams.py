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
the crossing sign is +1 exactly when A is on top.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .laurent import DomainError, InvariantViolation
from .presentations import I1Presentation

Point = tuple[int, int]

PARTNER_SLOT = {"nw": "se", "se": "nw", "sw": "ne", "ne": "sw"}


@dataclass
class PDCrossing:
    x: int
    y: int
    nw: int = -1
    ne: int = -1
    se: int = -1
    sw: int = -1
    over_a: bool = True

    def slot(self, name: str) -> int:
        return getattr(self, name)

    def slot_point(self, name: str) -> Point:
        dx = -1 if name in ("nw", "sw") else 1
        dy = 1 if name in ("nw", "ne") else -1
        return (self.x + dx, self.y + dy)


@dataclass
class PDEdge:
    ident: int
    a: tuple[int, str]  # (crossing index, slot) where the path starts
    b: tuple[int, str]
    points: list[Point]


@dataclass
class OrientedPD:
    crossings: list[PDCrossing]
    edges: dict[int, PDEdge]
    free_loops: list[list[Point]]
    components: list[list[tuple[int, int]]]  # per component: (edge id, dir)
    direction: dict[int, int]  # +1 flow a->b, -1 flow b->a
    final_marker: Optional[tuple[tuple[int, int], tuple[int, int]]] = None

    def component_count(self) -> int:
        return len(self.components) + len(self.free_loops)

    def crossing_count(self) -> int:
        return len(self.crossings)

    def component_of_edge(self) -> dict[int, int]:
        out = {}
        for ci, comp in enumerate(self.components):
            for eid, _ in comp:
                out[eid] = ci
        return out

    def flows_into(self, eid: int, anchor: tuple[int, str]) -> bool:
        e = self.edges[eid]
        if e.b == anchor and self.direction[eid] == 1:
            return True
        if e.a == anchor and self.direction[eid] == -1:
            return True
        return False

    def strand_dirs(self, ci: int) -> tuple[int, int]:
        """(dirA, dirB): +1 when the strand runs NW->SE (resp. SW->NE)."""
        c = self.crossings[ci]
        dir_a = 1 if self.flows_into(c.nw, (ci, "nw")) else -1
        dir_b = 1 if self.flows_into(c.sw, (ci, "sw")) else -1
        return dir_a, dir_b

    def crossing_sign(self, ci: int) -> int:
        dir_a, dir_b = self.strand_dirs(ci)
        base = 1 if self.crossings[ci].over_a else -1
        return base * dir_a * dir_b


class _Piece:
    __slots__ = ("ident", "points", "head", "tail")

    def __init__(self, ident: int, points: list[Point]):
        self.ident = ident
        self.points = points
        self.head: Optional[tuple[int, str]] = None  # anchor at points[0]
        self.tail: Optional[tuple[int, str]] = None  # anchor at points[-1]


class _Builder:
    """Staircase tangle builder with four dangling ends."""

    def __init__(self, infinity: bool):
        self.pieces: dict[int, _Piece] = {}
        self.crossings: list[PDCrossing] = []
        if not infinity:
            u = self.new_piece([(0, 0), (2, 0)])
            l = self.new_piece([(0, -2), (2, -2)])
            self.ends = {"nw": (u.ident, "h"), "ne": (u.ident, "t"),
                         "sw": (l.ident, "h"), "se": (l.ident, "t")}
        else:
            lft = self.new_piece([(0, 0), (0, -2)])
            rgt = self.new_piece([(2, 0), (2, -2)])
            self.ends = {"nw": (lft.ident, "h"), "sw": (lft.ident, "t"),
                         "ne": (rgt.ident, "h"), "se": (rgt.ident, "t")}
        self.min_x, self.max_x = 0, 2
        self.min_y, self.max_y = -2, 0

    def new_piece(self, points: list[Point]) -> _Piece:
        p = _Piece(len(self.pieces), points)
        self.pieces[p.ident] = p
        return p

    def end_point(self, corner: str) -> Point:
        pid, side = self.ends[corner]
        pts = self.pieces[pid].points
        return pts[0] if side == "h" else pts[-1]

    def extend(self, corner: str, pt: Point):
        pid, side = self.ends[corner]
        pts = self.pieces[pid].points
        cur = pts[0] if side == "h" else pts[-1]
        if pt == cur:
            return
        if pt[0] != cur[0] and pt[1] != cur[1]:
            raise InvariantViolation("non-axis-aligned extension")
        if side == "h":
            pts.insert(0, pt)
        else:
            pts.append(pt)
        self.min_x = min(self.min_x, pt[0])
        self.max_x = max(self.max_x, pt[0])
        self.min_y = min(self.min_y, pt[1])
        self.max_y = max(self.max_y, pt[1])

    def anchor(self, corner: str, ci: int, slot: str):
        pid, side = self.ends[corner]
        p = self.pieces[pid]
        if side == "h":
            p.head = (ci, slot)
        else:
            p.tail = (ci, slot)

    def open_end(self, corner: str, piece: _Piece):
        self.ends[corner] = (piece.ident, "t")
        pt = piece.points[-1]
        self.min_x = min(self.min_x, pt[0])
        self.max_x = max(self.max_x, pt[0])
        self.min_y = min(self.min_y, pt[1])
        self.max_y = max(self.max_y, pt[1])

    def east_block(self, k: int) -> Optional[tuple[int, int]]:
        """|k| crossings between the NE and SE ends, extending eastward.

        Returns the marker pieces (upper, lower) entering the block.
        """
        ne_pt = self.end_point("ne")
        se_pt = self.end_point("se")
        yu = ne_pt[1]
        yv = yu - 2
        col = self.max_x + 2
        # Route the lower strand beneath everything, then up a fresh column.
        if se_pt[1] != yv or se_pt[0] != ne_pt[0]:
            drop = min(self.min_y, se_pt[1]) - 2
            self.extend("se", (se_pt[0], drop))
            self.extend("se", (col, drop))
            self.extend("se", (col, yv))
            col += 2
        marker = (self.ends["ne"][0], self.ends["se"][0])
        for _ in range(abs(k)):
            cx = col + 1
            ci = len(self.crossings)
            c = PDCrossing(cx, yu - 1, over_a=(k > 0))
            self.extend("ne", (cx - 1, yu))
            self.extend("se", (cx - 1, yv))
            self.anchor("ne", ci, "nw")
            self.anchor("se", ci, "sw")
            c.nw = self.ends["ne"][0]
            c.sw = self.ends["se"][0]
            pu = self.new_piece([(cx + 1, yu)])
            pl = self.new_piece([(cx + 1, yv)])
            pu.head = (ci, "ne")
            pl.head = (ci, "se")
            c.ne, c.se = pu.ident, pl.ident
            self.crossings.append(c)
            self.open_end("ne", pu)
            self.open_end("se", pl)
            col += 4
        return marker

    def south_block(self, k: int):
        """|k| crossings between the SW and SE ends, extending southward."""
        if k == 0:
            return
        sw_pt = self.end_point("sw")
        se_pt = self.end_point("se")
        xl = sw_pt[0]
        xr = xl + 2
        row = self.min_y - 2
        # Route the right strand east of everything, then along a fresh row.
        if se_pt[0] != xr or se_pt[1] != sw_pt[1]:
            shove = max(self.max_x, se_pt[0]) + 2
            self.extend("se", (shove, se_pt[1]))
            self.extend("se", (shove, row))
            self.extend("se", (xr, row))
            row -= 2
        for _ in range(abs(k)):
            cy = row - 1
            ci = len(self.crossings)
            c = PDCrossing(xl + 1, cy, over_a=(k > 0))
            self.extend("sw", (xl, cy + 1))
            self.extend("se", (xr, cy + 1))
            self.anchor("sw", ci, "nw")
            self.anchor("se", ci, "ne")
            c.nw = self.ends["sw"][0]
            c.ne = self.ends["se"][0]
            pl = self.new_piece([(xl, cy - 1)])
            pr = self.new_piece([(xr, cy - 1)])
            pl.head = (ci, "sw")
            pr.head = (ci, "se")
            c.sw, c.se = pl.ident, pr.ident
            self.crossings.append(c)
            self.open_end("sw", pl)
            self.open_end("se", pr)
            row -= 4


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
    marker_pieces = None
    for i in range(m - 1, -1, -1):
        if (i + 1) % 2 == 1:
            mk = b.east_block(entries[i])
            if i == m - 1:
                marker_pieces = mk
        else:
            b.south_block(entries[i])

    # Numerator closure: top cap joins NW-NE, bottom cap joins SW-SE.
    glue: dict[tuple[int, str], tuple[int, str, list[Point]]] = {}

    def add_cap(corner_a: str, corner_b: str, path: list[Point]):
        ea, eb = b.ends[corner_a], b.ends[corner_b]
        glue[ea] = (eb[0], eb[1], path)
        glue[eb] = (ea[0], ea[1], list(reversed(path)))

    top = b.max_y + 2
    bot = b.min_y - 2
    west = b.min_x - 2
    east = b.max_x + 2
    nw, ne = b.end_point("nw"), b.end_point("ne")
    sw, se = b.end_point("sw"), b.end_point("se")
    add_cap("nw", "ne",
            [nw, (west, nw[1]), (west, top), (east, top), (east, ne[1]), ne])
    add_cap("sw", "se",
            [sw, (west - 2, sw[1]), (west - 2, bot), (east + 2, bot),
             (east + 2, se[1]), se])

    edges, free_loops, piece_home = _assemble(b.pieces, glue)

    by_anchor: dict[tuple[int, str], int] = {}
    for e in edges.values():
        by_anchor[e.a] = e.ident
        by_anchor[e.b] = e.ident
    for ci, c in enumerate(b.crossings):
        for slot in ("nw", "ne", "se", "sw"):
            setattr(c, slot, by_anchor[(ci, slot)])

    pd = OrientedPD(b.crossings, edges, free_loops, [], {}, None)
    _trace_components(pd)
    if marker_pieces is not None and all(p in piece_home for p in marker_pieces):
        pd.final_marker = (piece_home[marker_pieces[0]], piece_home[marker_pieces[1]])
    return pd


def _assemble(pieces: dict[int, _Piece], glue) -> tuple[
    dict[int, PDEdge], list[list[Point]], dict[int, tuple[int, int]]
]:
    """Chain wire pieces through the closure caps into anchored edges."""
    edges: dict[int, PDEdge] = {}
    free_loops: list[list[Point]] = []
    piece_home: dict[int, tuple[int, int]] = {}
    consumed: set[tuple[int, str]] = set()

    def anchor_at(p: _Piece, end: str):
        return p.head if end == "h" else p.tail

    for p in list(pieces.values()):
        for start_end in ("h", "t"):
            if anchor_at(p, start_end) is None or (p.ident, start_end) in consumed:
                continue
            a_anchor = anchor_at(p, start_end)
            path: list[Point] = []
            chain: list[tuple[int, int]] = []
            cur, enter = p, start_end
            while True:
                consumed.add((cur.ident, enter))
                pts = cur.points if enter == "h" else list(reversed(cur.points))
                chain.append((cur.ident, 1 if enter == "h" else -1))
                path.extend(pts if not path else pts[1:])
                leave = "t" if enter == "h" else "h"
                consumed.add((cur.ident, leave))
                b_anchor = anchor_at(cur, leave)
                if b_anchor is not None:
                    break
                nxt_id, nxt_end, cap_path = glue[(cur.ident, leave)]
                path.extend(cap_path[1:])
                cur, enter = pieces[nxt_id], nxt_end
            eid = len(edges)
            edges[eid] = PDEdge(eid, a_anchor, b_anchor, path)
            for pid, ori in chain:
                piece_home[pid] = (eid, ori)

    for p in pieces.values():
        if (p.ident, "h") in consumed:
            continue
        path: list[Point] = []
        cur, enter = p, "h"
        while (cur.ident, enter) not in consumed:
            consumed.add((cur.ident, enter))
            leave = "t" if enter == "h" else "h"
            consumed.add((cur.ident, leave))
            pts = cur.points if enter == "h" else list(reversed(cur.points))
            path.extend(pts if not path else pts[1:])
            nxt_id, nxt_end, cap_path = glue[(cur.ident, leave)]
            path.extend(cap_path[1:])
            cur, enter = pieces[nxt_id], nxt_end
        free_loops.append(path)
    return edges, free_loops, piece_home


def _trace_components(pd: OrientedPD):
    """Partition edges into components and give each a traversal direction."""
    unvisited = set(pd.edges)
    while unvisited:
        start = min(unvisited)
        comp: list[tuple[int, int]] = []
        eid, d = start, 1
        while True:
            comp.append((eid, d))
            unvisited.discard(eid)
            pd.direction[eid] = d
            head = pd.edges[eid].b if d == 1 else pd.edges[eid].a
            ci, slot = head
            nxt_slot = PARTNER_SLOT[slot]
            nxt = pd.crossings[ci].slot(nxt_slot)
            nxt_d = 1 if pd.edges[nxt].a == (ci, nxt_slot) else -1
            if nxt == start and nxt_d == 1:
                break
            eid, d = nxt, nxt_d
            if len(comp) > 4 * len(pd.edges) + 4:
                raise InvariantViolation("component trace does not close")
        pd.components.append(comp)


def _flip_component(pd: OrientedPD, comp_index: int):
    flipped = [(eid, -d) for eid, d in reversed(pd.components[comp_index])]
    pd.components[comp_index] = flipped
    for eid, d in flipped:
        pd.direction[eid] = d


def _marker_flow(pd: OrientedPD, marker: tuple[int, int]) -> int:
    """+1 if the marked wire piece is traversed in its built direction."""
    eid, ori = marker
    return ori * pd.direction[eid]


def _orient_band_coherent(pd: OrientedPD):
    """Make the two strands through the final twist region anti-parallel."""
    if pd.final_marker is None:
        raise InvariantViolation("no final region marker recorded")
    mu, ml = pd.final_marker
    comp_of = pd.component_of_edge()
    cu, cl = comp_of[mu[0]], comp_of[ml[0]]
    if cu == cl:
        raise InvariantViolation("final region strands lie in one component")
    if _marker_flow(pd, mu) == _marker_flow(pd, ml):
        _flip_component(pd, cl)


def build_lhat_diagram(pres: I1Presentation) -> OrientedPD:
    """Butterfly-link plat with the band-coherent semi-orientation.

    The balancing region gets anti-parallel strands (the boundary
    orientation of the coherent band); the resulting 2-component diagram
    must have linking number 0.
    """
    pd = build_plat_diagram(pres.butterfly_cf())
    _orient_band_coherent(pd)
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
    comp_of = pd.component_of_edge()
    total = 0
    for ci, c in enumerate(pd.crossings):
        ca = comp_of[pd.edges[c.nw].ident]
        cb = comp_of[pd.edges[c.sw].ident]
        if ca != cb:
            total += pd.crossing_sign(ci)
    if total % 2 != 0:
        raise InvariantViolation("odd inter-component crossing sum")
    return total // 2
