"""Seifert surfaces of oriented plat diagrams: circles, the Seifert matrix,
the link determinant, and the Conway polynomial.

The determinant backs the cross-checks of `moth.order_certificate`; the
Conway polynomial is an independent oracle for the continuant formula
`presentations.conway_continuant`, and only tests call it.

The surface is the usual one: a disk for every circle of the oriented
smoothing (nested circles stacked), a half-twisted band for every crossing.
A homology basis comes from the fundamental cycles of a spanning tree of the
circles-and-bands graph.  Linking numbers of push-offs are computed
combinatorially from three kinds of local data:

  * two cycles through one band cross once inside the half twist;
  * two chords on one disk cross when their endpoints interleave around the
    circle, with a sign fixed by the cyclic order and the disk's normal;
  * a chord crosses the band of another cycle when that band leaves the
    disk's interior strictly inside the chord's arc.

All geometry questions (circle nesting, attachment order, handedness)
are settled exactly on the diagrams' integer polylines.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .laurent import DomainError, InvariantViolation, LaurentPoly, ZCoeffs
from .diagrams import OrientedPD, Point

# Cyclic offsets of parallel strands where several cycles share one band:
# the half twist reverses the strand order between the two band ends.
_TIE_SIGN = (1, -1)


@dataclass
class SeifertData:
    circle_count: int
    crossing_count: int
    matrix: list[list[int]]  # square, size crossing_count - circle_count + 1
    mu: int  # number of link components

    @property
    def rank(self) -> int:
        return len(self.matrix)


def _shoelace2(points: list[Point]) -> int:
    """Twice the signed area of a closed polyline."""
    total = 0
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return total


def _point_inside(pt: Point, poly: list[Point]) -> bool:
    """Exact even-odd test, ray cast from just north-east of a vertex."""
    px, py = 4 * pt[0] + 1, 4 * pt[1] + 2
    hits = 0
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        if x1 != x2:
            continue  # horizontal segments cannot cross the horizontal ray
        xq = 4 * x1
        lo, hi = sorted((4 * y1, 4 * y2))
        if xq > px and lo < py < hi:
            hits += 1
    return hits % 2 == 1


@dataclass
class _Circle:
    ident: int
    points: list[Point]
    connectors: list[int]  # crossing ids in traversal order
    ccw: bool  # strand traversal is counterclockwise


class _Band:
    """One crossing of the diagram, as a band of the Seifert surface."""

    __slots__ = ("ident", "sign", "ends")

    def __init__(self, ident: int, sign: int):
        self.ident = ident
        self.sign = sign
        # ends: two of (circle id, position of connector in circle order)
        self.ends: list[tuple[int, int]] = []


def seifert_circles(pd: OrientedPD) -> tuple[list[_Circle], list[_Band]]:
    """Oriented smoothing: disjoint circles plus one band per crossing."""
    pairing: dict[tuple[int, str], tuple[int, str]] = {}
    for ci in range(len(pd.crossings)):
        dir_a, dir_b = pd.strand_dirs(ci)
        if dir_a * dir_b == 1:
            pairs = (("nw", "ne"), ("sw", "se"))
        else:
            pairs = (("nw", "sw"), ("ne", "se"))
        for s1, s2 in pairs:
            pairing[(ci, s1)] = (ci, s2)
            pairing[(ci, s2)] = (ci, s1)

    bands = [_Band(ci, pd.crossing_sign(ci)) for ci in range(len(pd.crossings))]
    circles: list[_Circle] = []
    seen_edges: set[int] = set()
    for eid0 in sorted(pd.edges):
        if eid0 in seen_edges:
            continue
        points: list[Point] = []
        connectors: list[int] = []
        eid = eid0
        guard = 0
        while True:
            guard += 1
            if guard > 2 * len(pd.edges) + 2:
                raise InvariantViolation("smoothing trace does not close")
            seen_edges.add(eid)
            e = pd.edges[eid]
            d = pd.direction[eid]
            pts = e.points if d == 1 else list(reversed(e.points))
            points.extend(pts if not points else pts[1:])
            head = e.b if d == 1 else e.a
            ci, slot = head
            out_slot = pairing[(ci, slot)][1]
            connectors.append(ci)
            bands[ci].ends.append((len(circles), len(connectors) - 1))
            points.append(pd.crossings[ci].slot_point(out_slot))
            nxt = pd.crossings[ci].slot(out_slot)
            if pd.flows_into(nxt, (ci, out_slot)):
                raise InvariantViolation("smoothing does not respect orientation")
            if nxt == eid0:
                break
            eid = nxt
        if points[0] == points[-1]:
            points.pop()
        circles.append(_Circle(len(circles), points, connectors, False))
    for loop in pd.free_loops:
        pts = list(loop)
        if pts[0] == pts[-1]:
            pts.pop()
        circles.append(_Circle(len(circles), pts, [], False))
    for c in circles:
        c.ccw = _shoelace2(c.points) > 0
    return circles, bands


def _containment(circles: list[_Circle]) -> list[list[bool]]:
    """inside[i][j] is True when circle i lies strictly inside circle j."""
    s = len(circles)
    inside = [[False] * s for _ in range(s)]
    for i in range(s):
        for j in range(s):
            if i != j:
                inside[i][j] = _point_inside(circles[i].points[0], circles[j].points)
    return inside


@dataclass
class _CycleVisit:
    circle: int
    enter_key: tuple
    leave_key: tuple


@dataclass
class _Cycle:
    index: int
    band_dirs: dict[int, int]  # band id -> +1 traversed end0 -> end1
    visits: dict[int, _CycleVisit]  # circle id -> visit
    arrivals: dict[int, bool]  # band id -> True if traversal arrives at its outer circle


def _check_connected(pd: OrientedPD, circles, bands):
    if pd.free_loops and (pd.crossings or len(pd.free_loops) > 1):
        raise DomainError("disconnected diagram (split link)")
    if not bands:
        return
    s = len(circles)
    parent = list(range(s))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    for band in bands:
        u, v = band.ends[0][0], band.ends[1][0]
        parent[find(u)] = find(v)
    if len({find(i) for i in range(s)}) != 1:
        raise DomainError("disconnected diagram (split link)")


def _fundamental_cycles(circles, bands) -> list[_Cycle]:
    """Spanning-tree fundamental cycles of the circles-and-bands graph."""
    s = len(circles)
    adj: dict[int, list[_Band]] = {i: [] for i in range(s)}
    for band in bands:
        adj[band.ends[0][0]].append(band)
        adj[band.ends[1][0]].append(band)
    parent_band: dict[int, Optional[_Band]] = {0: None}
    order = [0]
    queue = [0]
    while queue:
        u = queue.pop(0)
        for band in adj[u]:
            v = band.ends[1][0] if band.ends[0][0] == u else band.ends[0][0]
            if v not in parent_band:
                parent_band[v] = band
                order.append(v)
                queue.append(v)
    tree_ids = {b.ident for b in parent_band.values() if b is not None}

    def tree_path(u: int) -> list[tuple[_Band, int]]:
        """Bands from u up to the root, each with its traversal direction."""
        out = []
        while parent_band[u] is not None:
            band = parent_band[u]
            if band.ends[0][0] == u and band.ends[1][0] != u:
                out.append((band, 1))
                u = band.ends[1][0]
            else:
                out.append((band, -1))
                u = band.ends[0][0]
        return out

    cycles: list[_Cycle] = []
    for band in bands:
        if band.ident in tree_ids:
            continue
        if band.ends[0][0] == band.ends[1][0]:
            raise InvariantViolation(
                "self-attached band (nugatory crossing) is not supported"
            )
        # Closed walk: the chord band end0 -> end1, then back through the tree
        # from u1 up to the meeting point and down again to u0.
        u0, u1 = band.ends[0][0], band.ends[1][0]
        walk: list[tuple[_Band, int]] = [(band, 1)]
        up0 = tree_path(u0)
        up1 = tree_path(u1)
        while up0 and up1 and up0[-1][0].ident == up1[-1][0].ident:
            up0.pop()
            up1.pop()
        walk.extend(up1)
        walk.extend(reversed([(b, -d) for b, d in up0]))
        cycles.append(_make_cycle(len(cycles), walk))
    return cycles


def _band_end_keys(band: _Band, cycles_through: list[int]) -> dict[tuple[int, int], tuple]:
    """Sort keys for the parallel strands of a band at each of its two ends."""
    keys = {}
    for slot, cyc in enumerate(sorted(cycles_through), start=1):
        for end in (0, 1):
            circle, pos = band.ends[end]
            keys[(cyc, end)] = (pos, _TIE_SIGN[end] * slot)
    return keys


def _make_cycle(index: int, walk: list[tuple[_Band, int]]) -> _Cycle:
    band_dirs = {band.ident: d for band, d in walk}
    if len(band_dirs) != len(walk):
        raise InvariantViolation("cycle repeats a band")
    visits: dict[int, _CycleVisit] = {}
    m = len(walk)
    for k in range(m):
        band, d = walk[k]
        nxt_band, nxt_d = walk[(k + 1) % m]
        arrive_end = 1 if d == 1 else 0
        circle = band.ends[arrive_end][0]
        leave_end = 0 if nxt_d == 1 else 1
        if nxt_band.ends[leave_end][0] != circle:
            raise InvariantViolation("cycle walk is not contiguous")
        if circle in visits:
            raise InvariantViolation("cycle visits a circle twice")
        visits[circle] = _CycleVisit(circle, (band.ident, arrive_end),
                                     (nxt_band.ident, leave_end))
    return _Cycle(index, band_dirs, visits, {})


def seifert_matrix_data(pd: OrientedPD) -> SeifertData:
    """Seifert circles and the integer linking matrix of the surface basis."""
    circles, bands = seifert_circles(pd)
    _check_connected(pd, circles, bands)
    mu = pd.component_count()
    x = len(bands)
    s = len(circles)
    if x == 0:
        return SeifertData(s, 0, [], mu)
    cycles = _fundamental_cycles(circles, bands)
    g = len(cycles)
    if g != x - s + 1:
        raise InvariantViolation(f"basis rank {g} != {x} - {s} + 1")
    inside = _containment(circles)

    # Cycles through every band, with per-end sort keys for parallel strands.
    through: dict[int, list[int]] = {b.ident: [] for b in bands}
    for cyc in cycles:
        for bid in cyc.band_dirs:
            through[bid].append(cyc.index)
    end_keys: dict[tuple[int, int, int], tuple] = {}
    for band in bands:
        keys = _band_end_keys(band, through[band.ident])
        for (cyc, end), key in keys.items():
            end_keys[(band.ident, cyc, end)] = key

    twice = [[0] * g for _ in range(g)]

    # Shared bands: one crossing inside the half twist per pair of strands.
    for band in bands:
        for xi in through[band.ident]:
            for yi in through[band.ident]:
                ux = cycles[xi].band_dirs[band.ident]
                uy = cycles[yi].band_dirs[band.ident]
                twice[xi][yi] += -band.sign * ux * uy

    # Per-circle data: chords and inward band strand-points.
    by_circle_chords: dict[int, list[tuple[int, tuple, tuple]]] = {}
    by_circle_points: dict[int, list[tuple[int, tuple, int]]] = {}
    for cyc in cycles:
        for circle_id, visit in cyc.visits.items():
            bid_in, end_in = visit.enter_key
            bid_out, end_out = visit.leave_key
            kin = end_keys[(bid_in, cyc.index, end_in)]
            kout = end_keys[(bid_out, cyc.index, end_out)]
            by_circle_chords.setdefault(circle_id, []).append((cyc.index, kin, kout))
        for bid, d in cyc.band_dirs.items():
            band = bands[bid]
            c0, c1 = band.ends[0][0], band.ends[1][0]
            if inside[c1][c0]:
                outer, outer_end = c0, 0
            elif inside[c0][c1]:
                outer, outer_end = c1, 1
            else:
                continue  # sibling circles: band invisible to both disks
            arrives = (d == 1 and outer_end == 1) or (d == -1 and outer_end == 0)
            key = end_keys[(bid, cyc.index, outer_end)]
            by_circle_points.setdefault(outer, []).append(
                (cyc.index, key, 1 if arrives else -1)
            )

    def in_ccw_arc(key, start, end) -> bool:
        if start < end:
            return start < key < end
        return key > start or key < end

    for circle in circles:
        cid = circle.ident
        chords = by_circle_chords.get(cid, [])
        n_c = 1 if circle.ccw else -1
        if not circle.ccw:
            chords = [(i, _flip_key(a), _flip_key(b)) for i, a, b in chords]
            points = [(i, _flip_key(k), arr) for i, k, arr in
                      by_circle_points.get(cid, [])]
        else:
            points = by_circle_points.get(cid, [])
        # chord-chord crossings
        for xi, a1, a2 in chords:
            for yi, b1, b2 in chords:
                if xi == yi:
                    continue
                inb1 = in_ccw_arc(b1, a1, a2)
                inb2 = in_ccw_arc(b2, a1, a2)
                if inb1 != inb2:
                    twice[xi][yi] += n_c * (1 if inb1 else -1)
        # Chord versus inward band strands: these crossings sit off the
        # surface (the band is above the disk), so they count symmetrically.
        for xi, a1, a2 in chords:
            for yi, key, arr in points:
                if in_ccw_arc(key, a1, a2):
                    twice[xi][yi] += arr
                    twice[yi][xi] += arr

    matrix = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(g):
            if twice[i][j] % 2 != 0:
                raise InvariantViolation("half-integer linking entry")
            matrix[i][j] = twice[i][j] // 2
    return SeifertData(s, x, matrix, mu)


def _flip_key(key: tuple) -> tuple:
    """Reverse the cyclic order (clockwise circles are read backwards)."""
    return (-key[0], -key[1])


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(data: SeifertData) -> int:
    """|H1| of the double branched cover: |det(V + V^T)|."""
    v = data.matrix
    g = data.rank
    sym = [[v[i][j] + v[j][i] for j in range(g)] for i in range(g)]
    return abs(_bareiss_det(sym))


def _interp_poly(points: list[tuple[int, int]]) -> list[int]:
    """Newton interpolation in integers; asserts integer coefficients.

    Divided differences of an integer polynomial at integer nodes are
    integers, so every division must be exact.
    """
    xs = [x for x, _ in points]
    dd = [y for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - k])
            if r:
                raise InvariantViolation("non-integer interpolated coefficient")
            dd[i] = q
    # Horner on the Newton form: p = dd[0] + (x - x0)(dd[1] + (x - x1)(...)).
    out: list[int] = []
    for k in range(len(xs) - 1, -1, -1):
        shifted = [0] + out
        for j, c in enumerate(out):
            shifted[j] -= xs[k] * c
        shifted[0] += dd[k]
        out = shifted
    while out and out[-1] == 0:
        out.pop()
    return out


def conway_polynomial(data: SeifertData) -> ZCoeffs:
    """The normalized skein polynomial det(1/x V - x V^T) with z = x - 1/x.

    An oracle: the production path reads Conway polynomials off the
    continued fraction (`presentations.conway_continuant`).

    The global sign of the odd (2-component) case follows the skein
    normalization nabla(L+) - nabla(L-) = z nabla(L0); the transposed form
    of the determinant is the one that agrees with it for this push-off
    convention.
    """
    v = data.matrix
    g = data.rank
    if g == 0:
        return (1,) if data.mu == 1 else ()
    # P(w) = det(V - w V^T) has degree <= g; evaluate and interpolate.
    pts = []
    w = 0
    while len(pts) < g + 1:
        m = [[v[i][j] - w * v[j][i] for j in range(g)] for i in range(g)]
        pts.append((w, _bareiss_det(m)))
        w = -w + (0 if w > 0 else 1)  # 0, 1, -1, 2, -2, ...
    p = _interp_poly(pts)
    # nabla = x^(-g) P(x^2), rewritten in z = x - 1/x.
    f = LaurentPoly({2 * k - g: c for k, c in enumerate(p)})
    acc: dict[int, int] = {}
    zpow = LaurentPoly({1: 1, -1: -1})
    while not f.is_zero():
        m_deg = f.degree()
        if m_deg < 0:
            raise InvariantViolation("Seifert determinant is not a z-polynomial")
        c = f.coeff(m_deg)
        acc[m_deg] = acc.get(m_deg, 0) + c
        sub = LaurentPoly.const(1)
        for _ in range(m_deg):
            sub = sub * zpow
        f = f - sub * c
    nabla = tuple(acc.get(e, 0) for e in range(max(acc, default=-1) + 1))
    if data.mu == 1:
        if any(nabla[1::2]):
            raise InvariantViolation("knot Conway polynomial has odd terms")
        if nabla[:1] != (1,):
            raise InvariantViolation("knot Conway polynomial not normalized")
    elif data.mu == 2:
        if any(nabla[0::2]):
            raise InvariantViolation("2-link Conway polynomial has even terms")
    return nabla

