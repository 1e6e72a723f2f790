"""Seifert surfaces of oriented plat diagrams: circles, the Seifert matrix
and the link determinant.

The determinant backs the geometric check of `cli.analyze_presentation`
and `verify`'s determinant suite.  The tests read the Conway polynomial
off the same matrix (tests/seifert_conway.py), an independent oracle for
the continuants of `moth.conway_in_w`.

The surface is the usual one: a disk for every circle of the oriented
smoothing (nested circles stacked), a half-twisted band for every crossing.
A homology basis comes from the fundamental cycles of a breadth-first
spanning tree of the circles-and-bands graph, each a closed walk of bands;
a tree that misses a circle means a split link.  Linking numbers of
push-offs are computed combinatorially from three kinds of local data:

  * two cycles through one band cross once inside the half twist;
  * two chords on one disk cross when their endpoints interleave around the
    circle, with a sign fixed by the cyclic order and the disk's normal;
  * a chord crosses the band of another cycle when that band leaves the
    disk's interior strictly inside the chord's arc.

All geometry questions (circle nesting, attachment order, handedness)
are settled exactly on the diagrams' integer polylines.
"""
from __future__ import annotations

from typing import Optional

from .laurent import DomainError, InvariantViolation
from .diagrams import SW, OrientedPD, Point

def _shoelace2(points: list[Point]) -> int:
    """Twice the signed area of a closed polyline."""
    total = 0
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return total


def _point_inside(pt: Point, poly: list[Point]) -> bool:
    """Exact even-odd test: is pt inside the closed axis-aligned polyline?

    Coordinates are scaled by 4, so the eastward ray starts at the test
    point (x + 1/4, y + 1/2) for pt = (x, y).  Every vertex is an integer
    point, so the ray's height y + 1/2 is no vertex's height: the ray meets
    no vertex and runs along no edge, since a horizontal edge lies at an
    integer height.  Only a vertical edge can cross it, once and
    transversally, and none passes through the test point, whose abscissa
    is not an integer.  So the parity of the crossings is exact on integer
    polylines, with no tie to break.

    The edges are read in place, carrying the previous vertex from the
    last one, so the closing edge comes first; the count does not depend
    on the order of the edges.
    """
    px, py = 4 * pt[0] + 1, 4 * pt[1] + 2
    hits = 0
    x1, y1 = poly[-1]
    for x2, y2 in poly:
        if x1 == x2:  # horizontal segments cannot cross the horizontal ray
            xq = 4 * x1
            lo, hi = sorted((4 * y1, 4 * y2))
            if xq > px and lo < py < hi:
                hits += 1
        x1, y1 = x2, y2
    return hits % 2 == 1


class _Circle:
    """points: the polyline in traversal order; ccw: the strand traversal
    is counterclockwise."""

    # A plain class, not a NamedTuple: the containment loop reads `points`
    # once per pair of circles, and a slot reads faster than a tuple field.
    __slots__ = ("points", "ccw")

    def __init__(self, points: list[Point], ccw: bool):
        self.points, self.ccw = points, ccw


class _Band:
    """One crossing of the diagram, as a band of the Seifert surface."""

    __slots__ = ("ident", "sign", "ends")

    def __init__(self, ident: int, sign: int):
        self.ident = ident
        self.sign = sign
        # ends: two of (circle id, position of the band end in circle order)
        self.ends: list[tuple[int, int]] = []


def seifert_circles(pd: OrientedPD) -> tuple[list[_Circle], list[_Band]]:
    """Oriented smoothing: disjoint circles plus one band per crossing."""
    into = pd.inflow()
    bands = [_Band(ci, sign) for ci, sign in enumerate(pd.crossing_signs(into))]
    # The smoothing joins each incoming slot to the outgoing one beside it:
    # nw-ne and sw-se (anchor ^ 1) where the strands run parallel, nw-sw and
    # ne-se (anchor ^ 3) where they do not.
    turn = [1 if into[a] == into[a + SW] else 3 for a in range(0, len(into), 4)]
    edges, slot_edge, direction = pd.edges, pd.slot_edge, pd.direction
    seen = [False] * len(edges)
    limit = 2 * len(edges) + 2
    circles: list[_Circle] = []
    for eid0 in range(len(edges)):
        if seen[eid0]:
            continue
        # Each edge's polyline runs from slot point to slot point, so the
        # circle is the concatenation of its edges in flow order.
        points: list[Point] = []
        position = 0  # band ends met so far on this circle
        eid = eid0
        while True:
            if position >= limit:
                raise InvariantViolation("smoothing trace does not close")
            seen[eid] = True
            e = edges[eid]
            if direction[eid] == 1:
                points.extend(e.points)
                head = e.b
            else:
                points.extend(reversed(e.points))
                head = e.a
            ci = head >> 2
            bands[ci].ends.append((len(circles), position))
            position += 1
            out = head ^ turn[ci]
            if into[out]:
                raise InvariantViolation("smoothing does not respect orientation")
            eid = slot_edge[out]
            if eid == eid0:
                break
        circles.append(_Circle(points, _shoelace2(points) > 0))
    for loop in pd.free_loops:
        pts = list(loop)
        if pts[0] == pts[-1]:
            pts.pop()
        circles.append(_Circle(pts, _shoelace2(pts) > 0))
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


def _fundamental_cycles(circles, bands) -> list[list[tuple[_Band, int]]]:
    """Spanning-tree fundamental cycles of the circles-and-bands graph, each
    a closed walk of (band, +1 when traversed end0 -> end1, else -1)."""
    s = len(circles)
    adj: list[list[_Band]] = [[] for _ in range(s)]
    for band in bands:
        adj[band.ends[0][0]].append(band)
        adj[band.ends[1][0]].append(band)
    parent_band: dict[int, Optional[_Band]] = {0: None}
    order = [0] if s else []  # breadth first: walked by index while it grows
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for band in adj[u]:
            v = band.ends[1][0] if band.ends[0][0] == u else band.ends[0][0]
            if v not in parent_band:
                parent_band[v] = band
                order.append(v)
    # A free loop has no band, so the tree misses it like any split part.
    if len(order) < s:
        raise DomainError("disconnected diagram (split link)")
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

    cycles = []
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
        cycles.append(walk)
    return cycles


def _in_ccw_arc(key: tuple, start: tuple, end: tuple) -> bool:
    """key lies strictly on the cyclic arc that runs up from start to end."""
    if start < end:
        return start < key < end
    return key > start or key < end


def seifert_matrix_data(pd: OrientedPD) -> list[list[int]]:
    """The Seifert matrix V: the integer linking matrix of the surface's
    cycle basis, square of size g = crossings - circles + 1."""
    circles, bands = seifert_circles(pd)
    cycles = _fundamental_cycles(circles, bands)
    x = len(bands)
    s = len(circles)
    g = len(cycles)
    if g != x - s + 1:
        raise InvariantViolation(f"basis rank {g} != {x} - {s} + 1")
    inside = _containment(circles)

    # through[band]: (cycle, direction) of every cycle through it, in cycle
    # order.  Per circle: the chords (cycle, key in, key out) that cycles draw
    # across its disk, and the strand-points (cycle, key, +1 arriving or -1
    # leaving) of bands that meet it from a circle nested inside it.  A strand
    # end's key is its band end's position on the circle, then +k at end 0
    # and -k at end 1 for the k-th cycle through the band: the half twist
    # reverses the order of parallel strands between the two ends.
    through: list[list[tuple[int, int]]] = [[] for _ in bands]
    chords: list[list[tuple[int, tuple, tuple]]] = [[] for _ in circles]
    points: list[list[tuple[int, tuple, int]]] = [[] for _ in circles]
    for ci, walk in enumerate(cycles):
        # Per band: (circle, key) of the end the walk enters it by, then of
        # the end it leaves by.
        steps = []
        for band, d in walk:
            passing = through[band.ident]
            if passing and passing[-1][0] == ci:
                raise InvariantViolation("cycle repeats a band")
            passing.append((ci, d))
            k = len(passing)
            (c0, p0), (c1, p1) = band.ends
            end0, end1 = (c0, (p0, k)), (c1, (p1, -k))
            steps.append((end0, end1) if d == 1 else (end1, end0))
            if inside[c1][c0]:
                points[c0].append((ci, (p0, k), -d))
            elif inside[c0][c1]:
                points[c1].append((ci, (p1, -k), d))
            # else neither circle is nested in the other: the band is
            # invisible to both disks
        # Between two bands the walk crosses one disk as a chord, from the
        # end where it leaves the first to the end where it enters the next.
        visited = set()
        for (_, (circle, key_in)), ((circle_out, key_out), _) in zip(
                steps, steps[1:] + steps[:1]):
            if circle_out != circle:
                raise InvariantViolation("cycle walk is not contiguous")
            if circle in visited:
                raise InvariantViolation("cycle visits a circle twice")
            visited.add(circle)
            chords[circle].append((ci, key_in, key_out))

    twice = [[0] * g for _ in range(g)]

    # Shared bands: one crossing inside the half twist per pair of strands.
    for band, passing in zip(bands, through):
        for xi, dx in passing:
            for yi, dy in passing:
                twice[xi][yi] -= band.sign * dx * dy

    for circle, on_disk, inward in zip(circles, chords, points):
        for xi, a1, a2 in on_disk:
            # Chords cross when their ends interleave around the circle.
            for yi, b1, b2 in on_disk:
                if xi != yi:
                    inb1 = _in_ccw_arc(b1, a1, a2)
                    if inb1 != _in_ccw_arc(b2, a1, a2):
                        twice[xi][yi] += 1 if inb1 else -1
            # Keys follow the strand traversal, which is clockwise on a
            # clockwise circle.  Reading such a circle backwards swaps each
            # chord's ends and also flips its disk's normal; keys of
            # different cycles never tie, so the two cancel in the
            # chord-chord sign above, and only this test depends on
            # orientation.
            if not circle.ccw:
                a1, a2 = a2, a1
            # Chord versus inward band strands: these crossings sit off the
            # surface (the band is above the disk), so they count symmetrically.
            for yi, key, arr in inward:
                if _in_ccw_arc(key, a1, a2):
                    twice[xi][yi] += arr
                    twice[yi][xi] += arr

    for row in twice:
        if any(t % 2 for t in row):
            raise InvariantViolation("half-integer linking entry")
        row[:] = [t // 2 for t in row]
    return twice


def _bareiss_det(m: list[list[int]]) -> int:
    """Bareiss's fraction-free exact determinant of an integer matrix, run
    inside its band: with w the largest |i - j| of a non-zero entry, step k
    pivots in rows k..k+w and updates them over columns k+1..k+2w.  The
    dense loop's scaling of each row below by p_k / p_(k-1) telescopes to
    one factor p_(k-1) as row k + w enters at step k, so every entry
    computed is the dense loop's minor (README, design notes)."""
    n = len(m)
    if n == 0:
        return 1
    w = max((abs(i - j) for i, row in enumerate(m) for j, x in enumerate(row) if x),
            default=0)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n):
        last, reach = min(k + w, n - 1), min(k + 2 * w, n - 1)
        if k and k + w < n:  # row k + w enters the window
            a[k + w][k:reach + 1] = [x * prev for x in a[k + w][k:reach + 1]]
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, last + 1) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, last + 1):
            for j in range(k + 1, reach + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(v: list[list[int]]) -> int:
    """|H1| of the double branched cover: |det(V + V^T)| of Seifert matrix V."""
    g = len(v)
    sym = [[v[i][j] + v[j][i] for j in range(g)] for i in range(g)]
    return abs(_bareiss_det(sym))
