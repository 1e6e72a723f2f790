import hashlib
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from equibridge.cli import random_presentation
from equibridge.diagrams import (
    OrientedPD,
    PDEdge,
    build_knot_diagram,
    build_lhat_diagram,
    build_plat_diagram,
)
from equibridge.laurent import DomainError, InvariantViolation
from equibridge.seifert import (
    _bareiss_det,
    _containment,
    _fundamental_cycles,
    _shoelace2,
    determinant,
    seifert_circles,
    seifert_matrix_data,
)

import tables
from notation import zp_parse
from seifert_conway import conway_polynomial, interp_poly
from skein_oracle import skein_conway


def assert_unimodular_skew(v):
    """A knot's Seifert form has det(V - V^T) = +-1."""
    g = len(v)
    skew = [[v[i][j] - v[j][i] for j in range(g)] for i in range(g)]
    assert abs(_bareiss_det(skew)) == 1


def test_matrix_rank_is_crossings_minus_circles_plus_one():
    rng = random.Random(41)
    for _ in range(80):
        ent = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
               for _ in range(rng.randint(1, 5))]
        pd = build_plat_diagram(ent)
        if pd.free_loops and pd.over_a:
            continue
        try:
            v = seifert_matrix_data(pd)
        except DomainError:
            continue  # split diagram
        circles, _ = seifert_circles(pd)
        assert len(v) == len(pd.over_a) - len(circles) + 1
        assert all(len(row) == len(v) for row in v)


def test_unimodular_skew_part_for_knots():
    rng = random.Random(42)
    for _ in range(60):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        assert_unimodular_skew(seifert_matrix_data(build_knot_diagram(pres)))


def test_trefoil_seifert_pipeline():
    v = seifert_matrix_data(build_plat_diagram([2, -2]))
    assert len(v) == 2
    assert_unimodular_skew(v)
    assert determinant(v) == 3
    assert conway_polynomial(v, 1) == zp_parse("1 + z^2")


def test_figure_eight_pipeline():
    v = seifert_matrix_data(build_plat_diagram([2, 2]))
    assert determinant(v) == 5
    assert conway_polynomial(v, 1) == zp_parse("1 - z^2")


def test_unknot_and_hopf():
    unknot = seifert_matrix_data(build_plat_diagram([1]))
    assert conway_polynomial(unknot, 1) == zp_parse("1")
    assert determinant(unknot) == 1
    hopf = seifert_matrix_data(build_plat_diagram([2]))
    assert conway_polynomial(hopf, 2) in (zp_parse("z"), zp_parse("-z"))
    assert determinant(hopf) == 2


def test_conway_against_skein_oracle_small_diagrams():
    rng = random.Random(43)
    tested = 0
    while tested < 120:
        m = rng.randint(1, 4)
        ent = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(m)]
        if sum(abs(e) for e in ent) > 8:
            continue
        pd = build_plat_diagram(ent)
        if pd.component_count() > 2 or (pd.free_loops and pd.over_a):
            continue
        try:
            nab = conway_polynomial(seifert_matrix_data(pd), pd.component_count())
        except DomainError:
            continue  # split
        assert nab == skein_conway(pd), ent
        tested += 1


def test_conway_parity_and_normalization():
    rng = random.Random(44)
    for _ in range(40):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        nk = conway_polynomial(seifert_matrix_data(build_knot_diagram(pres)), 1)
        assert not any(nk[1::2]) and nk[0] == 1
        nl = conway_polynomial(seifert_matrix_data(build_lhat_diagram(pres)), 2)
        assert not any(nl[0::2])
        assert nl[1] == 0  # z coefficient equals the linking number


def test_determinant_equals_fraction_numerators():
    rng = random.Random(45)
    for _ in range(50):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        knot = seifert_matrix_data(build_knot_diagram(pres))
        lhat = seifert_matrix_data(build_lhat_diagram(pres))
        assert determinant(knot) == abs(pres.knot_fraction.p)
        assert determinant(lhat) == abs(pres.butterfly_fraction.p)


def test_alexander_symmetry_of_seifert_determinant():
    """det(V - w V^T) reads the same from both ends up to sign."""
    rng = random.Random(46)
    for _ in range(30):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        v = seifert_matrix_data(build_knot_diagram(pres))
        g = len(v)
        # interpolate P(w) = det(V - w V^T) through integer points
        pts = [(w, _bareiss_det([[v[i][j] - w * v[j][i] for j in range(g)]
                                 for i in range(g)])) for w in range(0, g + 1)]
        p = interp_poly(pts)
        p = p + [0] * (g + 1 - len(p))
        sign = (-1) ** g
        assert all(p[k] == sign * p[g - k] for k in range(g + 1))


def renumbered_in_reverse(pd):
    """The same oriented diagram with its edges numbered last to first."""
    last = len(pd.edges) - 1
    out = OrientedPD(pd.over_a,
                     [PDEdge(e.a, e.b, e.points) for e in reversed(pd.edges)],
                     [last - eid for eid in pd.slot_edge], pd.free_loops)
    out.direction = pd.direction[::-1]
    out.component_of = pd.component_of[::-1]
    out.components = [[(last - eid, d) for eid, d in comp] for comp in pd.components]
    return out


def test_seifert_invariants_do_not_depend_on_edge_order():
    """Numbering the edges the other way round roots the spanning tree at
    another circle, so the tree paths of a band's two ends share a top to
    trim, and a band's end 1 may lie on the outer circle.  The determinant
    and the Conway polynomial must not change.  They do not see the sign
    of such an end's strand point, nor does the p <= 45 pin, so the
    reordered matrices hash to a recorded value."""
    digest = hashlib.sha256()
    count = 0
    for knot, lhat, knot_v, lhat_v in tables.surfaces(15).values():
        for pd, v, mu in ((knot, knot_v, 1), (lhat, lhat_v, 2)):
            reordered = seifert_matrix_data(renumbered_in_reverse(pd))
            assert determinant(reordered) == determinant(v)
            assert conway_polynomial(reordered, mu) == conway_polynomial(v, mu)
            digest.update(repr(reordered).encode() + b"\n")
            count += 1
    assert count == 64
    assert digest.hexdigest() == (
        "985ba3a282fccf6f44d78f32d7f5859ead0dce1ca69d6e3a27e79c91dafdce23")


def _band_nesting(circles, bands, inside):
    """For both orders (i, j) of the two circles of every band: is i inside
    j by the nesting matrix `inside` of `_containment`, and by the band
    rule?"""
    area = [abs(_shoelace2(circle.points)) for circle in circles]
    for band in bands:
        (i, _), (j, _) = band.ends
        for a, b in ((i, j), (j, i)):
            rule = circles[a].ccw == circles[b].ccw and area[a] < area[b]
            yield inside[a][b], rule


def test_band_joined_circles_nest_exactly_when_they_turn_the_same_way():
    """Two circles joined by a band are nested exactly when they turn the
    same way, and then the one of smaller area is inside.  The rule reads
    two circles per band where `_containment` nest-tests every pair, so it
    can replace it; until then it is checked on every knot and butterfly
    diagram at p <= 45 and on seeded plats of any entries.  The nesting
    matrices of those p <= 45 diagrams, every pair and not only the
    band-joined ones, hash to a recorded value, so a faster `_containment`
    must keep the whole relation."""
    digest = hashlib.sha256()
    pairs = []
    for surface in tables.surfaces(45).values():
        for pd in (surface.knot_diagram, surface.lhat_diagram):
            circles, bands = seifert_circles(pd)
            inside = _containment(circles)
            digest.update(repr(inside).encode() + b"\n")
            pairs += _band_nesting(circles, bands, inside)
    assert digest.hexdigest() == (
        "d6e5e1145eb915a8d3cc51095d07cf9576e856f86ac632ae244dbaa702b02143")
    assert [pair for pair in pairs if pair[0] != pair[1]] == []
    assert (len(pairs), sum(nested for nested, _ in pairs)) == (23860, 4188)
    rng = random.Random(23)
    for _ in range(300):
        entries = [rng.choice([-1, 1]) * rng.randint(1, 9)
                   for _ in range(rng.randint(1, 6))]
        circles, bands = seifert_circles(build_plat_diagram(entries))
        for nested, rule in _band_nesting(circles, bands, _containment(circles)):
            assert nested == rule, entries


def _seifert_outcome(build, arg):
    """(circles, crossings, components, Seifert matrix) of the diagram, or
    the error that building it or its matrix raised."""
    try:
        pd = build(arg)
        v = seifert_matrix_data(pd)
        return (len(seifert_circles(pd)[0]), len(pd.over_a), pd.component_count(), v)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def test_random_diagram_seifert_outcomes_are_pinned():
    """Seeded plat diagrams with zero entries (split links and free loops
    among them) and knot and butterfly diagrams with long twist regions hash,
    matrices and errors alike, to a recorded value, so a rewrite of the
    Seifert matrix must leave every outcome unchanged; the p <= 45 pin
    reaches none of these cases."""
    rng = random.Random(19)
    digest = hashlib.sha256()
    errors = 0
    for _ in range(400):
        entries = [rng.choice((0, rng.randint(-5, 5)))
                   for _ in range(rng.randint(1, 6))]
        outcome = _seifert_outcome(build_plat_diagram, entries)
        errors += isinstance(outcome[0], str)
        digest.update(repr(outcome).encode() + b"\n")
    for _ in range(100):
        pres = random_presentation(rng, max_n=3, max_alpha=14, max_c=6)
        for build in (build_knot_diagram, build_lhat_diagram):
            digest.update(repr(_seifert_outcome(build, pres)).encode() + b"\n")
    assert errors == 79
    assert digest.hexdigest() == (
        "adf78eff2df084c81f030ee1dfe3876cc2288ae68faf170fc5f4e19625c0cdeb")


def test_split_diagram_rejected():
    pd = build_plat_diagram([0])  # two crossingless loops
    with pytest.raises(DomainError):
        seifert_matrix_data(pd)


def _band(i):
    """Band i joins the second connector of circle i to the first of i + 1."""
    return SimpleNamespace(ident=i, ends=((i, 1), (i + 1, 0)))


def test_connectivity_check_on_a_chain_of_circles_is_fast():
    # Joining circle i to i + 1 in order makes a spanning tree of depth s - 1.
    s = 20000
    circles = [None] * s
    start = time.perf_counter()
    assert _fundamental_cycles(circles, [_band(i) for i in range(s - 1)]) == []
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError):
        _fundamental_cycles(circles,
                            [_band(i) for i in range(s - 1) if i != s // 2])


def test_hopf_z_coefficient_is_linking_number():
    from equibridge.diagrams import linking_number

    for entries in ([2], [-2]):
        pd = build_plat_diagram(entries)
        nab = conway_polynomial(seifert_matrix_data(pd), 2)
        assert nab[1] == linking_number(pd)


def test_alexander_values_of_small_knots():
    """det(V - t V^T) recovers the classical Alexander polynomials."""
    def alex(v, t_num, t_den):
        # evaluate det(V - t V^T) exactly at t = t_num/t_den, cleared
        g = len(v)
        m = [[t_den * v[i][j] - t_num * v[j][i] for j in range(g)]
             for i in range(g)]
        return _bareiss_det(m)  # equals den^g * det(V - t V^T)

    v3 = seifert_matrix_data(build_plat_diagram([2, -2]))
    assert_unimodular_skew(v3)
    # t^2 - t + 1 up to units: check value at t = 2 (|.| = 3) and t = -1 (3)
    assert abs(alex(v3, 2, 1)) == 3
    assert abs(alex(v3, -1, 1)) == 3

    v5 = seifert_matrix_data(build_plat_diagram([2, 2]))
    assert_unimodular_skew(v5)
    # t^2 - 3t + 1: |at t=2| = 1, |at t=-1| = 5
    assert abs(alex(v5, 2, 1)) == 1
    assert abs(alex(v5, -1, 1)) == 5


def test_zero_crossing_unknot_closure():
    """The closure of the infinity tangle is a crossingless unknot."""
    pd = build_plat_diagram([0, 0])
    assert len(pd.over_a) == 0 and pd.component_count() == 1
    v = seifert_matrix_data(pd)
    assert v == [] and len(seifert_circles(pd)[0]) == 1
    assert conway_polynomial(v, 1) == zp_parse("1")
    assert determinant(v) == 1


def test_same_knot_same_conway_across_inversions():
    """The two inversion presentations give different diagrams of one knot,
    so the knot Conway polynomials and determinants must coincide."""
    surfaces = tables.surfaces(21)
    for (p, q), pair in tables.classes(21).items():
        if len(pair) == 2:
            n1, n2 = (conway_polynomial(surfaces[inv].knot, 1) for inv in pair)
            assert n1 == n2, (p, q)


def test_knot_determinant_equals_conway_at_minus_one():
    """|Delta(-1)| read through z^2 = -4 matches the Seifert determinant."""
    rng = random.Random(47)
    for _ in range(40):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        v = seifert_matrix_data(build_knot_diagram(pres))
        nab = conway_polynomial(v, 1)
        value = sum(c * (-4) ** (e // 2) for e, c in enumerate(nab))
        assert abs(value) == determinant(v)


def _conway_nodes(count):
    """The evaluation points 0, 1, -1, 2, -2, ... of `conway_polynomial`."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(count)]


@given(st.lists(st.integers(-10**6, 10**6), max_size=26), st.integers(0, 2))
def test_interp_poly_recovers_integer_polynomials(coeffs, extra):
    pts = [(x, sum(c * x**k for k, c in enumerate(coeffs)))
           for x in _conway_nodes(len(coeffs) + 1 + extra)]
    expected = list(coeffs)
    while expected and expected[-1] == 0:
        expected.pop()
    assert interp_poly(pts) == expected


def test_interp_poly_rejects_non_integer_coefficients():
    # (x^2 + x) / 2 takes integer values at integers but has half-integer
    # coefficients.
    pts = [(x, (x * x + x) // 2) for x in _conway_nodes(3)]
    with pytest.raises(InvariantViolation):
        interp_poly(pts)


def dense_bareiss_det(m):
    """The reference: Bareiss's fraction-free elimination over the whole
    matrix, every row below the pivot at every step."""
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


ENTRIES = {
    "dense": st.integers(-50, 50),
    "sparse": st.sampled_from([0] * 6 + [-2, -1, 1, 2]),
    "units": st.integers(-1, 1),  # many singular matrices and zero pivots
}


@st.composite
def banded_matrices(draw):
    """Square integer matrices of size 0 to 10 that are zero outside a band
    of drawn width, with dense, sparse or unit entries inside it and, in
    some draws, a zero diagonal."""
    n = draw(st.integers(0, 10))
    w = draw(st.integers(0, max(n - 1, 0)))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    m = [[draw(entry) if abs(i - j) <= w else 0 for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    return m


@settings(max_examples=400, deadline=None)
@given(banded_matrices())
@example([])
@example([[0]])
@example([[-7]])
@example([[3, 0, 0], [0, 0, 0], [0, 0, 5]])  # w = 0 with a zero pivot
@example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # zero diagonal, singular
@example([[0, 2, 0], [3, 0, 1], [0, 4, 5]])  # zero pivots, det -30
def test_banded_elimination_equals_the_dense_loop(m):
    assert _bareiss_det(m) == dense_bareiss_det(m)


def test_banded_elimination_of_a_long_tridiagonal_matrix():
    """A symmetric tridiagonal matrix of 1200 rows, with zeros among its
    diagonal entries and none beside the diagonal, against the continuant
    D_k = d_k D_(k-1) - e_(k-1)^2 D_(k-2); the dense loop would take about
    n^3 / 3 steps."""
    rng = random.Random(38)
    n = 1200
    d = [rng.randint(-3, 3) for _ in range(n)]
    e = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n - 1)]
    m = [[0] * n for _ in range(n)]
    for k in range(n):
        m[k][k] = d[k]
    for k in range(n - 1):
        m[k][k + 1] = m[k + 1][k] = e[k]
    before, det = 1, d[0]
    for k in range(1, n):
        before, det = det, d[k] * det - e[k - 1] ** 2 * before
    assert det != 0
    assert _bareiss_det(m) == det
