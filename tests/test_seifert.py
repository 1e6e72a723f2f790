import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from equibridge.cli import random_presentation
from equibridge.diagrams import build_knot_diagram, build_lhat_diagram, build_plat_diagram
from equibridge.laurent import DomainError, InvariantViolation, zp_parse
from equibridge.presentations import butterfly_fraction, knot_fraction
from equibridge.seifert import (
    _bareiss_det,
    _check_connected,
    _interp_poly,
    conway_polynomial,
    determinant,
    seifert_matrix_data,
)

from skein_oracle import skein_conway


def assert_unimodular_skew(data):
    """A knot's Seifert form has det(V - V^T) = +-1."""
    g = data.rank
    v = data.matrix
    skew = [[v[i][j] - v[j][i] for j in range(g)] for i in range(g)]
    assert abs(_bareiss_det(skew)) == 1


def test_matrix_rank_is_crossings_minus_circles_plus_one():
    rng = random.Random(41)
    for _ in range(80):
        ent = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
               for _ in range(rng.randint(1, 5))]
        pd = build_plat_diagram(ent)
        if pd.free_loops and pd.crossings:
            continue
        try:
            data = seifert_matrix_data(pd)
        except DomainError:
            continue  # split diagram
        assert data.rank == data.crossing_count - data.circle_count + 1
        assert data.rank >= 0


def test_unimodular_skew_part_for_knots():
    rng = random.Random(42)
    for _ in range(60):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        assert_unimodular_skew(seifert_matrix_data(build_knot_diagram(pres)))


def test_trefoil_seifert_pipeline():
    data = seifert_matrix_data(build_plat_diagram([2, -2]))
    assert data.rank == 2
    assert_unimodular_skew(data)
    assert determinant(data) == 3
    assert conway_polynomial(data) == zp_parse("1 + z^2")


def test_figure_eight_pipeline():
    data = seifert_matrix_data(build_plat_diagram([2, 2]))
    assert determinant(data) == 5
    assert conway_polynomial(data) == zp_parse("1 - z^2")


def test_unknot_and_hopf():
    unknot = seifert_matrix_data(build_plat_diagram([1]))
    assert conway_polynomial(unknot) == zp_parse("1")
    assert determinant(unknot) == 1
    hopf = seifert_matrix_data(build_plat_diagram([2]))
    assert conway_polynomial(hopf) in (zp_parse("z"), zp_parse("-z"))
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
        if pd.component_count() > 2 or (pd.free_loops and pd.crossings):
            continue
        try:
            nab = conway_polynomial(seifert_matrix_data(pd))
        except DomainError:
            continue  # split
        assert nab == skein_conway(pd), ent
        tested += 1


def test_conway_parity_and_normalization():
    rng = random.Random(44)
    for _ in range(40):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        nk = conway_polynomial(seifert_matrix_data(build_knot_diagram(pres)))
        assert not any(nk[1::2]) and nk[0] == 1
        nl = conway_polynomial(seifert_matrix_data(build_lhat_diagram(pres)))
        assert not any(nl[0::2])
        assert nl[1] == 0  # z coefficient equals the linking number


def test_determinant_equals_fraction_numerators():
    rng = random.Random(45)
    for _ in range(50):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        knot = seifert_matrix_data(build_knot_diagram(pres))
        lhat = seifert_matrix_data(build_lhat_diagram(pres))
        assert determinant(knot) == abs(knot_fraction(pres).p)
        assert determinant(lhat) == abs(butterfly_fraction(pres).p)


def test_alexander_symmetry_of_seifert_determinant():
    """det(V - w V^T) reads the same from both ends up to sign."""
    rng = random.Random(46)
    for _ in range(30):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        data = seifert_matrix_data(build_knot_diagram(pres))
        g = data.rank
        v = data.matrix
        # interpolate P(w) = det(V - w V^T) through integer points
        pts = [(w, _bareiss_det([[v[i][j] - w * v[j][i] for j in range(g)]
                                 for i in range(g)])) for w in range(0, g + 1)]
        p = _interp_poly(pts)
        p = p + [0] * (g + 1 - len(p))
        sign = (-1) ** g
        assert all(p[k] == sign * p[g - k] for k in range(g + 1))


def test_split_diagram_rejected():
    pd = build_plat_diagram([0])  # two crossingless loops
    with pytest.raises(DomainError):
        seifert_matrix_data(pd)


def _band(u, v):
    return SimpleNamespace(ends=((u, "nw"), (v, "se")))


def test_connectivity_check_on_a_chain_of_circles_is_fast():
    # Joining circle i to i + 1 in order builds one long parent chain.
    pd = SimpleNamespace(free_loops=[], crossings=[None])
    s = 20000
    circles = [None] * s
    start = time.perf_counter()
    _check_connected(pd, circles, [_band(i, i + 1) for i in range(s - 1)])
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError):
        _check_connected(pd, circles,
                         [_band(i, i + 1) for i in range(s - 1) if i != s // 2])


def test_hopf_z_coefficient_is_linking_number():
    from equibridge.diagrams import linking_number

    for entries in ([2], [-2]):
        pd = build_plat_diagram(entries)
        nab = conway_polynomial(seifert_matrix_data(pd))
        assert nab[1] == linking_number(pd)


def test_alexander_values_of_small_knots():
    """det(V - t V^T) recovers the classical Alexander polynomials."""
    def alex(v, t_num, t_den):
        # evaluate det(V - t V^T) exactly at t = t_num/t_den, cleared
        g = len(v)
        m = [[t_den * v[i][j] - t_num * v[j][i] for j in range(g)]
             for i in range(g)]
        return _bareiss_det(m)  # equals den^g * det(V - t V^T)

    d3 = seifert_matrix_data(build_plat_diagram([2, -2]))
    assert_unimodular_skew(d3)
    v3 = d3.matrix
    # t^2 - t + 1 up to units: check value at t = 2 (|.| = 3) and t = -1 (3)
    assert abs(alex(v3, 2, 1)) == 3
    assert abs(alex(v3, -1, 1)) == 3

    d5 = seifert_matrix_data(build_plat_diagram([2, 2]))
    assert_unimodular_skew(d5)
    v5 = d5.matrix
    # t^2 - 3t + 1: |at t=2| = 1, |at t=-1| = 5
    assert abs(alex(v5, 2, 1)) == 1
    assert abs(alex(v5, -1, 1)) == 5


def test_zero_crossing_unknot_closure():
    """The closure of the infinity tangle is a crossingless unknot."""
    pd = build_plat_diagram([0, 0])
    assert pd.crossing_count() == 0 and pd.component_count() == 1
    data = seifert_matrix_data(pd)
    assert data.rank == 0 and data.circle_count == 1
    assert conway_polynomial(data) == zp_parse("1")
    assert determinant(data) == 1


def test_same_knot_same_conway_across_inversions():
    """The two inversion presentations give different diagrams of one knot,
    so the knot Conway polynomials and determinants must coincide."""
    from equibridge.presentations import inversions_from_fraction
    from equibridge.rationals import schubert_classes

    for p, q in schubert_classes(21):
        pair = inversions_from_fraction(p, q)
        if pair.inv2 is None:
            continue
        n1 = conway_polynomial(seifert_matrix_data(build_knot_diagram(pair.inv1)))
        n2 = conway_polynomial(seifert_matrix_data(build_knot_diagram(pair.inv2)))
        assert n1 == n2, (p, q)


def test_knot_determinant_equals_conway_at_minus_one():
    """|Delta(-1)| read through z^2 = -4 matches the Seifert determinant."""
    rng = random.Random(47)
    for _ in range(40):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        data = seifert_matrix_data(build_knot_diagram(pres))
        nab = conway_polynomial(data)
        value = sum(c * (-4) ** (e // 2) for e, c in enumerate(nab))
        assert abs(value) == determinant(data)


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
    assert _interp_poly(pts) == expected


def test_interp_poly_rejects_non_integer_coefficients():
    # (x^2 + x) / 2 takes integer values at integers but has half-integer
    # coefficients.
    pts = [(x, (x * x + x) // 2) for x in _conway_nodes(3)]
    with pytest.raises(InvariantViolation):
        _interp_poly(pts)
