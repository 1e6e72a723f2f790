import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from equibridge import cli, moth
from equibridge.laurent import (
    InvariantViolation,
    lp_parse,
    rf_make,
    z_to_t,
    zp_parse,
)
from equibridge.moth import (
    INFINITE_ORDER,
    INCONCLUSIVE,
    OrderCertificate,
    certificate_from_invariants,
    order_certificate,
)
from equibridge.presentations import (
    I1Presentation,
    butterfly_fraction,
    continuant_matrix,
    conway_continuant,
    inversions_from_fraction,
    knot_fraction,
    parse_i1,
)
from equibridge.rationals import schubert_classes
from equibridge.butterfly import butterfly_polynomial
from equibridge.cli import random_presentation


def test_moth_of_trefoil_presentation():
    m = order_certificate(parse_i1("2;1")).moth
    expected = rf_make(lp_parse("2 - t - t^-1"), lp_parse("3 - t - t^-1"))
    neg = rf_make(lp_parse("-2 + t + t^-1"), lp_parse("3 - t - t^-1"))
    assert m in (expected, neg)


def test_moth_symmetry_and_vanishing_at_one():
    rng = random.Random(51)
    for _ in range(40):
        m = order_certificate(random_presentation(rng, max_n=3, max_alpha=6, max_c=3)).moth
        assert m.subs_inv_equal()
        assert m.num.value_at_one() == 0 != m.den.value_at_one()


def test_order_certificate_examples():
    cert = order_certificate(parse_i1("2;1"))
    assert cert.verdict == INFINITE_ORDER
    assert cert.determinant_lhat == 8
    assert cert.conway_lhat in (zp_parse("z^3"), zp_parse("-z^3"))
    assert cert.determinant_knot == 3
    assert cert.conway_knot == zp_parse("1 + z^2")


def test_vanishing_family_still_infinite_order():
    pres = parse_i1("2,-2,2,-2;1,1,-1,1")
    assert butterfly_polynomial(pres).is_zero()
    cert = order_certificate(pres)
    assert cert.verdict == INFINITE_ORDER
    assert cert.conway_lhat


def test_every_small_presentation_infinite_order():
    rng = random.Random(52)
    for _ in range(40):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        cert = order_certificate(pres)
        assert cert.verdict == INFINITE_ORDER
        assert cert.determinant_lhat == abs(butterfly_fraction(pres).p)
        assert cert.determinant_knot == abs(knot_fraction(pres).p)


def test_inconclusive_branch_via_stub():
    moth = rf_make(lp_parse("0"), lp_parse("1"))
    cert = certificate_from_invariants((), 0, moth, (1,), 1)
    assert cert.verdict == INCONCLUSIVE


def test_certificate_invariant_guard():
    moth = rf_make(lp_parse("0"), lp_parse("1"))
    with pytest.raises(InvariantViolation):
        OrderCertificate(INFINITE_ORDER, (), 0, moth, (1,), 1)


def test_certificate_json_fields():
    j = order_certificate(parse_i1("2;-1")).to_json()
    assert set(j) == {"verdict", "conway_lhat", "det_lhat", "moth_num", "moth_den"}
    assert j["det_lhat"] == 8


def test_moth_parts_are_palindromic():
    """Symmetry under t -> 1/t makes both stored polynomials palindromic."""
    rng = random.Random(53)
    for _ in range(30):
        m = order_certificate(random_presentation(rng, max_n=3, max_alpha=6, max_c=3)).moth
        for poly in (m.num, m.den):
            if poly.is_zero():
                continue
            lo, hi = poly.valuation(), poly.degree()
            assert all(poly.coeff(lo + k) == poly.coeff(hi - k)
                       for k in range(hi - lo + 1))


def test_order_certificate_of_40_pairs_is_fast():
    pres = I1Presentation((2,) * 40, (1,) * 40)
    start = time.perf_counter()
    cert = order_certificate(pres)
    assert time.perf_counter() - start < 1
    assert cert.verdict == INFINITE_ORDER
    assert cert.determinant_knot == abs(knot_fraction(pres).p)


def test_det_from_conway_reads_both_parities():
    assert moth._det_from_conway(zp_parse("1 + z^2")) == 3  # trefoil
    assert moth._det_from_conway(zp_parse("1 - z^2")) == 5  # figure eight
    assert moth._det_from_conway(zp_parse("z^3")) == 8
    assert moth._det_from_conway(zp_parse("z + z^3")) == 6
    with pytest.raises(InvariantViolation):
        moth._det_from_conway(zp_parse("1 + z"))


def _patch_continuant(monkeypatch, sign, row, col, extra):
    """Add `extra` ({z power: coefficient}) to one continuant that `moth`
    reads: entry (row, col) of the knot's `continuant_matrix` (sign 1), or
    entry col of the butterfly's `continuant_row` (sign -1, row 0)."""
    def bumped(entry):
        out = list(entry) + [0] * (max(extra) + 1 - len(entry))
        for e, c in extra.items():
            out[e] += c
        return tuple(out)

    if sign == 1:
        real_matrix = moth.continuant_matrix

        def wrong_matrix(entries, s):
            rows = [list(r) for r in real_matrix(entries, s)]
            rows[row][col] = bumped(rows[row][col])
            return rows

        monkeypatch.setattr(moth, "continuant_matrix", wrong_matrix)
    else:
        assert row == 0
        real_row = moth.continuant_row

        def wrong_row(entries, s):
            pair = list(real_row(entries, s))
            pair[col] = bumped(pair[col])
            return tuple(pair)

        monkeypatch.setattr(moth, "continuant_row", wrong_row)


@pytest.mark.parametrize("sign, name, extra", [(1, "knot", {2: 2}),
                                               (-1, "butterfly", {3: 2})])
def test_wrong_conway_polynomial_fails_the_determinant_check(
        monkeypatch, capsys, sign, name, extra):
    _patch_continuant(monkeypatch, sign, 0, 0, extra)
    message = f"{name} determinant and Conway polynomial disagree"
    with pytest.raises(InvariantViolation, match=message):
        order_certificate(parse_i1("2;1"))
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    assert capsys.readouterr().err == f"error: internal check failed: {message}\n"


@pytest.mark.parametrize("sign, row, col, extra, message", [
    # a wrong cofactor of the knot's continuant matrix
    (1, 1, 0, {1: 2}, "knot continuant matrix does not have determinant 1"),
    (1, 1, 1, {2: 1}, "knot continuant matrix does not have determinant 1"),
    # 4 z^3 + z^5 vanishes at z = 2i, so the determinant checks still pass
    (-1, 0, 0, {3: 4, 5: 1},
     "butterfly-link Conway polynomial is not (b/2) z nabla(K) - K(x1..x(m-1))"),
])
def test_wrong_cofactor_or_continuant_fails_the_moth_certificate(
        monkeypatch, capsys, sign, row, col, extra, message):
    _patch_continuant(monkeypatch, sign, row, col, extra)
    with pytest.raises(InvariantViolation) as caught:
        order_certificate(parse_i1("2;1"))
    assert str(caught.value) == message
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    assert capsys.readouterr().err == f"error: internal check failed: {message}\n"


def _certified(pres):
    return moth.certified_moth(conway_continuant(pres.butterfly_cf(), -1),
                               continuant_matrix(pres.knot_cf(), 1), pres.b)


def _gcd_reduced(pres):
    """The oracle: the same quotient through z_to_t and the Z[t] gcd."""
    lhat = conway_continuant(pres.butterfly_cf(), -1)
    knot = conway_continuant(pres.knot_cf(), 1)
    assert lhat[0] == 0
    return rf_make(z_to_t(lhat[1:]), z_to_t(knot))


def test_certified_moth_matches_the_gcd_reduction_up_to_p_101():
    count = 0
    for p, q in schubert_classes(101):
        pair = inversions_from_fraction(p, q)
        for pres in (pair.inv1, pair.inv2):
            if pres is not None:
                assert _certified(pres) == _gcd_reduced(pres), pres
                count += 1
    assert count == 1546


long_twist_data = st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([-6, -4, -2, 2, 4, 6]), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3).filter(bool), min_size=n, max_size=n),
))


@settings(max_examples=20, deadline=None)
@given(long_twist_data)
def test_certified_moth_matches_the_gcd_reduction(data):
    pres = I1Presentation(*map(tuple, data))
    assert _certified(pres) == _gcd_reduced(pres)


def test_certified_moth_of_200_pairs_is_fast():
    pres = I1Presentation((2,) * 200, (1,) * 200)
    start = time.perf_counter()
    m = _certified(pres)
    assert time.perf_counter() - start < 1
    # nothing cancels: the denominator keeps all 2 * 200 roots of nabla(K)
    assert m.den.degree() == 400 and m.den.valuation() == 0
