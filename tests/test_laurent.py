from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from equibridge.laurent import (
    DomainError,
    LaurentPoly,
    ZPoly,
    lp_is_eta_admissible,
    lp_parse,
    lp_to_str,
    rf_make,
    z_to_t,
    zp_parse,
    zp_to_str,
)


def lp(text):
    return lp_parse(text)


def test_additive_inverse():
    assert lp("t - 1") + lp("1 - t") == LaurentPoly.zero()


def test_distributivity_example():
    assert lp("t + t^-1") * lp("t") == lp("t^2 + 1")


def test_eval_at_one():
    assert lp("t + t^-1 - 2").eval_at(1) == 0
    assert lp("t + t^-1").eval_at(2) == Q(5, 2)


def test_eval_at_zero_with_negative_exponent_raises():
    with pytest.raises(DomainError):
        lp("t^-1 + 1").eval_at(0)
    assert lp("t + 3").eval_at(0) == 3


def test_subs_inv_reverses_exponents():
    assert lp("2*t^3 - t^-1").subs_inv() == lp("2*t^-3 - t")


def test_eta_admissible_examples():
    assert lp_is_eta_admissible(lp("t + t^-1 - 2"))
    assert not lp_is_eta_admissible(lp("t - 1"))
    assert not lp_is_eta_admissible(lp("t + t^-1"))


def test_parse_print_round_trip():
    for text in ("t^-1 - 2 + t", "0", "7", "-3*t^2", "t^-5 + 4*t^5"):
        assert lp_to_str(lp_parse(text)) == text


def test_z_to_t_examples():
    assert z_to_t(zp_parse("1")) == lp("1")
    assert z_to_t(zp_parse("z^2 + 1")) == lp("3 - t - t^-1")
    zsq = lp("2 - t - t^-1")
    assert z_to_t(zp_parse("z^4")) == zsq * zsq


def test_z_to_t_rejects_odd():
    with pytest.raises(DomainError):
        z_to_t(ZPoly({1: 1}))


def test_zpoly_divide_by_z():
    assert zp_parse("z^3 + 2*z").divide_by_z() == zp_parse("z^2 + 2")
    with pytest.raises(DomainError):
        zp_parse("z + 1").divide_by_z()


def test_zp_round_trip():
    assert zp_to_str(zp_parse("1 - z^2")) == "1 - z^2"


def test_rf_make_examples():
    one = rf_make(lp("1"), lp("1"))
    assert rf_make(lp("t - 1"), lp("t - 1")) == one
    assert rf_make(lp("t^2 - 1"), lp("t - 1")) == rf_make(lp("t + 1"), lp("1"))
    r = rf_make(lp("2 - t - t^-1"), lp("3 - t - t^-1"))
    # already reduced: numerator (t-1)^2 and denominator t^2-3t+1 are coprime
    assert r.num == lp("1 - 2*t + t^2")
    assert r.den == lp("1 - 3*t + t^2")


def test_rf_make_rejects_zero_denominator():
    with pytest.raises(DomainError):
        rf_make(lp("1"), LaurentPoly.zero())


def test_rf_equality_is_canonical():
    a = rf_make(lp("2 - t - t^-1"), lp("3 - t - t^-1"))
    b = rf_make(lp("-2*t + 2*t^2 + 2*t^3 - 2*t^2") + lp("-2*t^2 + 2*t"),
                LaurentPoly.zero() + lp("-2*t^2 + 0"))
    # a sanity identity instead: scaling both parts leaves the value fixed
    c = rf_make(lp("2 - t - t^-1") * 6, lp("3 - t - t^-1") * 6)
    assert a == c


coeffs = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=5)


@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    x, y, z = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(coeffs, st.integers(-5, 5))
def test_admissibility_closure(a, k):
    f = LaurentPoly(a)
    sym = f + f.subs_inv()
    sym = sym - int(sym.eval_at(1))
    assert lp_is_eta_admissible(sym)
    assert lp_is_eta_admissible(sym.subs_inv())
    assert lp_is_eta_admissible(sym * k)


@given(st.dictionaries(st.integers(0, 3).map(lambda e: 2 * e),
                       st.integers(-9, 9), max_size=4))
def test_z_to_t_symmetric(d):
    g = z_to_t(ZPoly(d))
    assert g == g.subs_inv()
