import random
import time
from math import gcd

import pytest
from hypothesis import given, strategies as st

from equibridge.laurent import (
    DomainError,
    LaurentPoly,
    lp_is_eta_admissible,
    lp_parse,
    lp_to_str,
    rf_make,
    z_to_t,
    zp_parse,
    zp_to_str,
)
from equibridge.diagrams import build_knot_diagram, build_lhat_diagram
from equibridge.moth import order_certificate
from equibridge.presentations import I1Presentation, conway_continuant
from equibridge.seifert import conway_polynomial, seifert_matrix_data


def lp(text):
    return lp_parse(text)


def test_additive_inverse():
    assert lp("t - 1") + lp("1 - t") == LaurentPoly.zero()


def test_distributivity_example():
    assert lp("t + t^-1") * lp("t") == lp("t^2 + 1")


def test_value_at_one_examples():
    assert lp("t + t^-1 - 2").value_at_one() == 0
    assert lp("t + t^-1").value_at_one() == 2
    assert lp("3*t^-2 - t^5 + 4").value_at_one() == 6
    assert LaurentPoly.zero().value_at_one() == 0


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
        z_to_t((0, 1))
    with pytest.raises(DomainError):
        z_to_t((1, 0, 1, 2))


def test_zp_round_trip():
    assert zp_to_str(zp_parse("1 - z^2")) == "1 - z^2"
    assert zp_parse("1 - z^2") == (1, 0, -1)
    assert zp_parse("-3*z^5 + z") == (0, 1, 0, 0, 0, -3)
    assert zp_parse("0") == () and zp_to_str(()) == "0"
    # trailing zeros render like the trimmed tuple
    assert zp_to_str([0, 2, 0, 0]) == "2*z"
    with pytest.raises(DomainError):
        zp_parse("z^-1 + 1")


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
    # scaling both parts leaves the value fixed
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
    sym = sym - sym.value_at_one()
    assert lp_is_eta_admissible(sym)
    assert lp_is_eta_admissible(sym.subs_inv())
    assert lp_is_eta_admissible(sym * k)


@given(coeffs, coeffs, st.integers(-5, 5))
def test_value_at_one_is_a_ring_homomorphism(a, b, k):
    x, y = LaurentPoly(a), LaurentPoly(b)
    assert (x + y).value_at_one() == x.value_at_one() + y.value_at_one()
    assert (x * y).value_at_one() == x.value_at_one() * y.value_at_one()
    assert (x * k).value_at_one() == k * x.value_at_one()
    assert x.subs_inv().value_at_one() == x.value_at_one()


@given(st.lists(st.integers(-9, 9), max_size=4))
def test_z_to_t_symmetric(half):
    g = z_to_t([c for x in half for c in (x, 0)])
    assert g == g.subs_inv()


def _coprime_over_q(f, g, prime=2**61 - 1):
    """Euclid over GF(prime), a route that shares no code with rf_make.

    When the prime divides neither leading coefficient, the gcd of the
    reductions is a multiple of the reduced gcd over Q, so a constant gcd
    here certifies that f and g are coprime over Q.
    """
    a, b = ([h.coeff(e) % prime for e in range(h.valuation(), h.degree() + 1)]
            for h in (f, g))
    assert a[-1] and b[-1]
    while b:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            c = a[-1] * inv % prime
            shift = len(a) - len(b)
            for i, x in enumerate(b):
                a[shift + i] = (a[shift + i] - c * x) % prime
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def assert_canonical(r):
    """Denominator an ordinary polynomial with non-zero constant term and
    positive leading coefficient; parts coprime with joint content 1."""
    assert r.den.valuation() == 0
    assert r.den.coeff(r.den.degree()) > 0
    if r.num.is_zero():
        assert r.den == LaurentPoly.const(1)
        return
    assert gcd(*(f.coeff(e) for f in (r.num, r.den) for e in f.support())) == 1
    assert _coprime_over_q(r.num, r.den)


nonzero = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9).filter(bool),
                          min_size=1, max_size=5)


@given(coeffs, nonzero, nonzero)
def test_rf_make_cancels_a_common_factor(a, b, g):
    x, y, h = LaurentPoly(a), LaurentPoly(b), LaurentPoly(g)
    r = rf_make(x, y)
    assert rf_make(x * h, y * h) == r
    assert_canonical(r)
    assert r.num * y == r.den * x


def _moth_inputs(pres):
    """(nabla(L-hat)/z, nabla(K)) in t: the two arguments of rf_make for the
    moth polynomial of a presentation."""
    lhat = conway_continuant(pres.butterfly_cf(), -1)
    knot = conway_continuant(pres.knot_cf(), 1)
    assert lhat[0] == 0
    return z_to_t(lhat[1:]), z_to_t(knot)


def test_continuant_moth_inputs_match_the_diagram_engine():
    pres = I1Presentation((2, -4), (1, 2))
    lhat = conway_polynomial(seifert_matrix_data(build_lhat_diagram(pres)))
    knot = conway_polynomial(seifert_matrix_data(build_knot_diagram(pres)))
    num, den = _moth_inputs(pres)
    assert lhat[0] == 0 and z_to_t(lhat[1:]) == num
    assert z_to_t(knot) == den
    assert rf_make(num, den) == order_certificate(pres).moth


def test_rf_make_of_a_40_pair_moth_is_fast():
    rng = random.Random(40)
    pres = I1Presentation(tuple(rng.choice([-4, -2, 2, 4]) for _ in range(40)),
                          tuple(rng.choice([-2, -1, 1, 2]) for _ in range(40)))
    num, den = _moth_inputs(pres)
    assert min(num.degree(), den.degree()) >= 40
    start = time.perf_counter()
    r = rf_make(num, den)
    assert time.perf_counter() - start < 1
    assert_canonical(r)
    assert r.num * den == r.den * num
    # consecutive continuants are coprime: nothing cancels
    assert r.den.degree() == den.degree() - den.valuation()
