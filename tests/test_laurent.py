import random
import time
from math import gcd

import pytest
from hypothesis import given, strategies as st

from equibridge.butterfly import butterfly_polynomial
from equibridge.laurent import (
    DomainError,
    RationalFn,
    TCoeffs,
    lp as normal,
    lp_is_eta_admissible,
    lp_to_str,
    zp_to_str,
)
from equibridge.diagrams import build_knot_diagram, build_lhat_diagram
from equibridge.moth import order_certificate
from equibridge.oracles import rf_make, subs_inv_equal, z_to_t
from equibridge.presentations import I1Presentation, parse_i1
from equibridge.seifert import seifert_matrix_data

from notation import lp_parse, zp_parse
from seifert_conway import conway_polynomial

ZERO = TCoeffs(0, ())
ONE = TCoeffs(0, (1,))


def lp(text):
    return lp_parse(text)


def times(f, g):
    """f * g, multiplied out here so that no library product is trusted."""
    out = [0] * max(0, len(f.cs) + len(g.cs) - 1)
    for i, x in enumerate(f.cs):
        for j, y in enumerate(g.cs):
            out[i + j] += x * y
    return normal(f.val + g.val, out)


def scaled(f, k):
    return normal(f.val, [k * c for c in f.cs])


def test_lp_trims_both_ends():
    assert normal(-2, [0, 0, 3, 0, -1, 0]) == TCoeffs(0, (3, 0, -1))
    assert normal(5, (7,)) == (5, (7,))
    assert normal(-3, [0, 0, 0]) == ZERO == normal(4, ())
    assert normal(-1, [1, 0, 1]) == lp("t^-1 + t")


def test_subs_inv_equal_examples():
    assert subs_inv_equal(RationalFn(lp("t + t^-1 - 2"), ONE))
    assert not subs_inv_equal(RationalFn(lp("t - 1"), ONE))
    assert subs_inv_equal(rf_make(lp("2 - t - t^-1"), lp("3 - t - t^-1")))
    # 1/t^2 and t^-1 / (t^2 + 1) are not symmetric, (t / (t^2 + 1)) is
    assert not subs_inv_equal(RationalFn(lp("t^-2"), ONE))
    assert not subs_inv_equal(RationalFn(lp("t^-1"), lp("1 + t^2")))
    assert subs_inv_equal(RationalFn(lp("t"), lp("1 + t^2")))
    assert subs_inv_equal(RationalFn(ZERO, ONE))


def test_eta_admissible_examples():
    assert lp_is_eta_admissible(lp("t + t^-1 - 2"))
    assert not lp_is_eta_admissible(lp("t - 1"))
    assert not lp_is_eta_admissible(lp("t + t^-1"))
    # palindromic and vanishing at 1, but centred on t^1
    assert not lp_is_eta_admissible(lp("1 - 2*t + t^2"))
    # the zero polynomial is admissible, and is a butterfly polynomial
    zero = butterfly_polynomial(parse_i1("2,-2,-2;1,-1,-1"))
    assert zero == ZERO and lp_is_eta_admissible(zero)


def test_parse_print_round_trip():
    for text in ("t^-1 - 2 + t", "0", "7", "-3*t^2", "t^-5 + 4*t^5"):
        assert lp_to_str(lp_parse(text)) == text
    assert lp_parse("t^-5 + 4*t^5") == (-5, (1,) + (0,) * 9 + (4,))


dense = st.builds(normal, st.integers(-6, 6),
                  st.lists(st.integers(-9, 9), max_size=8))


@given(dense)
def test_render_parse_round_trip(f):
    assert lp_parse(lp_to_str(f)) == f


def test_z_to_t_examples():
    assert z_to_t(zp_parse("1")) == lp("1")
    assert z_to_t(zp_parse("z^2 + 1")) == lp("3 - t - t^-1")
    assert z_to_t(zp_parse("z^4")) == lp("t^-2 - 4*t^-1 + 6 - 4*t + t^2")
    assert z_to_t(()) == ZERO


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
        rf_make(lp("1"), ZERO)


def test_rf_equality_is_canonical():
    a = rf_make(lp("2 - t - t^-1"), lp("3 - t - t^-1"))
    # scaling both parts leaves the value fixed
    c = rf_make(lp("12 - 6*t - 6*t^-1"), lp("18 - 6*t - 6*t^-1"))
    assert a == c


@given(st.lists(st.integers(-9, 9), max_size=4), st.integers(-5, 5))
def test_admissibility_closure(half, k):
    """f(t) + f(1/t) - 2 f(1), for f of non-negative degree, its image
    under t -> 1/t (itself, reversed) and its multiples are admissible."""
    cs = [*half[:0:-1], 2 * half[0] - 2 * sum(half), *half[1:]] if half else []
    sym = normal(1 - len(half), cs)
    assert lp_is_eta_admissible(sym)
    assert lp_is_eta_admissible(normal(1 - len(half), cs[::-1]))
    assert lp_is_eta_admissible(scaled(sym, k))


@given(st.lists(st.integers(-9, 9), max_size=4))
def test_z_to_t_symmetric(half):
    g = z_to_t([c for x in half for c in (x, 0)])
    assert subs_inv_equal(RationalFn(g, ONE))


def _coprime_over_q(f, g, prime=2**61 - 1):
    """Euclid over GF(prime), a route that shares no code with rf_make.

    When the prime divides neither leading coefficient, the gcd of the
    reductions is a multiple of the reduced gcd over Q, so a constant gcd
    here certifies that f and g are coprime over Q.
    """
    a, b = ([c % prime for c in h.cs] for h in (f, g))
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
    assert r.den.val == 0 and r.den.cs[0] != 0
    assert r.den.cs[-1] > 0
    assert normal(*r.num) == r.num and normal(*r.den) == r.den
    if r.num == ZERO:
        assert r.den == ONE
        return
    assert gcd(*r.num.cs, *r.den.cs) == 1
    assert _coprime_over_q(r.num, r.den)


nonzero = dense.filter(lambda f: f != ZERO)


@given(dense, nonzero, nonzero)
def test_rf_make_cancels_a_common_factor(x, y, h):
    r = rf_make(x, y)
    assert rf_make(times(x, h), times(y, h)) == r
    assert_canonical(r)
    assert times(r.num, y) == times(r.den, x)


def _moth_inputs(pres):
    """(nabla(L-hat)/z, nabla(K)) in t: the two arguments of rf_make for the
    moth polynomial of a presentation."""
    cert = order_certificate(pres)
    lhat = cert.conway_lhat
    assert lhat[0] == 0
    return z_to_t(lhat[1:]), z_to_t(cert.conway_knot)


def test_continuant_moth_inputs_match_the_diagram_engine():
    pres = I1Presentation((2, -4), (1, 2))
    lhat = conway_polynomial(seifert_matrix_data(build_lhat_diagram(pres)), 2)
    knot = conway_polynomial(seifert_matrix_data(build_knot_diagram(pres)), 1)
    num, den = _moth_inputs(pres)
    assert lhat[0] == 0 and z_to_t(lhat[1:]) == num
    assert z_to_t(knot) == den
    assert rf_make(num, den) == order_certificate(pres).moth


def test_rf_make_of_a_40_pair_moth_is_fast():
    rng = random.Random(40)
    pres = I1Presentation(tuple(rng.choice([-4, -2, 2, 4]) for _ in range(40)),
                          tuple(rng.choice([-2, -1, 1, 2]) for _ in range(40)))
    num, den = _moth_inputs(pres)
    assert min(len(num.cs), len(den.cs)) >= 81
    start = time.perf_counter()
    r = rf_make(num, den)
    assert time.perf_counter() - start < 1
    assert_canonical(r)
    assert times(r.num, den) == times(r.den, num)
    # consecutive continuants are coprime: nothing cancels
    assert len(r.den.cs) == len(den.cs)
