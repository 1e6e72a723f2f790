import hashlib
import json
import random
import time
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from equibridge import cli, moth
from equibridge.laurent import InvariantViolation, lp_to_str, zp_to_str
from equibridge.moth import INFINITE_ORDER, OrderCertificate, order_certificate
from equibridge.oracles import _pmul, rf_make, subs_inv_equal, z_to_t
from equibridge.presentations import I1Presentation, parse_i1
from equibridge.butterfly import butterfly_polynomial
from equibridge.cli import random_presentation

import tables
from notation import lp_parse, zp_parse


def test_moth_of_trefoil_presentation():
    m = order_certificate(parse_i1("2;1")).moth
    expected = rf_make(lp_parse("2 - t - t^-1"), lp_parse("3 - t - t^-1"))
    neg = rf_make(lp_parse("-2 + t + t^-1"), lp_parse("3 - t - t^-1"))
    assert m in (expected, neg)


def test_moth_symmetry_and_vanishing_at_one():
    rng = random.Random(51)
    for _ in range(40):
        m = order_certificate(random_presentation(rng, max_n=3, max_alpha=6, max_c=3)).moth
        assert subs_inv_equal(m)
        assert sum(m.num.cs) == 0 != sum(m.den.cs)


def test_order_certificate_examples():
    cert = order_certificate(parse_i1("2;1"))
    assert cert.verdict == INFINITE_ORDER
    assert cert.determinant_lhat == 8
    assert cert.conway_lhat in (zp_parse("z^3"), zp_parse("-z^3"))
    assert cert.determinant_knot == 3
    assert cert.conway_knot == zp_parse("1 + z^2")


def test_vanishing_family_still_infinite_order():
    pres = parse_i1("2,-2,2,-2;1,1,-1,1")
    assert butterfly_polynomial(pres) == (0, ())
    cert = order_certificate(pres)
    assert cert.verdict == INFINITE_ORDER
    assert cert.conway_lhat


def test_every_small_presentation_infinite_order():
    rng = random.Random(52)
    for _ in range(40):
        pres = random_presentation(rng, max_n=3, max_alpha=6, max_c=3)
        cert = order_certificate(pres)
        assert cert.verdict == INFINITE_ORDER
        assert cert.determinant_lhat == abs(pres.butterfly_fraction.p)
        assert cert.determinant_knot == abs(pres.knot_fraction.p)


def test_certificate_invariant_guard():
    moth = rf_make(lp_parse("0"), lp_parse("1"))
    with pytest.raises(InvariantViolation):
        OrderCertificate((), 0, moth, (1,), 1)


def test_certificate_json_fields():
    j = cli.analyze_presentation(parse_i1("2;-1"))["order"]
    assert set(j) == {"verdict", "conway_lhat", "det_lhat", "moth_num", "moth_den"}
    assert j["det_lhat"] == 8


@settings(max_examples=40, deadline=None)
@given(tables.presentations(12, 400, 400))
def test_moth_parts_are_palindromic(pres):
    """Both stored polynomials are polynomials in w = -t + 2 - 1/t, which
    t -> 1/t fixes, so both are palindromes and 2 val = deg den - deg num,
    past the table as on it."""
    m = order_certificate(pres).moth
    for poly in (m.num, m.den):
        assert poly.cs == poly.cs[::-1]
    assert 2 * m.num.val == len(m.den.cs) - len(m.num.cs)


def test_order_certificate_of_40_pairs_is_fast():
    pres = I1Presentation((2,) * 40, (1,) * 40)
    start = time.perf_counter()
    cert = order_certificate(pres)
    assert time.perf_counter() - start < 1
    assert cert.verdict == INFINITE_ORDER
    assert cert.determinant_knot == abs(pres.knot_fraction.p)


def test_det_from_conway_reads_both_parities():
    assert moth._det_from_conway([1, 1], 0) == 3  # trefoil, 1 + z^2
    assert moth._det_from_conway([1, -1], 0) == 5  # figure eight, 1 - z^2
    assert moth._det_from_conway([0, 1], 1) == 8  # z^3
    assert moth._det_from_conway([1, 1], 1) == 6  # z + z^3
    assert moth._det_from_conway([], 0) == 0


def _patch_continuant(monkeypatch, sign, row, col, extra):
    """Add `extra` ({w power: coefficient}) to one output of
    `moth.conway_in_w`: entry (row, col) of the knot's matrix
    [[A, zB], [zC, D]] (sign 1), or L = nabla(L-hat)/z (sign -1, row 0)."""
    real = moth.conway_in_w
    index = 2 * row + col if sign == 1 else 4

    def wrong(pres):
        out = [list(p) for p in real(pres)]
        entry = out[index] + [0] * (max(extra) + 1 - len(out[index]))
        for e, c in extra.items():
            entry[e] += c
        out[index] = entry
        return tuple(out)

    assert sign == 1 or (row, col) == (0, 0)
    monkeypatch.setattr(moth, "conway_in_w", wrong)


@pytest.mark.parametrize("sign, name, extra", [(1, "knot", {1: 2}),
                                               (-1, "butterfly", {1: 2})])
def test_wrong_conway_polynomial_fails_the_determinant_check(
        monkeypatch, capsys, sign, name, extra):
    _patch_continuant(monkeypatch, sign, 0, 0, extra)
    message = f"{name} determinant and Conway polynomial disagree"
    with pytest.raises(InvariantViolation, match=message):
        order_certificate(parse_i1("2;1"))
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    assert capsys.readouterr().err == f"error: internal check failed: {message}\n"


def _exponent(conway, b):
    """The k of the one-point check, w = 2^k, from the inputs given: m the
    largest |coefficient| and n the longest list of A, C, D and L, h = b/2."""
    A, _, C, D, L = conway
    m = max(abs(c) for p in (A, C, D, L) for c in p)
    n = max(map(len, (A, C, D, L)))
    return 2 * m.bit_length() + (b // 2).bit_length() + (n + 1).bit_length() + 4


# k of the trefoil presentation I1(2;1), before any patch
K_TREFOIL = _exponent(moth.conway_in_w(parse_i1("2;1")), 2)
BEZOUT = "knot continuant matrix and nabla(L-hat)/z fail their Bezout identity"


@pytest.mark.parametrize("sign, row, col, extra, message", [
    # a wrong C or D of the knot's continuant matrix
    (1, 1, 0, {0: 2}, BEZOUT),
    (1, 1, 1, {1: 1}, BEZOUT),
    # 4w + w^2 vanishes at w = -4, so the determinant checks still pass
    (-1, 0, 0, {1: 4, 2: 1}, BEZOUT),
    # 2^k - w, k of the unpatched input, vanishes at w = 2^k; the patched
    # input has a larger k, at which it does not
    (1, 1, 1, {0: 2**K_TREFOIL, 1: -1}, BEZOUT),
])
def test_wrong_cofactor_or_continuant_fails_the_moth_certificate(
        monkeypatch, capsys, sign, row, col, extra, message):
    _patch_continuant(monkeypatch, sign, row, col, extra)
    with pytest.raises(InvariantViolation) as caught:
        order_certificate(parse_i1("2;1"))
    assert str(caught.value) == message
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    assert capsys.readouterr().err == f"error: internal check failed: {message}\n"


def test_a_patch_of_b_is_not_read_by_the_certificate(monkeypatch):
    """B enters the moth only through L = (b/2)A - B, which `conway_in_w`
    forms; the certificate reads A, C, D and L alone."""
    real = order_certificate(parse_i1("2;1"))
    _patch_continuant(monkeypatch, 1, 0, 1, {0: 5, 3: 1})
    assert order_certificate(parse_i1("2;1")) == real


def test_a_negated_continuant_matrix_fails_the_normalization(monkeypatch, capsys):
    """-A, -B, -C, -D and -L keep the Bezout identity and both determinants,
    but den(1) = -A(0) = -1, and the content-1 argument needs den(1) = 1."""
    real = moth.conway_in_w
    monkeypatch.setattr(moth, "conway_in_w",
                        lambda pres: tuple([-x for x in p] for p in real(pres)))
    message = "knot Conway normalization lost"
    with pytest.raises(InvariantViolation, match=message):
        order_certificate(parse_i1("2;1"))
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    assert capsys.readouterr().err == f"error: internal check failed: {message}\n"


def test_no_point_2_to_the_j_hides_a_patch_of_d_or_l():
    """2^j - w vanishes at w = 2^j only, so added to D or to L it is caught
    for every j exactly when the one-point check's k is none of them."""
    A, B, C, D, L = moth.conway_in_w(parse_i1("2;1"))
    for j in range(1, 4 * K_TREFOIL):
        bump = [-2**j, 1]  # minus (2^j - w)
        assert moth._at(bump, j) == 0
        for wrong in ((A, B, C, _sub(D, bump), L), (A, B, C, D, _sub(L, bump))):
            assert not _list_bezout(wrong, 2)
            assert not _one_point(wrong, 2), j


def _sub(a, b):
    out = a + [0] * (len(b) - len(a))
    for k, x in enumerate(b):
        out[k] -= x
    return moth._trim(out)


def _add(a, b):
    return _sub(a, [-x for x in b])


def _one_point(conway, b):
    A, _, C, D, L = conway
    return moth._bezout_holds((A, C, D, L), b // 2)


def _list_bezout(conway, b):
    """The reference for `moth._bezout_holds`: A (D - (b/2) w C) + w C L = 1
    with every product of lists written out, O(n^2)."""
    A, _, C, D, L = conway
    cofactor = _sub(D, [0] + [b // 2 * x for x in C])
    return _add(_pmul(A, cofactor), [0] + _pmul(C, L)) == [1]


def _corrupt(draw, conway):
    """conway with one coefficient moved by +-1 or one c w^i added to one
    of A, C, D and L, trimmed as `conway_in_w` leaves them."""
    out = [list(p) for p in conway]
    entry = out[draw(st.sampled_from([0, 2, 3, 4]))]
    i = draw(st.integers(0, len(entry) + 2))
    entry += [0] * (i + 1 - len(entry))
    if draw(st.booleans()):
        entry[i] += draw(st.sampled_from([-1, 1]))
    else:
        entry[i] += draw(st.integers(-10**6, 10**6).filter(bool))
    return tuple(moth._trim(p) for p in out)


def _certified(pres):
    return moth.certified_moth(moth.conway_in_w(pres), pres.b)


def _gcd_reduced(cert):
    """The oracle: the same quotient through z_to_t and the Z[t] gcd, from
    the certificate's polynomials in z."""
    lhat = cert.conway_lhat
    assert lhat[0] == 0
    return rf_make(z_to_t(lhat[1:]), z_to_t(cert.conway_knot))


def test_certified_moth_matches_the_gcd_reduction_up_to_p_101():
    certificates = tables.certificates(101)
    for pres, cert in certificates.items():
        assert _certified(pres) == _gcd_reduced(cert), pres
    assert len(certificates) == 1546


long_twists = tables.presentations(60, 6, 3)


@settings(max_examples=20, deadline=None)
@given(long_twists)
def test_certified_moth_matches_the_gcd_reduction(pres):
    assert _certified(pres) == _gcd_reduced(order_certificate(pres))


@settings(max_examples=60, deadline=None)
@given(long_twists, st.data())
def test_the_one_point_check_agrees_with_the_list_products(pres, data):
    conway = moth.conway_in_w(pres)
    assert _one_point(conway, pres.b) and _list_bezout(conway, pres.b)
    wrong = _corrupt(data.draw, conway)
    assert _one_point(wrong, pres.b) is _list_bezout(wrong, pres.b) is False


def _continuant(xs):
    """K(x_1, ..., x_n) of polynomials in z (lists, low to high), by
    K_i = x_i K_(i-1) + K_(i-2) from K_0 = 1 and K_(-1) = 0."""
    before, current = [], [1]
    for x in xs:
        before, current = current, _add(_pmul(x, current), before)
    return current


def test_l_is_the_butterfly_continuant_up_to_p_201():
    """z L, with L = (b/2)A - B from `conway_in_w`, is the continuant of
    the butterfly's continued fraction e_0, ..., e_2n at
    x_i = -(-1)^i (e_i/2) z, on every inversion of the p <= 201 table."""
    presentations = tables.inversions(201)
    for pres in presentations:
        A, B, C, D, L = moth.conway_in_w(pres)
        assert L == _sub([pres.b // 2 * x for x in A], B)
        xs = [[0, -(-1)**i * (e // 2)] for i, e in enumerate(pres.butterfly_cf())]
        assert list(moth._in_z(L, 1)) == _continuant(xs), pres
    assert len(presentations) == 6161


def test_certified_moth_of_200_pairs_is_fast():
    pres = I1Presentation((2,) * 200, (1,) * 200)
    start = time.perf_counter()
    m = _certified(pres)
    assert time.perf_counter() - start < 1
    # nothing cancels: the denominator keeps all 2 * 200 roots of nabla(K)
    assert m.den.val == 0 and len(m.den.cs) == 401


def test_certificates_up_to_p_201_are_pinned():
    """Every inversion of the p <= 201 table, its knot Conway polynomial and
    its certificate in one digest, recorded before the Conway polynomials
    moved from z to w."""
    digest = hashlib.sha256()
    certificates = tables.certificates(201)
    for pres, cert in certificates.items():
        # the lemma of README "Every certificate has a witness"
        assert gcd(pres.knot_fraction.p, cert.determinant_lhat) == 1
        order = {"verdict": cert.verdict,
                 "conway_lhat": zp_to_str(cert.conway_lhat),
                 "det_lhat": cert.determinant_lhat,
                 "moth_num": lp_to_str(cert.moth.num),
                 "moth_den": lp_to_str(cert.moth.den)}
        line = json.dumps([str(pres), zp_to_str(cert.conway_knot), order],
                          sort_keys=True)
        digest.update(f"{line}\n".encode())
    assert len(certificates) == 6161
    assert digest.hexdigest() == (
        "a5f4835561675a0f13f8bea0e87565033c8a6b52522f6f55a41a6785714f6442")


@settings(max_examples=50, deadline=None)
@given(tables.presentations(40, 200, 200))
def test_every_certificate_has_a_witness_past_the_table(pres):
    """The lemma of README "Every certificate has a witness" beyond the
    p <= 201 pin: det L-hat is |p''| > 0 and prime to the knot's p."""
    cert = order_certificate(pres)
    assert cert.determinant_lhat == abs(pres.butterfly_fraction.p) > 0
    assert gcd(abs(pres.knot_fraction.p), cert.determinant_lhat) == 1


def test_canonical_moths_up_to_p_45_are_distinct():
    """Every inversion at p <= 45 has its own canonical moth (num, den)."""
    moths = [cert.moth for cert in tables.certificates(45).values()]
    assert len(moths) == len(set(moths)) == 304


VARIABLES = "hcwABCD"


class Poly(dict):
    """A test-local integer polynomial in `VARIABLES`: exponent tuple to
    non-zero coefficient, with only the ring operations."""

    @classmethod
    def of(cls, x) -> "Poly":
        """x itself, an integer constant, or a variable named by its letter."""
        if isinstance(x, Poly):
            return x
        if isinstance(x, str):
            return cls({tuple(int(v == x) for v in VARIABLES): 1})
        return cls({(0,) * len(VARIABLES): x} if x else {})

    def __add__(self, other):
        out = dict(self)
        for m, c in Poly.of(other).items():
            out[m] = out.get(m, 0) + c
        return Poly({m: c for m, c in out.items() if c})

    def __neg__(self):
        return Poly({m: -c for m, c in self.items()})

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __mul__(self, other):
        out = Poly()
        for m1, c1 in self.items():
            for m2, c2 in Poly.of(other).items():
                out += Poly({tuple(map(add, m1, m2)): c1 * c2})
        return out

    __radd__, __rmul__ = __add__, __mul__


def _step(A, B, C, D, h, c, w):
    """One pass of `conway_in_w`'s loop over the pair (2h, c)."""
    B = B + h * A
    A = A + c * w * B
    D = D + h * w * C
    C = C + c * D
    return A, B, C, D


def _times(m, n, w):
    """[[a, zb], [zc, d]] times [[a', zb'], [zc', d']], each as (a, b, c, d)
    with z^2 = w."""
    (a1, b1, c1, d1), (a2, b2, c2, d2) = m, n
    return (a1 * a2 + w * b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, w * c1 * b2 + d1 * d2)


def _in_w(coeffs, w):
    """The polynomial sum coeffs[k] w^k."""
    out, power = Poly(), Poly.of(1)
    for k in coeffs:
        out, power = out + k * power, power * w
    return out


def test_the_continuant_matrix_has_determinant_one_for_every_presentation():
    """AD - wBC = 1 by induction on the twist pairs, so with L = (b/2)A - B
    the Bezout identity A(D - (b/2)wC) + wCL = 1 holds for every input."""
    h, c, w, A, B, C, D = map(Poly.of, VARIABLES)

    def det(m):
        return m[0] * m[3] - w * m[1] * m[2]

    one = Poly.of(1)
    step = (one + h * c * w, h, c, one)  # [[1 + hcw, hz], [cz, 1]]
    assert det(step) == one
    # One pair multiplies the matrix by the step, so AD - wBC is kept.
    after = _step(A, B, C, D, h, c, w)
    assert after == _times((A, B, C, D), step, w)
    assert det(after) == det((A, B, C, D))
    assert det((one, Poly(), Poly(), one)) == one  # no pairs: the identity
    # L = (b/2)A - B, with h = b/2 here.
    L = h * A - B
    assert A * (D - h * w * C) + w * C * L == det((A, B, C, D))
    # The transcribed step is the loop of `conway_in_w`.
    for pres in map(parse_i1, ("2;1", "4,-2;3,1", "-6,2,8;-1,2,-3")):
        state = (one, Poly(), Poly(), one)
        for a, cc in zip(pres.alphas, pres.cs):
            state = _step(*state, a // 2, cc, w)
        assert state == tuple(_in_w(p, w) for p in moth.conway_in_w(pres)[:4]), pres


def _at_w_0(p):
    """p with w = 0: its monomials free of w."""
    k = VARIABLES.index("w")
    return Poly({m: c for m, c in p.items() if not m[k]})


def test_at_w_0_the_knot_continuant_is_1_and_l_vanishes():
    """At w = 0 a pair step keeps A and D and adds hA to B and cD to C.
    A(0) = D(0) = 1 at the identity, so they stay 1, and each pair (2h, c)
    adds h to B(0), so B(0) = sum of h = b/2.  Hence L(0) = (b/2)A(0) -
    B(0) = 0, which is `certified_moth`'s "no z term" check (the linking
    number), and den(1) = A(0) = 1, since w = 0 at t = 1."""
    h, c, w, A, B, C, D = map(Poly.of, VARIABLES)
    one = Poly.of(1)
    after = tuple(map(_at_w_0, _step(A, B, C, D, h, c, w)))
    assert after == (A, B + h * A, C + c * D, D)
    # With A(0) = D(0) = 1, a step keeps them and adds h to B(0).
    assert _step(one, B, C, one, h, c, Poly.of(0)) == (one, B + h, C + c, one)
    # The identity has B(0) = 0, so B(0) = sum of h = b/2 and L(0) = 0.
    for pres in map(parse_i1, ("2;1", "4,-2;3,1", "-6,2,8;-1,2,-3")):
        A, B, _, _, L = moth.conway_in_w(pres)
        assert (A[0], B[0], L[0]) == (1, pres.b // 2, 0), pres
        assert sum(moth._w_to_t(A)) == A[0]
