"""The moth polynomial and the infinite-order certificate.

The moth link of a directed strongly invertible knot never needs a diagram:
its pairing function is the quotient of Conway polynomials
nabla(butterfly link, band-coherent orientation) / (z * nabla(knot)),
rewritten in t.  A non-zero numerator certifies infinite order in the
equivariant concordance group, and the numerator is non-zero whenever the
butterfly link's determinant is, which the 2-bridge arithmetic guarantees.
"""
from __future__ import annotations

from math import gcd

from .laurent import (
    Frozen, InvariantViolation, RationalFn, TCoeffs, ZCoeffs, lp_to_str, zp_to_str,
)
from .presentations import I1Presentation, continuant_matrix, continuant_row
from .rationals import Frac

INFINITE_ORDER = "InfiniteOrder"


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _in_w(p: ZCoeffs, odd: int, what: str) -> list[int]:
    """Coefficients in w = z^2 of p (odd = 0) or of p/z (odd = 1), trimmed;
    p must have only terms of that parity."""
    if any(p[1 - odd::2]):
        raise InvariantViolation(f"{what} is not {'odd' if odd else 'even'}")
    return _trim(list(p[odd::2]))


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for k, x in enumerate(b):
        out[k] -= x
    return _trim(out)


def _w_to_t(cs: list[int]) -> list[int]:
    """Dense t-coefficients, from t^-D, of sum c_k w^k (D = len(cs) - 1)
    with w = z^2 = -t + 2 - 1/t: Horner, each step a 3-term stencil."""
    acc = [cs[-1]]
    for c in reversed(cs[:-1]):
        pad = [0, 0] + acc + [0, 0]
        acc = [2 * pad[i + 1] - pad[i] - pad[i + 2] for i in range(len(acc) + 2)]
        acc[len(acc) // 2] += c
    return acc


def certified_moth(lhat: ZCoeffs, knot: tuple[tuple[ZCoeffs, ZCoeffs], ...],
                   b: int) -> RationalFn:
    """nabla(L-hat)(z) / (z * nabla(K)(z)) as a rational function of t, in
    the canonical form of `oracles.rf_make`, with no gcd.

    `lhat` is nabla(L-hat) and `knot` the `continuant_matrix` of the knot's
    entries x1..xm; b is the balancing entry.  The matrix has determinant 1
    (m is even), so nabla(K) and K(x1..x(m-1)) are coprime, and so are
    nabla(K) and nabla(L-hat) = (b/2) z nabla(K) - K(x1..x(m-1)).  Both quotients are polynomials in w = z^2, hence stay
    coprime in t, and only content, powers of t and sign are normalized.
    """
    (d, d_minus), (c, c_minus) = knot
    d = _in_w(d, 0, "knot Conway polynomial")
    d_minus = _in_w(d_minus, 1, "knot cofactor K(x1..x(m-1))")
    c = _in_w(c, 1, "knot cofactor K(x2..xm)")
    c_minus = _in_w(c_minus, 0, "knot cofactor K(x2..x(m-1))")
    n = _in_w(lhat, 1, "butterfly-link Conway polynomial")
    # d c_minus - z^2 (d_minus/z)(c/z), in w.
    if _sub(_mul(d, c_minus), [0] + _mul(d_minus, c)) != [1]:
        raise InvariantViolation("knot continuant matrix does not have determinant 1")
    if _sub([b // 2 * x for x in d], d_minus) != n:
        raise InvariantViolation(
            "butterfly-link Conway polynomial is not (b/2) z nabla(K) - K(x1..x(m-1))")
    if not n or n[0] != 0:
        # The z coefficient of nabla(L-hat) is the linking number, which must vanish.
        raise InvariantViolation("butterfly-link Conway polynomial has a z term")
    num, den = _w_to_t(n), _w_to_t(d)
    if sum(den) == 0:
        raise InvariantViolation("knot Conway normalization lost")
    joint = gcd(*num, *den)
    if den[-1] < 0:
        joint = -joint
    num = [x // joint for x in num]
    den = [x // joint for x in den]
    # Each list runs from t^-D to t^D, D its degree in w, with non-zero
    # ends; moving every power of t into the numerator leaves den a
    # polynomial with den(0) != 0.
    val = len(d) - len(n)
    # den(1) != 0 rules out an anti-palindromic pair, so palindromes with
    # 2 val = deg den - deg num (as polynomials) are exactly f(1/t) = f(t).
    if num != num[::-1] or den != den[::-1] or 2 * val != len(den) - len(num):
        raise InvariantViolation("moth polynomial is not symmetric in t")
    if sum(num) != 0:
        raise InvariantViolation("moth polynomial does not vanish at 1")
    return RationalFn(TCoeffs(val, tuple(num)), TCoeffs(0, tuple(den)))


class OrderCertificate(Frozen):
    # conway_knot is carried for the report, not serialized here.
    _fields = ("verdict", "conway_lhat", "determinant_lhat", "moth",
               "conway_knot", "determinant_knot")

    def __init__(self, verdict: str, conway_lhat: ZCoeffs, determinant_lhat: int,
                 moth: RationalFn, conway_knot: ZCoeffs, determinant_knot: int):
        if verdict == INFINITE_ORDER and not conway_lhat:
            raise InvariantViolation("infinite-order verdict with zero witness")
        vars(self).update(verdict=verdict, conway_lhat=conway_lhat,
                          determinant_lhat=determinant_lhat, moth=moth,
                          conway_knot=conway_knot, determinant_knot=determinant_knot)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "conway_lhat": zp_to_str(self.conway_lhat),
            "det_lhat": self.determinant_lhat,
            "moth_num": lp_to_str(self.moth.num),
            "moth_den": lp_to_str(self.moth.den),
        }


def order_certificate(pres: I1Presentation) -> OrderCertificate:
    """Infinite-order certificate, by continued-fraction arithmetic alone.

    Both Conway polynomials are continuants of the continued fractions.  The
    determinant |Delta(-1)| of the butterfly link equals the butterfly
    fraction's numerator size and already forces its Conway polynomial to
    be non-zero; the full polynomial is carried as supporting data.  Each
    determinant is |p| of its fraction, checked against |nabla(2i)|, and
    the moth is `certified_moth`.  No diagram is built here: the geometric
    check of the band move, det(V + V^T) of the butterfly link's Seifert
    matrix, is a separate step of `cli.analyze_presentation`.
    """
    knot = continuant_matrix(pres.knot_cf(), 1)
    lhat = continuant_row(pres.butterfly_cf(), -1)[0]
    det = _checked_determinant("butterfly", pres.butterfly_fraction, lhat)
    det_knot = _checked_determinant("knot", pres.knot_fraction, knot[0][0])
    return OrderCertificate(INFINITE_ORDER, lhat, det,
                            certified_moth(lhat, knot, pres.b), knot[0][0], det_knot)


def _checked_determinant(name: str, fraction: Frac, nabla: ZCoeffs) -> int:
    """|p| of the fraction, equal to |nabla(2i)|."""
    det = abs(fraction.p)
    if det != _det_from_conway(nabla):
        raise InvariantViolation(
            f"{name} determinant and Conway polynomial disagree"
        )
    return det


def _det_from_conway(nabla: ZCoeffs) -> int:
    """|nabla at z = 2i|, computed exactly.

    (2i)^e = 2^e i^e is real for even e and imaginary for odd e, so the
    value of a polynomial of one parity is real or imaginary.
    """
    parts = [0, 0]
    for e, c in enumerate(nabla):
        parts[e % 2] += c * (1 if e % 4 < 2 else -1) * 2**e
    real, imag = parts
    if real and imag:
        raise InvariantViolation("Conway polynomial mixes even and odd terms")
    return abs(real or imag)
