"""The moth polynomial and the infinite-order certificate.

The moth link of a directed strongly invertible knot never needs a diagram:
its pairing function is the quotient of Conway polynomials
nabla(butterfly link, band-coherent orientation) / (z * nabla(knot)),
rewritten in t.  A non-zero numerator certifies infinite order in the
equivariant concordance group, and the numerator is non-zero whenever the
butterfly link's determinant is, which the 2-bridge arithmetic guarantees.

Both Conway polynomials are continuants of the continued fractions
(Koseleff-Pecker, J. Symbolic Comput. 2015).  Each has one parity in z, so
they are computed and checked as lists of coefficients in w = z^2, low to
high and trimmed; only the report writes them in z.
"""
from __future__ import annotations

from math import gcd

from .laurent import (
    Frozen, InvariantViolation, RationalFn, TCoeffs, ZCoeffs, lp_to_str, zp_to_str,
)
from .presentations import I1Presentation
from .rationals import Frac

INFINITE_ORDER = "InfiniteOrder"


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def conway_in_w(pres: I1Presentation) -> tuple[list[int], ...]:
    """(A, B, C, D, L) in w, from one pass over the twist pairs.

    [[A, zB], [zC, D]] is the continuant matrix of the knot's continued
    fraction, the product of [[x, 1], [1, 0]] over x = (a1/2)z, c1 z, ...,
    (an/2)z, cn z.  A pair (a, c) multiplies it by
    [[1 + (a/2)c w, (a/2)z], [c z, 1]], of determinant 1, so A = nabla(K)
    and AD - wBC = 1.  L = nabla(L-hat)/z is the continuant of the
    butterfly entries with every sign flipped: the same product over the
    negated pairs, kept in its own top row, then a last x = (b/2)z.
    """
    A, D, top_a = ([1] + [0] * pres.n for _ in range(3))
    B, C, top_b = ([0] * (pres.n + 1) for _ in range(3))
    for a, c in zip(pres.alphas, pres.cs):
        h = a // 2
        B = [x + h * y for x, y in zip(B, A)]
        A = [x + c * y for x, y in zip(A, [0] + B)]
        D = [x + h * y for x, y in zip(D, [0] + C)]
        C = [x + c * y for x, y in zip(C, D)]
        top_b = [x - h * y for x, y in zip(top_b, top_a)]
        top_a = [x - c * y for x, y in zip(top_a, [0] + top_b)]
    L = [pres.b // 2 * x + y for x, y in zip(top_a, top_b)]
    return tuple(_trim(p) for p in (A, B, C, D, L))


def _in_z(p: list[int], odd: int) -> ZCoeffs:
    """The coefficients in z of z^odd * p(z^2)."""
    out = [0] * (2 * len(p) - 1 + odd) if p else []
    out[odd::2] = p
    return tuple(out)


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


def certified_moth(conway: tuple[list[int], ...], b: int) -> RationalFn:
    """nabla(L-hat)(z) / (z * nabla(K)(z)) as a rational function of t, in
    the canonical form of `oracles.rf_make`, with no gcd.

    `conway` is (A, B, C, D, L) of `conway_in_w` and b the balancing entry.
    The knot's continuant matrix has determinant 1, so A = nabla(K) and B
    are coprime, and so are A and L = (b/2)A - B.  Both are polynomials in
    w = z^2, hence stay coprime in t, and only content, powers of t and
    sign are normalized.
    """
    A, B, C, D, L = conway
    if _sub(_mul(A, D), [0] + _mul(B, C)) != [1]:
        raise InvariantViolation("knot continuant matrix does not have determinant 1")
    if _sub([b // 2 * x for x in A], B) != L:
        raise InvariantViolation(
            "butterfly-link Conway polynomial is not (b/2) z nabla(K) - K(x1..x(m-1))")
    if not L or L[0] != 0:
        # The z coefficient of nabla(L-hat) is the linking number, which must vanish.
        raise InvariantViolation("butterfly-link Conway polynomial has a z term")
    num, den = _w_to_t(L), _w_to_t(A)
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
    val = len(A) - len(L)
    # den(1) != 0 rules out an anti-palindromic pair, so palindromes with
    # 2 val = deg den - deg num (as polynomials) are exactly f(1/t) = f(t).
    if num != num[::-1] or den != den[::-1] or 2 * val != len(den) - len(num):
        raise InvariantViolation("moth polynomial is not symmetric in t")
    if sum(num) != 0:
        raise InvariantViolation("moth polynomial does not vanish at 1")
    return RationalFn(TCoeffs(val, tuple(num)), TCoeffs(0, tuple(den)))


class OrderCertificate(Frozen):
    """The infinite-order verdict, which only a non-zero nabla(L-hat) backs."""

    verdict = INFINITE_ORDER
    # conway_knot is carried for the report, not serialized here.
    _fields = ("conway_lhat", "determinant_lhat", "moth",
               "conway_knot", "determinant_knot")

    def __init__(self, conway_lhat: ZCoeffs, determinant_lhat: int,
                 moth: RationalFn, conway_knot: ZCoeffs, determinant_knot: int):
        if not conway_lhat:
            raise InvariantViolation("infinite-order verdict with zero witness")
        vars(self).update(conway_lhat=conway_lhat,
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
    conway = conway_in_w(pres)
    knot, lhat = conway[0], conway[4]
    det = _checked_determinant("butterfly", pres.butterfly_fraction, lhat, 1)
    det_knot = _checked_determinant("knot", pres.knot_fraction, knot, 0)
    return OrderCertificate(_in_z(lhat, 1), det,
                            certified_moth(conway, pres.b), _in_z(knot, 0), det_knot)


def _checked_determinant(name: str, fraction: Frac, nabla: list[int], odd: int) -> int:
    """|p| of the fraction, equal to |z^odd * nabla(z^2)| at z = 2i."""
    det = abs(fraction.p)
    if det != _det_from_conway(nabla, odd):
        raise InvariantViolation(
            f"{name} determinant and Conway polynomial disagree"
        )
    return det


def _det_from_conway(nabla: list[int], odd: int) -> int:
    """|z^odd * nabla(z^2)| at z = 2i, that is 2^odd |nabla(-4)|, exactly."""
    value = 0
    for c in reversed(nabla):
        value = -4 * value + c
    return 2**odd * abs(value)
