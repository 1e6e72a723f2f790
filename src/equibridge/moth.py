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
high and trimmed; the certificate holds them in z and `cli` renders them.
"""
from __future__ import annotations

from .laurent import Frozen, InvariantViolation, RationalFn, TCoeffs, ZCoeffs
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
    negated pairs, which is [[A, -zB], [-zC, D]] since [[-x, 1], [1, 0]] =
    -S [[x, 1], [1, 0]] S for S = diag(1, -1), then x = (b/2)z; so
    L = (b/2)A - B.
    """
    A, D = ([1] + [0] * pres.n for _ in range(2))
    B, C = ([0] * (pres.n + 1) for _ in range(2))
    for a, c in zip(pres.alphas, pres.cs):
        h = a // 2
        B = [x + h * y for x, y in zip(B, A)]
        A = [x + c * y for x, y in zip(A, [0] + B)]
        D = [x + h * y for x, y in zip(D, [0] + C)]
        C = [x + c * y for x, y in zip(C, D)]
    L = [pres.b // 2 * x - y for x, y in zip(A, B)]
    return tuple(_trim(p) for p in (A, B, C, D, L))


def _in_z(p: list[int], odd: int) -> ZCoeffs:
    """The coefficients in z of z^odd * p(z^2)."""
    out = [0] * (2 * len(p) - 1 + odd) if p else []
    out[odd::2] = p
    return tuple(out)


def _w_to_t(cs: list[int]) -> list[int]:
    """Dense t-coefficients, from t^-D, of sum c_k w^k (D = len(cs) - 1)
    with w = z^2 = -t + 2 - 1/t: Horner, each step a 3-term stencil."""
    acc = [cs[-1]]
    for c in reversed(cs[:-1]):
        pad = [0, 0] + acc + [0, 0]
        acc = [2 * pad[i + 1] - pad[i] - pad[i + 2] for i in range(len(acc) + 2)]
        acc[len(acc) // 2] += c
    return acc


def _at(p: list[int], k: int) -> int:
    """p(2^k), by Horner shifts."""
    v = 0
    for c in reversed(p):
        v = (v << k) + c
    return v


def _bezout_holds(polys: tuple[list[int], ...], h: int) -> bool:
    """Whether A (D - h w C) + w C L = 1, polys = (A, C, D, L), tested
    exactly in big integers at the one point w = 2^k.

    With n the longest list and m the largest |coefficient| of the four, no
    coefficient of the difference exceeds n m^2 (|h| + 2) + 1 in absolute
    value.  As n < 2^bitlen(n + 1), m^2 < 4^bitlen(m) and |h| + 2 <
    2^(bitlen(h) + 2), that is at most 2^(k - 2) for
    k = 2 bitlen(m) + bitlen(h) + bitlen(n + 1) + 4.  A non-zero integer
    polynomial with every coefficient below 2^k in absolute value has no
    root at 2^k, since 2^k would divide its lowest non-zero coefficient.
    """
    bits = max(max(map(int.bit_length, p), default=0) for p in polys)
    k = 2 * bits + h.bit_length() + (max(map(len, polys)) + 1).bit_length() + 4
    av, cv, dv, lv = (_at(p, k) for p in polys)
    return av * (dv - (h * cv << k)) + (cv * lv << k) == 1


def certified_moth(conway: tuple[list[int], ...], b: int) -> RationalFn:
    """nabla(L-hat)(z) / (z * nabla(K)(z)) as a rational function of t, in
    the canonical form of `oracles.rf_make`, with no gcd.

    `conway` is (A, B, C, D, L) of `conway_in_w` and b the balancing entry;
    B is not read.  Since AD - wBC = 1 and L = (b/2)A - B, the Bezout
    identity A (D - (b/2) w C) + w C L = 1 holds, and `_bezout_holds`
    checks it, so A = nabla(K) and L = nabla(L-hat)/z are coprime.  Both
    are polynomials in w = z^2, hence stay coprime in t.  At t = 1, w = 0,
    so den(1) = A(0) = nabla(K)(0) = 1, and the joint content, which
    divides den(1), is 1.  Only powers of t and the sign are normalized.
    """
    A, _, C, D, L = conway
    if not _bezout_holds((A, C, D, L), b // 2):
        raise InvariantViolation(
            "knot continuant matrix and nabla(L-hat)/z fail their Bezout identity")
    if not L or L[0] != 0:
        # The z coefficient of nabla(L-hat) is the linking number, which must vanish.
        raise InvariantViolation("butterfly-link Conway polynomial has a z term")
    num, den = _w_to_t(L), _w_to_t(A)
    if sum(den) != 1:
        raise InvariantViolation("knot Conway normalization lost")
    if den[-1] < 0:
        num, den = [-x for x in num], [-x for x in den]
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
    _fields = ("conway_lhat", "determinant_lhat", "moth",
               "conway_knot", "determinant_knot")

    def __init__(self, conway_lhat: ZCoeffs, determinant_lhat: int,
                 moth: RationalFn, conway_knot: ZCoeffs, determinant_knot: int):
        if not conway_lhat:
            raise InvariantViolation("infinite-order verdict with zero witness")
        vars(self).update(conway_lhat=conway_lhat,
                          determinant_lhat=determinant_lhat, moth=moth,
                          conway_knot=conway_knot, determinant_knot=determinant_knot)


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
