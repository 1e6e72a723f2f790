"""The moth polynomial and the infinite-order certificate.

The moth link of a directed strongly invertible knot never needs a diagram:
its pairing function is the quotient of Conway polynomials
nabla(butterfly link, band-coherent orientation) / (z * nabla(knot)),
rewritten in t.  A non-zero numerator certifies infinite order in the
equivariant concordance group, and the numerator is non-zero whenever the
butterfly link's determinant is, which the 2-bridge arithmetic guarantees.
"""
from __future__ import annotations

from dataclasses import dataclass
from .laurent import InvariantViolation, RationalFn, ZPoly, rf_make, z_to_t
from .diagrams import build_knot_diagram, build_lhat_diagram
from .presentations import I1Presentation, butterfly_fraction, knot_fraction
from .seifert import conway_polynomial, determinant, seifert_matrix_data

INFINITE_ORDER = "InfiniteOrder"
INCONCLUSIVE = "Inconclusive"


def _moth_from_conways(n: ZPoly, d: ZPoly) -> RationalFn:
    """nabla(L-hat)(z) / (z * nabla(K)(z)) as a rational function of t."""
    if not n.odd_only():
        raise InvariantViolation("butterfly-link Conway polynomial is not odd")
    if not d.even_only():
        raise InvariantViolation("knot Conway polynomial is not even")
    reduced = n.divide_by_z()
    if reduced.coeff(0) != 0:
        # The z coefficient of n is the linking number, which must vanish.
        raise InvariantViolation("butterfly-link Conway polynomial has a z term")
    num = z_to_t(reduced)
    den = z_to_t(d)
    if den.eval_at(1) == 0:
        raise InvariantViolation("knot Conway normalization lost")
    fn = rf_make(num, den)
    if not fn.subs_inv_equal():
        raise InvariantViolation("moth polynomial is not symmetric in t")
    if not fn.is_zero() and fn.eval_at(1) != 0:
        raise InvariantViolation("moth polynomial does not vanish at 1")
    return fn


@dataclass(frozen=True)
class OrderCertificate:
    verdict: str
    conway_lhat: ZPoly
    determinant_lhat: int
    moth: RationalFn
    conway_knot: ZPoly  # carried for the report, not serialized here
    determinant_knot: int

    def __post_init__(self):
        if self.verdict == INFINITE_ORDER and self.conway_lhat.is_zero():
            raise InvariantViolation("infinite-order verdict with zero witness")

    def to_json(self) -> dict:
        from .laurent import lp_to_str, zp_to_str

        return {
            "verdict": self.verdict,
            "conway_lhat": zp_to_str(self.conway_lhat),
            "det_lhat": self.determinant_lhat,
            "moth_num": lp_to_str(self.moth.num),
            "moth_den": lp_to_str(self.moth.den),
        }


def certificate_from_invariants(
    conway_lhat: ZPoly, det_lhat: int, moth: RationalFn,
    conway_knot: ZPoly, det_knot: int,
) -> OrderCertificate:
    verdict = INFINITE_ORDER if not conway_lhat.is_zero() else INCONCLUSIVE
    return OrderCertificate(verdict, conway_lhat, det_lhat, moth,
                            conway_knot, det_knot)


def order_certificate(pres: I1Presentation) -> OrderCertificate:
    """Infinite-order certificate, determinant route cross-checked.

    The determinant |Delta(-1)| of the butterfly link equals the butterfly
    fraction's numerator size and already forces the Conway polynomial to be
    non-zero; the full polynomial is carried as supporting data.  Each
    diagram and its Seifert matrix is built once; the knot's Conway
    polynomial and determinant ride along on the certificate.
    """
    lhat = seifert_matrix_data(build_lhat_diagram(pres))
    n = conway_polynomial(lhat)
    det = determinant(lhat)
    expected = abs(butterfly_fraction(pres).p)
    if det != expected:
        raise InvariantViolation(
            f"butterfly determinant {det} != fraction numerator {expected}"
        )
    if det != _eval_det_from_conway(n):
        raise InvariantViolation("determinant and Conway polynomial disagree")
    knot = seifert_matrix_data(build_knot_diagram(pres))
    d = conway_polynomial(knot)
    det_knot = determinant(knot)
    if det_knot != abs(knot_fraction(pres).p):
        raise InvariantViolation(f"knot determinant mismatch for {pres}")
    return certificate_from_invariants(n, det, _moth_from_conways(n, d),
                                       d, det_knot)


def _eval_det_from_conway(n: ZPoly) -> int:
    """|nabla at z = 2i| for an odd polynomial, computed exactly."""
    total = 0
    for e, c in n.coeffs().items():
        # (2i)^e = 2^e * i^e; for odd e this is purely imaginary.
        k = {1: 1, 3: -1}[e % 4]
        total += c * k * (1 << e)
    return abs(total)
