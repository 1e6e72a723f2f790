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
from .diagrams import OrientedPD, build_knot_diagram, build_lhat_diagram
from .presentations import (
    I1Presentation,
    butterfly_fraction,
    conway_continuant,
    knot_fraction,
)
from .rationals import Frac
from .seifert import determinant, seifert_matrix_data

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
    if den.value_at_one() == 0:
        raise InvariantViolation("knot Conway normalization lost")
    fn = rf_make(num, den)
    if not fn.subs_inv_equal():
        raise InvariantViolation("moth polynomial is not symmetric in t")
    # den(1) != 0 survives the reduction, so the value at 1 is num(1)/den(1).
    if fn.num.value_at_one() != 0:
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

    Both Conway polynomials are continuants of the continued fractions.  The
    determinant |Delta(-1)| of the butterfly link equals the butterfly
    fraction's numerator size and already forces its Conway polynomial to
    be non-zero; the full polynomial is carried as supporting data.  Each
    diagram and its Seifert matrix is built once, only for the determinants,
    which must agree with the fractions and with the Conway polynomials.
    """
    n = conway_continuant(pres.butterfly_cf(), -1)
    d = conway_continuant(pres.knot_cf(), 1)
    det = _checked_determinant("butterfly", build_lhat_diagram(pres),
                               butterfly_fraction(pres), n)
    det_knot = _checked_determinant("knot", build_knot_diagram(pres),
                                    knot_fraction(pres), d)
    return certificate_from_invariants(n, det, _moth_from_conways(n, d),
                                       d, det_knot)


def _checked_determinant(name: str, pd: OrientedPD, fraction: Frac,
                         nabla: ZPoly) -> int:
    """|det(V + V^T)| of the diagram, equal to |p| of its fraction and to
    |nabla(2i)|."""
    det = determinant(seifert_matrix_data(pd))
    if det != abs(fraction.p):
        raise InvariantViolation(
            f"{name} determinant {det} != fraction numerator {abs(fraction.p)}"
        )
    if det != _det_from_conway(nabla):
        raise InvariantViolation(
            f"{name} determinant and Conway polynomial disagree"
        )
    return det


def _det_from_conway(nabla: ZPoly) -> int:
    """|nabla at z = 2i|, computed exactly.

    (2i)^e = 2^e i^e is real for even e and imaginary for odd e, so the
    value of a polynomial of one parity is real or imaginary.
    """
    parts = [0, 0]
    for e, c in nabla.coeffs().items():
        parts[e % 2] += c * (1 if e % 4 < 2 else -1) * 2**e
    real, imag = parts
    if real and imag:
        raise InvariantViolation("Conway polynomial mixes even and odd terms")
    return abs(real or imag)
