"""Closed-form equivariant invariants: butterfly polynomial, axis-linking
numbers, the b = 0 reduction, the non-sliceness verdict and the nullity
obstruction."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .laurent import InvariantViolation, LaurentPoly
from .presentations import I1Presentation, butterfly_fraction, knot_fraction
from .rationals import Frac, eval_cf


def butterfly_polynomial(pres: I1Presentation) -> LaurentPoly:
    """Sum of c_i*(t^sigma_i + t^-sigma_i) minus the constant 2*sum(c_i)."""
    out: dict[int, int] = {}
    for c, s in zip(pres.cs, pres.sigma):
        out[s] = out.get(s, 0) + c
        out[-s] = out.get(-s, 0) + c
    out[0] = out.get(0, 0) - 2 * sum(pres.cs)
    return LaurentPoly(out)


def axis_linking(pres: I1Presentation) -> tuple[int, int]:
    """Linking numbers of the two butterfly-link components with the axis,
    for the presentation's own direction (lkK) and for its antipode (lkAK)."""
    lk_k = sum((e - 1) * a for e, a in zip(pres.eps, pres.alphas))
    lk_ak = sum(e * a for e, a in zip(pres.eps, pres.alphas))
    return lk_k, lk_ak


def reduce_if_b_zero(pres: I1Presentation) -> Optional[I1Presentation]:
    """Drop the last twist pair when the alpha sum vanishes (n >= 2 only).

    The butterfly link is unchanged by this move, so every butterfly-link
    invariant of the result agrees with the input's.
    """
    if pres.b != 0 or pres.n < 2:
        return None
    return I1Presentation(pres.alphas[:-1], pres.cs[:-1])


@dataclass(frozen=True)
class AxisLinkWitness:
    value: int
    which: str  # "K" or "aK"

    def to_json(self) -> dict:
        return {"kind": "axis_link", "value": self.value, "which": self.which}


@dataclass(frozen=True)
class ReducedAxisLinkWitness:
    depth: int
    value: int

    def to_json(self) -> dict:
        return {"kind": "reduced_axis_link", "depth": self.depth, "value": self.value}


Witness = Union[AxisLinkWitness, ReducedAxisLinkWitness]

NOT_EQUIVARIANTLY_SLICE = "NotEquivariantlySlice"


@dataclass(frozen=True)
class SliceObstructionCertificate:
    verdict: str
    witness: Optional[Witness]
    trace: tuple[str, ...]

    def __post_init__(self):
        if self.verdict == NOT_EQUIVARIANTLY_SLICE:
            if self.witness is None or self.witness.value == 0:
                raise InvariantViolation("non-sliceness verdict without a witness")

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
            "trace": list(self.trace),
        }


def equivariant_slice_obstruction(pres: I1Presentation) -> SliceObstructionCertificate:
    """Certify non-sliceness via axis-linking numbers, reducing once if needed.

    If both linking numbers vanish then b = 0 (their difference is b), the
    presentation reduces, and depth 1 always produces a non-zero witness;
    depth 2 would indicate a bug, hence the hard cap.
    """
    current = pres
    trace = [str(pres)]
    for depth in range(3):
        if depth == 2:
            raise InvariantViolation(
                f"axis-linking reduction exceeded depth 1 for {pres}"
            )
        lk_k, lk_ak = axis_linking(current)
        if lk_k != 0 or lk_ak != 0:
            if lk_k != 0:
                witness: Witness = AxisLinkWitness(lk_k, "K")
            else:
                witness = AxisLinkWitness(lk_ak, "aK")
            if depth > 0:
                witness = ReducedAxisLinkWitness(depth, witness.value)
            return SliceObstructionCertificate(
                NOT_EQUIVARIANTLY_SLICE, witness, tuple(trace)
            )
        reduced = reduce_if_b_zero(current)
        if reduced is None:
            raise InvariantViolation(
                f"both axis-linking numbers vanish but b != 0 for {current}"
            )
        current = reduced
        trace.append(str(current))
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class NullityReport:
    fraction: Frac  # p''/q'' of the butterfly link
    h1_order: int
    nullity: int

    def to_json(self) -> dict:
        return {
            "butterfly_fraction": str(self.fraction),
            "h1_order": self.h1_order,
            "nullity": self.nullity,
        }


def nullity_obstruction(pres: I1Presentation) -> NullityReport:
    """Nullity-1 certificate for the butterfly link, with the reversal check.

    Verifies that reversing the knot's continued fraction preserves the
    numerator and inverts the denominator to -q^(-1) mod p, and that the
    reversed butterfly fraction has the same numerator size as the forward
    one.  Failures signal builder bugs, not bad input.
    """
    bf = butterfly_fraction(pres)
    if bf.is_infinite() or bf.p == 0:
        raise InvariantViolation(f"butterfly fraction degenerate for {pres}: {bf}")
    if bf.p % 2 != 0:
        raise InvariantViolation(f"butterfly numerator must be even, got {bf}")

    kf = knot_fraction(pres)
    p, q = kf.positive_numerator()
    rev_entries = []
    for a, c in zip(reversed(pres.alphas), reversed(pres.cs)):
        rev_entries.append(-2 * c)
        rev_entries.append(a)
    rev = eval_cf(rev_entries)
    p_rev, q_rev = rev.positive_numerator()
    if p_rev != p:
        raise InvariantViolation(
            f"reversal changed the numerator for {pres}: {p} vs {p_rev}"
        )
    if (q * q_rev + 1) % p != 0:
        raise InvariantViolation(
            f"reversal identity q*q' = -1 (mod p) fails for {pres}"
        )
    full_rev = eval_cf([-pres.b] + rev_entries)
    expected = rev.reciprocal().plus_int(-pres.b)
    if full_rev != expected:
        raise InvariantViolation(f"projective recursion broke for {pres}")
    if abs(full_rev.p) != abs(bf.p):
        raise InvariantViolation(
            f"reversed butterfly fraction numerator mismatch for {pres}: "
            f"{full_rev} vs {bf}"
        )
    return NullityReport(bf, abs(bf.p), 1)

