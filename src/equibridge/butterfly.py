"""Closed-form equivariant invariants: butterfly polynomial, axis-linking
numbers, the b = 0 reduction, the non-sliceness verdict and the nullity
checks, as plain values; only `cli` renders them into a report."""
from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .laurent import Frozen, InvariantViolation, TCoeffs, lp, typed_equality
from .presentations import I1Presentation
from .rationals import Frac, eval_cf


def butterfly_polynomial(pres: I1Presentation) -> TCoeffs:
    """Sum of c_i*(t^sigma_i + t^-sigma_i) minus the constant 2*sum(c_i)."""
    top = max(map(abs, pres.sigma))
    out = [0] * (2 * top + 1)
    for c, s in zip(pres.cs, pres.sigma):
        out[top + s] += c
        out[top - s] += c
    out[top] -= 2 * sum(pres.cs)
    return lp(-top, out)


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


@typed_equality
class AxisLinkWitness(NamedTuple):
    kind = "axis_link"  # a class constant, not a field
    value: int
    which: str  # "K" or "aK"


@typed_equality
class ReducedAxisLinkWitness(NamedTuple):
    kind = "reduced_axis_link"  # a class constant, not a field
    depth: int
    value: int


Witness = Union[AxisLinkWitness, ReducedAxisLinkWitness]

NOT_EQUIVARIANTLY_SLICE = "NotEquivariantlySlice"


class SliceObstructionCertificate(Frozen):
    """The non-sliceness verdict, which only a non-zero witness backs."""

    verdict = NOT_EQUIVARIANTLY_SLICE
    _fields = ("witness", "trace")  # trace: the presentations read, given first

    def __init__(self, witness: Witness, trace: tuple[I1Presentation, ...]):
        if witness is None or witness.value == 0:
            raise InvariantViolation("non-sliceness verdict without a witness")
        vars(self).update(witness=witness, trace=trace)


def _axis_link_witness(pres: I1Presentation) -> Optional[AxisLinkWitness]:
    """The first non-zero axis-linking number, K before aK, if any."""
    lk_k, lk_ak = axis_linking(pres)
    if lk_k != 0:
        return AxisLinkWitness(lk_k, "K")
    if lk_ak != 0:
        return AxisLinkWitness(lk_ak, "aK")
    return None


def equivariant_slice_obstruction(pres: I1Presentation) -> SliceObstructionCertificate:
    """Certify non-sliceness via axis-linking numbers, reducing once if needed.

    If both linking numbers vanish then b = 0 (their difference is b), and
    the presentation reduces.  The reduced one has b = -alpha_n != 0, so it
    always has a non-zero witness; a second reduction would indicate a bug.
    """
    witness = _axis_link_witness(pres)
    if witness is not None:
        return SliceObstructionCertificate(witness, (pres,))
    reduced = reduce_if_b_zero(pres)
    if reduced is None:
        raise InvariantViolation(
            f"both axis-linking numbers vanish but b != 0 for {pres}")
    witness = _axis_link_witness(reduced)
    if witness is None:
        raise InvariantViolation(
            f"axis-linking reduction exceeded depth 1 for {pres}")
    return SliceObstructionCertificate(
        ReducedAxisLinkWitness(1, witness.value), (pres, reduced))


def nullity_obstruction(pres: I1Presentation) -> None:
    """The checks behind the butterfly link's nullity-1 record, whose values
    `cli` derives: p''/q'', |p''| as the order of H1 and nullity 1.

    Verifies that reversing the knot's continued fraction preserves the
    numerator and inverts the denominator to -q^(-1) mod p, that -b put in
    front of the reversal p'/q' gives (q' - b p')/p', coprime with no gcd
    as (p', q') is, and that this reversed butterfly fraction has the same
    numerator size as the forward one.  Failures signal builder bugs, not
    bad input.
    """
    bf = pres.butterfly_fraction
    if bf.q == 0 or bf.p == 0:
        raise InvariantViolation(f"butterfly fraction degenerate for {pres}: {bf}")
    if bf.p % 2 != 0:
        raise InvariantViolation(f"butterfly numerator must be even, got {bf}")

    kf = pres.knot_fraction
    p, q = kf.positive_numerator()
    rev_entries = pres.knot_cf()[::-1]
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
    sign = 1 if rev.p > 0 else -1  # rev.p = +-p is not 0
    if full_rev != Frac(sign * (rev.q - pres.b * rev.p), sign * rev.p):
        raise InvariantViolation(f"projective recursion broke for {pres}")
    if abs(full_rev.p) != abs(bf.p):
        raise InvariantViolation(
            f"reversed butterfly fraction numerator mismatch for {pres}: "
            f"{full_rev} vs {bf}"
        )
