import random

import pytest

from equibridge.butterfly import (
    AxisLinkWitness,
    NOT_EQUIVARIANTLY_SLICE,
    ReducedAxisLinkWitness,
    SliceObstructionCertificate,
    axis_linking,
    butterfly_polynomial,
    equivariant_slice_obstruction,
    nullity_obstruction,
    reduce_if_b_zero,
)
from equibridge.cli import analyze_presentation, random_presentation
from equibridge.laurent import InvariantViolation, lp_is_eta_admissible
from equibridge.moth import INFINITE_ORDER
from equibridge.presentations import I1Presentation, parse_i1
from equibridge.rationals import Frac

import tables
from notation import lp_parse


def test_generator_family():
    for n in range(1, 11):
        bp = butterfly_polynomial(parse_i1(f"{2 * n};1"))
        assert bp == lp_parse(f"t^-{n} - 2 + t^{n}")


def test_vanishing_family():
    rng = random.Random(2)
    for _ in range(30):
        a, b, c, d = (rng.choice([v for v in range(-5, 6) if v]) for _ in range(4))
        pres = I1Presentation((2 * a, -2 * a, 2 * a, -2 * a), (b, c, -b, d))
        assert butterfly_polynomial(pres) == (0, ())


def test_butterfly_polynomial_example():
    assert butterfly_polynomial(parse_i1("2,4;1,1")) == \
        lp_parse("t^-3 + t^-1 - 4 + t + t^3")


def test_butterfly_polynomial_always_admissible():
    rng = random.Random(3)
    for _ in range(200):
        assert lp_is_eta_admissible(butterfly_polynomial(random_presentation(rng)))


def test_axis_linking_examples():
    assert axis_linking(parse_i1("2;1")) == (-4, -2)
    assert axis_linking(parse_i1("2,-2;1,1")) == (4, 4)
    # all even twists force every suffix sign to 1, so lkK = 0 and lkAK = b
    assert axis_linking(parse_i1("4;2")) == (0, 4)
    assert axis_linking(parse_i1("2,4;2,-2")) == (0, 6)


def test_axis_linking_difference_is_b():
    rng = random.Random(4)
    for _ in range(300):
        pres = random_presentation(rng)
        lk_k, lk_ak = axis_linking(pres)
        assert lk_ak - lk_k == pres.b


def test_reduce_if_b_zero():
    assert reduce_if_b_zero(parse_i1("2,-2;1,1")) == parse_i1("2;1")
    assert reduce_if_b_zero(parse_i1("2;1")) is None
    assert reduce_if_b_zero(parse_i1("2,-4,2;1,1,1")) == parse_i1("2,-4;1,1")


def test_reduction_preserves_butterfly_invariants():
    rng = random.Random(5)
    for _ in range(80):
        base = random_presentation(rng, max_n=3)
        if base.b == 0:
            continue
        pres = I1Presentation(base.alphas + (-base.b,), base.cs + (1,))
        red = reduce_if_b_zero(pres)
        assert red == base
        assert butterfly_polynomial(pres) == butterfly_polynomial(red)


def test_obstruction_direct_witness():
    cert = equivariant_slice_obstruction(parse_i1("2;1"))
    assert cert.verdict == NOT_EQUIVARIANTLY_SLICE
    assert cert.witness == AxisLinkWitness(-4, "K")
    assert cert.trace == (parse_i1("2;1"),)


def test_obstruction_ak_witness():
    cert = equivariant_slice_obstruction(parse_i1("4;2"))
    assert cert.witness == AxisLinkWitness(4, "aK")


def test_obstruction_reduced_witness():
    cert = equivariant_slice_obstruction(parse_i1("2,-2;2,2"))
    assert cert.witness == ReducedAxisLinkWitness(1, 2)
    assert cert.trace == (parse_i1("2,-2;2,2"), parse_i1("2;2"))


def test_obstruction_total_on_enumeration():
    for inv in tables.inversions(35):
        cert = equivariant_slice_obstruction(inv)
        assert cert.verdict == NOT_EQUIVARIANTLY_SLICE
        assert len(cert.trace) <= 2


def test_certificate_requires_nonzero_witness():
    with pytest.raises(InvariantViolation):
        SliceObstructionCertificate(AxisLinkWitness(0, "K"), (parse_i1("2;1"),))


def test_nullity_examples():
    for text, fraction in (("2;1", Frac.make(8, 5)), ("2;-1", Frac.make(8, 3))):
        pres = parse_i1(text)
        assert nullity_obstruction(pres) is None
        assert pres.butterfly_fraction == fraction
        assert analyze_presentation(pres)["nullity"] == {
            "butterfly_fraction": str(fraction), "h1_order": 8, "nullity": 1}


def test_nullity_reversal_check_runs_everywhere():
    rng = random.Random(6)
    for _ in range(200):
        pres = random_presentation(rng)
        assert nullity_obstruction(pres) is None
        h1_order = abs(pres.butterfly_fraction.p)
        assert h1_order % 2 == 0 and h1_order > 0


def test_both_routes_certify_every_inversion_up_to_p_201():
    """Non-sliceness by the axis-linking witness, and infinite order (so
    not slice either) by the continuants, each on all 6161 inversions."""
    certificates = tables.certificates(201)
    for pres, cert in certificates.items():
        assert equivariant_slice_obstruction(pres).verdict == NOT_EQUIVARIANTLY_SLICE
        assert cert.verdict == INFINITE_ORDER
    assert len(certificates) == 6161
