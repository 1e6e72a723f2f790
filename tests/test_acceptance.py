"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is literal equality; the only tolerances are
the stated wall-clock budgets.
"""
import random
import time

from equibridge.cli import random_presentation
from equibridge.butterfly import (
    axis_linking,
    butterfly_polynomial,
    equivariant_slice_obstruction,
    reduce_if_b_zero,
)
from equibridge.diagrams import build_knot_diagram, build_lhat_diagram, build_plat_diagram
from equibridge.laurent import LaurentPoly, lp_is_eta_admissible, zp_parse
from equibridge.moth import order_certificate
from equibridge.presentations import (
    I1Presentation,
    butterfly_fraction,
    inversions_from_fraction,
    knot_fraction,
    parse_i1,
)
from equibridge.rationals import eval_cf, schubert_classes
from equibridge.seifert import conway_polynomial, determinant, seifert_matrix_data
from equibridge.strip import eta_oracle

from skein_oracle import skein_conway

MAX_P = 45


def _passline(n, text):
    print(f"criterion {n}: PASS  ({text})")


def _enumerated_presentations(max_p=MAX_P):
    out = []
    for p, q in schubert_classes(max_p):
        pair = inversions_from_fraction(p, q)
        out.append(pair.inv1)
        if pair.inv2 is not None:
            out.append(pair.inv2)
    return out


VANISHING_SEED = 20250808


def _vanishing_family_instances(count=20):
    rng = random.Random(VANISHING_SEED)
    out = []
    for _ in range(count):
        a, b, c, d = (rng.choice([v for v in range(-5, 6) if v])
                      for _ in range(4))
        out.append(I1Presentation((2 * a, -2 * a, 2 * a, -2 * a), (b, c, -b, d)))
    return out


def test_criterion_1_generator_family():
    t0 = time.monotonic()
    for n in range(1, 11):
        got = butterfly_polynomial(parse_i1(f"{2 * n};1"))
        assert got == LaurentPoly({n: 1, -n: 1, 0: -2}), n
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(1, f"t^n + t^-n - 2 for n = 1..10 in {elapsed:.3f}s")


def test_criterion_2_vanishing_family():
    for pres in _vanishing_family_instances():
        assert butterfly_polynomial(pres).is_zero(), pres
    _passline(2, "butterfly polynomial vanishes on 20 random family members")


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(987654321)
    for _ in range(500):
        pres = random_presentation(rng)
        assert eta_oracle(pres) == butterfly_polynomial(pres), pres
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passline(3, f"500 seeded presentations, strip oracle exact in {elapsed:.1f}s")


def test_criterion_4_eta_admissibility():
    rng = random.Random(13579)
    checked = 0
    for pres in _enumerated_presentations():
        assert lp_is_eta_admissible(butterfly_polynomial(pres))
        checked += 1
    for _ in range(500):
        assert lp_is_eta_admissible(butterfly_polynomial(random_presentation(rng)))
        checked += 1
    for pres in _vanishing_family_instances():
        assert lp_is_eta_admissible(butterfly_polynomial(pres))
        checked += 1
    _passline(4, f"eta(t) = eta(1/t), eta(1) = 0 on {checked} polynomials")


def test_criterion_5_non_sliceness_totality():
    t0 = time.monotonic()
    count = 0
    for pres in _enumerated_presentations():
        cert = equivariant_slice_obstruction(pres)
        assert cert.verdict == "NotEquivariantlySlice"
        assert len(cert.trace) <= 2  # reduction depth at most 1
        lk_k, lk_ak = axis_linking(pres)
        if lk_k == 0 and lk_ak == 0:
            assert len(cert.trace) == 2
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passline(5, f"{count} inversions certified non-slice in {elapsed:.1f}s")


def test_criterion_6_reversal_identity():
    count = 0
    for pres in _enumerated_presentations():
        kf = knot_fraction(pres)
        p, q = kf.positive_numerator()
        rev_entries = []
        for a, c in zip(reversed(pres.alphas), reversed(pres.cs)):
            rev_entries.append(-2 * c)
            rev_entries.append(a)
        rev = eval_cf(rev_entries)
        pr, qr = rev.positive_numerator()
        assert pr == p
        assert (q * qr + 1) % p == 0
        count += 1
    _passline(6, f"p' = p and q q' = -1 (mod p) on {count} presentations")


def test_criterion_7_determinant_cross_check():
    t0 = time.monotonic()
    count = 0
    for pres in _enumerated_presentations():
        knot = seifert_matrix_data(build_knot_diagram(pres))
        lhat = seifert_matrix_data(build_lhat_diagram(pres))
        assert determinant(knot) == abs(knot_fraction(pres).p)
        assert determinant(lhat) == abs(butterfly_fraction(pres).p)
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(7, f"knot and butterfly determinants exact on {count} "
                 f"presentations in {elapsed:.1f}s")


def test_criterion_8_infinite_order():
    count = 0
    for pres in _enumerated_presentations():
        cert = order_certificate(pres)
        assert cert.verdict == "InfiniteOrder", pres
        count += 1
    for pres in _vanishing_family_instances():
        assert butterfly_polynomial(pres).is_zero()
        cert = order_certificate(pres)
        assert cert.verdict == "InfiniteOrder", pres
        count += 1
    _passline(8, f"{count} order certificates, all InfiniteOrder "
                 f"(including the vanishing family)")


def test_criterion_9_conway_ground_truth():
    cases = [
        ([1], zp_parse("1")),
        ([2, -2], zp_parse("1 + z^2")),
        ([2, 2], zp_parse("1 - z^2")),
    ]
    for entries, expected in cases:
        pd = build_plat_diagram(entries)
        assert conway_polynomial(seifert_matrix_data(pd)) == expected
        assert skein_conway(pd) == expected
    hopf = build_plat_diagram([2])
    nab = conway_polynomial(seifert_matrix_data(hopf))
    assert nab in (zp_parse("z"), zp_parse("-z"))
    assert nab == skein_conway(hopf)
    _passline(9, "unknot, trefoil, figure-eight, Hopf match the skein oracle")


def test_criterion_10_b_zero_reduction():
    rng = random.Random(24680)
    count = 0
    while count < 50:
        base = random_presentation(rng, max_n=3)
        if base.b == 0:
            continue
        cs_last = rng.choice([c for c in range(-4, 5) if c])
        padded = I1Presentation(base.alphas + (-base.b,), base.cs + (cs_last,))
        red = reduce_if_b_zero(padded)
        assert red == base
        assert butterfly_polynomial(padded) == butterfly_polynomial(base)
        assert butterfly_fraction(padded) == butterfly_fraction(base)
        count += 1
    _passline(10, "50 padded presentations: polynomial and fraction preserved")
