import hashlib
import random
from collections import Counter

import pytest

from equibridge.diagrams import (
    _check_band_coherent,
    _marker_flow,
    build_knot_diagram,
    build_lhat_diagram,
    build_plat_diagram,
    linking_number,
)
from equibridge.cli import random_presentation
from equibridge.laurent import DomainError, InvariantViolation
from equibridge.presentations import parse_i1
from equibridge.rationals import eval_cf
from equibridge.seifert import determinant, seifert_circles, seifert_matrix_data

import tables
from seifert_conway import conway_polynomial


def test_plat_examples():
    pd = build_plat_diagram([2, -2])
    assert len(pd.over_a) == 4 and pd.component_count() == 1
    pd = build_plat_diagram([2, -2, -2])
    assert len(pd.over_a) == 6 and pd.component_count() == 2
    pd = build_plat_diagram([0])
    assert len(pd.over_a) == 0 and pd.component_count() == 2


def test_component_parity_matches_numerator():
    rng = random.Random(21)
    for _ in range(250):
        m = rng.randint(1, 6)
        ent = [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(m)]
        pd = build_plat_diagram(ent)
        assert len(pd.over_a) == sum(abs(e) for e in ent)
        v = eval_cf(ent)
        want = 1 if v.p % 2 != 0 else 2
        assert pd.component_count() == want, (ent, v)


def test_lhat_is_two_component_zero_linking():
    for text in ("2;1", "2;-1", "2,-2;1,1", "2,4;1,1", "-4,2;3,-1"):
        pd = build_lhat_diagram(parse_i1(text))
        assert pd.component_count() == 2
        assert linking_number(pd) == 0


def test_lhat_anti_parallel_final_marker():
    pd = build_lhat_diagram(parse_i1("2;1"))
    mu, ml = pd.final_marker
    assert pd.component_of[mu[0]] != pd.component_of[ml[0]]


def reverse_component(pd, index):
    """Run component `index` of the diagram the other way round."""
    reversed_walk = [(eid, -d) for eid, d in reversed(pd.components[index])]
    pd.components[index] = reversed_walk
    for eid, d in reversed_walk:
        pd.direction[eid] = d


def test_band_coherent_orientation_from_either_flipped_component():
    """The builder orients every butterfly plat band-coherently.  Reversing
    either component makes the final region's strands parallel, which the
    check rejects; reversing both keeps them anti-parallel, with linking
    number 0 and the same determinant and Conway polynomial, which unlike
    those two depends on the relative orientation."""
    count = 0
    for pres, surface in tables.surfaces(15).items():
        for component in (0, 1):
            pd = build_plat_diagram(pres.butterfly_cf())
            mu, ml = pd.final_marker
            reverse_component(pd, component)
            assert all(pd.direction[eid] == d for comp in pd.components
                       for eid, d in comp)
            assert _marker_flow(pd, mu) == _marker_flow(pd, ml)
            with pytest.raises(InvariantViolation, match="run parallel"):
                _check_band_coherent(pd)
            count += 1
        pd = build_plat_diagram(pres.butterfly_cf())
        reverse_component(pd, 0)
        reverse_component(pd, 1)
        _check_band_coherent(pd)
        assert linking_number(pd) == 0
        reversed_v = seifert_matrix_data(pd)
        assert determinant(reversed_v) == determinant(surface.lhat)
        assert conway_polynomial(reversed_v, 2) == conway_polynomial(surface.lhat, 2)
    assert count == 64


def test_linking_number_examples():
    hopf = build_plat_diagram([2])
    assert linking_number(hopf) in (1, -1)
    unlink = build_plat_diagram([0])
    assert linking_number(unlink) == 0
    with pytest.raises(DomainError):
        linking_number(build_plat_diagram([2, -2]))  # a knot


def test_linking_number_random_lhat():
    rng = random.Random(22)
    for _ in range(60):
        assert linking_number(build_lhat_diagram(random_presentation(rng, max_n=3, max_alpha=6, max_c=3))) == 0


def test_knot_diagram_validates():
    pd = build_knot_diagram(parse_i1("2,4;1,1"))
    assert pd.component_count() == 1
    assert len(pd.over_a) == 2 + 2 + 4 + 2


def test_every_edge_sits_in_exactly_two_crossing_slots():
    rng = random.Random(23)
    diagrams = [build_plat_diagram([2, -2])]
    diagrams += [build_lhat_diagram(random_presentation(rng, max_n=3))
                 for _ in range(20)]
    for pd in diagrams:
        slots = Counter()
        assert len(pd.slot_edge) == 4 * len(pd.over_a)
        for anchor, eid in enumerate(pd.slot_edge):
            assert anchor in (pd.edges[eid].a, pd.edges[eid].b)
            slots[eid] += 1
        assert set(slots) == set(range(len(pd.edges)))
        assert set(slots.values()) == {2}
    assert len(diagrams[0].edges) == 8


def canonical_dump(pd, matrix) -> str:
    """A diagram with its Seifert circles, bands and matrix as plain values,
    slots by name, independent of how the package encodes them."""
    def anchor(a):
        return (a // 4, ("nw", "ne", "se", "sw")[a % 4])

    circles, bands = seifert_circles(pd)
    return repr((
        pd.over_a,
        [(anchor(e.a), anchor(e.b), e.points) for e in pd.edges],
        pd.free_loops,
        pd.components,
        pd.final_marker,
        [(c.points, c.ccw) for c in circles],
        [(b.sign, b.ends) for b in bands],
        matrix,
    ))


def test_every_p45_diagram_circle_and_seifert_matrix_is_pinned():
    """The knot and butterfly diagrams of every inversion up to p = 45, with
    their Seifert circles and matrices, hash to a recorded value: a faster
    builder or circle tracer must leave every one of them identical."""
    digest = hashlib.sha256()
    count = 0
    for knot, lhat, knot_v, lhat_v in tables.surfaces(45).values():
        for pd, v in ((knot, knot_v), (lhat, lhat_v)):
            digest.update(canonical_dump(pd, v).encode() + b"\n")
            count += 1
    assert count == 608
    assert digest.hexdigest() == (
        "44a5aed743710b346e7e424835b70d39af01a3d13b1cb1718e90b7ec83a1770a")
