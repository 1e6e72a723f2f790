import random
from collections import Counter

import pytest

from equibridge.diagrams import (
    build_knot_diagram,
    build_lhat_diagram,
    build_plat_diagram,
    linking_number,
)
from equibridge.cli import random_presentation
from equibridge.laurent import DomainError
from equibridge.presentations import parse_i1
from equibridge.rationals import eval_cf


def test_plat_examples():
    pd = build_plat_diagram([2, -2])
    assert pd.crossing_count() == 4 and pd.component_count() == 1
    pd = build_plat_diagram([2, -2, -2])
    assert pd.crossing_count() == 6 and pd.component_count() == 2
    pd = build_plat_diagram([0])
    assert pd.crossing_count() == 0 and pd.component_count() == 2


def test_component_parity_matches_numerator():
    rng = random.Random(21)
    for _ in range(250):
        m = rng.randint(1, 6)
        ent = [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(m)]
        pd = build_plat_diagram(ent)
        assert pd.crossing_count() == sum(abs(e) for e in ent)
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
    comp_of = pd.component_of_edge()
    assert comp_of[mu[0]] != comp_of[ml[0]]


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
    assert pd.crossing_count() == 2 + 2 + 4 + 2


def test_every_edge_sits_in_exactly_two_crossing_slots():
    rng = random.Random(23)
    diagrams = [build_plat_diagram([2, -2])]
    diagrams += [build_lhat_diagram(random_presentation(rng, max_n=3))
                 for _ in range(20)]
    for pd in diagrams:
        slots = Counter()
        for ci, c in enumerate(pd.crossings):
            for name in ("nw", "ne", "se", "sw"):
                eid = c.slot(name)
                assert (ci, name) in (pd.edges[eid].a, pd.edges[eid].b)
                slots[eid] += 1
        assert set(slots) == set(pd.edges)
        assert set(slots.values()) == {2}
    assert len(diagrams[0].edges) == 8
