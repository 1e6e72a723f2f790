import random
import time
from collections import Counter

import pytest

from equibridge.butterfly import butterfly_polynomial
from equibridge.cli import random_presentation
from equibridge.laurent import LaurentPoly, lp_is_eta_admissible
from equibridge.presentations import parse_i1
from equibridge.strip import (
    Arc,
    Crossing,
    Endpoint,
    StripDiagram,
    StripError,
    build_strip,
    eta_from_strip,
    eta_oracle,
    label_strip,
    parse_strip,
    print_strip,
    strip_census,
)


def test_build_counts_for_small_example():
    d = build_strip(parse_i1("2;1"))
    roles = Counter(a.role for a in d.arcs)
    assert roles["rail"] == 1
    assert roles["box 1 arc"] == 1  # the one group-1 arc feeds the box
    # two arcs bring the walk home: the return arc and one descender
    assert roles["final return"] + roles["final vertical"] == 2
    box_crossings = [c for c in d.crossings
                     if {c.over, c.under} == {1, 2}]
    assert len(box_crossings) >= 2


def test_b_zero_has_no_final_verticals():
    d = build_strip(parse_i1("2,-2;1,1"))
    roles = Counter(a.role for a in d.arcs)
    assert roles.get("final vertical", 0) == 0
    assert roles["final return"] == 1


def test_crossing_total_census():
    for text in ("2;1", "2,4;1,1", "-4,2;3,-1"):
        pres = parse_i1(text)
        d = build_strip(pres)
        boxes = 2 * sum(abs(c) for c in pres.cs)
        rail_crossings = len(d.crossings) - boxes
        # every rail crossing pairs a vertical arc with the rail
        assert rail_crossings >= 0


def test_labels_of_small_example():
    d = build_strip(parse_i1("2;1"))
    ls = label_strip(d)
    assert ls.labels[d.start_arc] == 0
    by_role = {a.role: ls.labels[a.ident] for a in d.arcs}
    assert by_role["box 1 arc"] == 1  # sigma_1


def test_box_census_after_labeling():
    """Each twist box carries the rail (label 0) against an arc labelled
    sigma_i, with |c_i| crossings on each side and uniform sign."""
    rng = random.Random(11)
    for _ in range(120):
        pres = random_presentation(rng, max_n=3)
        d = build_strip(pres)
        ls = label_strip(d)
        rail = d.start_arc
        census = strip_census(ls)
        for i, c in enumerate(pres.cs, start=1):
            sigma = pres.sigma[i - 1]
            box = [census[k] for k, role in enumerate(d.crossing_roles)
                   if role == f"box {i}"]
            assert len(box) == 2 * abs(c)
            for over, under, eps, dd in box:
                assert rail in (over, under)
                other = over if under == rail else under
                assert ls.labels[other] == sigma
                assert ls.labels[rail] == 0
                assert eps == (1 if c > 0 else -1)
            plus = sum(1 for _, _, _, dd in box if dd == sigma)
            minus = sum(1 for _, _, _, dd in box if dd == -sigma)
            if sigma != 0:
                assert plus == abs(c) and minus == abs(c)
            else:
                assert plus + minus >= 2 * abs(c)


def test_telescoping_rail_vertical_sum():
    """Away from the boxes, the signed d != 0 census cancels exactly."""
    rng = random.Random(12)
    for _ in range(200):
        pres = random_presentation(rng)
        d = build_strip(pres)
        census = strip_census(label_strip(d))
        acc = {}
        for k, role in enumerate(d.crossing_roles):
            if role != "rail-vertical":
                continue
            _, _, eps, dd = census[k]
            if dd != 0:
                acc[dd] = acc.get(dd, 0) + eps
        assert all(v == 0 for v in acc.values()), (pres, acc)


def test_walk_net_label_change_zero():
    rng = random.Random(13)
    for _ in range(100):
        d = build_strip(random_presentation(rng))
        labels = label_strip(d).labels
        assert labels[d.start_arc] == 0


def test_oracle_equals_formula_generators():
    for n in range(1, 6):
        pres = parse_i1(f"{2 * n};1")
        assert eta_oracle(pres) == butterfly_polynomial(pres)


def test_label_walk_is_linear_in_the_number_of_arcs():
    # 10000 arcs: a walk that scans the arc list at every step is quadratic.
    pres = parse_i1("20000;1")
    start = time.perf_counter()
    assert eta_oracle(pres) == butterfly_polynomial(pres)
    assert time.perf_counter() - start < 2


def test_oracle_vanishing_family():
    pres = parse_i1("2,-2,2,-2;1,1,-1,1")
    assert eta_oracle(pres) == LaurentPoly.zero()


def test_oracle_equivalence_500_seeded():
    rng = random.Random(20240814)
    for _ in range(500):
        pres = random_presentation(rng)
        eta = eta_oracle(pres)
        assert eta == butterfly_polynomial(pres)
        assert lp_is_eta_admissible(eta)


def test_round_trip_print_parse():
    for text in ("2;1", "2,4;1,1", "2,-2;1,1", "-4,2,-6;3,-2,1"):
        d = build_strip(parse_i1(text))
        assert parse_strip(print_strip(d)) == d


def test_parse_errors():
    with pytest.raises(StripError, match="missing 'start'"):
        parse_strip("slots 1\narc 1 top:1 bottom:1\n")
    with pytest.raises(StripError, match="used twice"):
        parse_strip("slots 1\narc 1 top:1 top:1\nstart 1 fwd\n")
    with pytest.raises(StripError, match="unknown arc"):
        parse_strip("slots 1\narc 1 top:1 bottom:1\ncross 1 2 +1\nstart 1 fwd\n")
    with pytest.raises(StripError, match="unused"):
        parse_strip("slots 2\narc 1 top:1 bottom:1\nstart 1 fwd\n")


def test_orientation_flips_are_respected():
    """Reversing listed endpoints (and listed signs) leaves eta unchanged."""
    rng = random.Random(14)
    for _ in range(150):
        pres = random_presentation(rng, max_n=3)
        d = build_strip(pres)
        flip = {a.ident: rng.random() < 0.5 for a in d.arcs}
        arcs = tuple(
            Arc(a.ident, a.second, a.first, a.role) if flip[a.ident] else a
            for a in d.arcs
        )
        crossings = []
        for c in d.crossings:
            s = c.listed_sign
            if flip[c.over]:
                s = -s
            if flip[c.under]:
                s = -s
            crossings.append(Crossing(c.over, c.under, s))
        scrambled = StripDiagram(d.slots, arcs, tuple(crossings), d.start_arc,
                                 not flip[d.start_arc])
        assert eta_from_strip(label_strip(scrambled)) == \
            butterfly_polynomial(pres)


def test_walk_failure_detection():
    # two disjoint closed curves: the walk closes before visiting both
    bad = StripDiagram(
        2,
        (Arc(1, Endpoint("top", 1), Endpoint("bottom", 1)),
         Arc(2, Endpoint("top", 2), Endpoint("bottom", 2))),
        (),
        1,
        True,
    )
    with pytest.raises(StripError):
        label_strip(bad)
