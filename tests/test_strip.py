import hashlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings

from equibridge.butterfly import butterfly_polynomial
from equibridge.cli import random_presentation
from equibridge import strip
from equibridge.laurent import InvariantViolation, lp_is_eta_admissible
from equibridge.presentations import I1Presentation, parse_i1
from equibridge.strip import BOTTOM, TOP, eta_oracle

import tables
from strip_oracle import (
    Arc,
    Crossing,
    Endpoint,
    StripDiagram,
    StripError,
    build_strip,
    eta_from_strip,
    label_strip,
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


def _crossing_roles(d):
    """Per crossing of a built strip, "box i" or "rail-vertical", read off
    the diagram: only in a box does the rail pass over another arc, and box
    i runs over the crossings of the arc with role "box i arc" from the one
    just before its first rail-over crossing to its last rail-over one."""
    roles = ["rail-vertical"] * len(d.crossings)
    for arc in d.arcs:
        if arc.role.startswith("box "):
            over = [k for k, cr in enumerate(d.crossings)
                    if (cr.over, cr.under) == (d.start_arc, arc.ident)]
            for k in range(over[0] - 1, over[-1] + 1):
                roles[k] = arc.role.removesuffix(" arc")
    return roles


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
            box = [census[k] for k, role in enumerate(_crossing_roles(d))
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
        for k, role in enumerate(_crossing_roles(d)):
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
    assert eta_from_strip(label_strip(build_strip(pres))) == butterfly_polynomial(pres)
    assert time.perf_counter() - start < 2


def test_run_walk_equals_the_labelled_full_strip():
    """eta_oracle reads the run records; the expanded strip, labelled arc by
    arc, is the reference."""
    rng = random.Random(20261019)
    cases = {"sigma_n > 0": 0, "sigma_n <= 0": 0, "b = 0": 0}
    while sum(cases.values()) - cases["b = 0"] < 2000:
        pres = random_presentation(rng, max_n=7, max_alpha=40, max_c=20)
        if rng.random() < 0.1 and 0 < abs(pres.b) <= 40:
            # b = 0: one more pair whose alpha cancels the others
            pres = I1Presentation(pres.alphas + (-pres.b,),
                                  pres.cs + (rng.choice((-20, -1, 1, 20)),))
        assert eta_oracle(pres) == eta_from_strip(label_strip(build_strip(pres))), pres
        cases["sigma_n > 0" if pres.sigma[-1] > 0 else "sigma_n <= 0"] += 1
        cases["b = 0"] += pres.b == 0
    assert min(cases.values()) >= 100, cases


@pytest.mark.parametrize("text", ["2;1000000", "200000;1"])
def test_run_walk_costs_per_twist_box(text):
    # Expanding either strip takes about a minute and gigabytes.
    pres = parse_i1(text)
    start = time.perf_counter()
    assert eta_oracle(pres) == butterfly_polynomial(pres)
    assert time.perf_counter() - start < 1


def test_expanded_strips_are_pinned():
    """print_strip bytes of 200 seeded strips, as the arc-by-arc builder
    wrote them before strips were expanded from run records."""
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for _ in range(200):
        pres = random_presentation(rng, max_n=6, max_alpha=12, max_c=5)
        digest.update(print_strip(build_strip(pres)).encode())
    assert digest.hexdigest() == (
        "0b46b0cfbf3c00b6c73c481d4e892ec2b80e5e8628b0e70df4fbe094c329beb6")


def test_oracle_vanishing_family():
    pres = parse_i1("2,-2,2,-2;1,1,-1,1")
    assert eta_oracle(pres) == (0, ())


def test_oracle_equivalence_500_seeded():
    rng = random.Random(20240814)
    for _ in range(500):
        pres = random_presentation(rng)
        eta = eta_oracle(pres)
        assert eta == butterfly_polynomial(pres)
        assert lp_is_eta_admissible(eta)


def test_oracle_equals_formula_up_to_p_201():
    """The strip walk and the closed formula on every inversion at
    p <= 201; the table pins compare them, through `analyze`, only up to
    p <= 25."""
    presentations = tables.inversions(201)
    for pres in presentations:
        assert eta_oracle(pres) == butterfly_polynomial(pres), pres
    assert len(presentations) == 6161


@settings(deadline=None)
@given(tables.presentations(8, 2000, 10**6))
def test_oracle_equals_formula_on_wide_twist_regions(pres):
    """Up to 8 pairs with |alpha| <= 2000 and |c| <= 10^6: both routes cost
    per twist region, not per crossing."""
    assert eta_oracle(pres) == butterfly_polynomial(pres)


@pytest.mark.parametrize("slots, arc, crossings, message", [
    (1, Arc(1, Endpoint(TOP, 1), Endpoint(TOP, 1)), (), "used twice"),
    (1, Arc(1, Endpoint(TOP, 1), Endpoint(BOTTOM, 1)), (Crossing(1, 2, 1),),
     "unknown arc"),
    (2, Arc(1, Endpoint(TOP, 1), Endpoint(BOTTOM, 1)), (), "unused"),
], ids=["used twice", "unknown arc", "unused"])
def test_strip_diagram_validation(slots, arc, crossings, message):
    with pytest.raises(StripError, match=message):
        StripDiagram(slots, (arc,), crossings, 1, True)


def test_label_walk_that_does_not_close_at_label_zero():
    # one arc from the top edge to the bottom one re-enters itself one label down
    d = StripDiagram(1, (Arc(1, Endpoint(TOP, 1), Endpoint(BOTTOM, 1)),), (), 1, True)
    with pytest.raises(StripError, match="^label walk closes with net shift -1$"):
        label_strip(d)


def test_label_walk_that_misses_an_arc():
    # the strip of I1(2;1) plus an arc that its closed walk never reaches
    d = build_strip(parse_i1("2;1"))
    assert d.slots == len(d.arcs) == 4
    stray = Arc(5, Endpoint(TOP, 5), Endpoint(BOTTOM, 5))
    with pytest.raises(StripError, match="^label walk does not visit every arc$"):
        label_strip(StripDiagram(5, d.arcs + (stray,), d.crossings, d.start_arc, True))


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


def test_run_walk_must_return_to_the_rail_at_label_zero(monkeypatch):
    pres = parse_i1("4;1")
    runs = strip._walk_runs(pres)
    assert runs[-1] == ("final vertical", 2, "bottom", -1, 0, 0)
    # One descender short, the walk re-enters the rail one label up.
    short = runs[:-1] + [("final vertical", 1, "bottom", -1, 0, 0)]
    monkeypatch.setattr(strip, "_walk_runs", lambda p: short)
    with pytest.raises(InvariantViolation, match="net shift 1"):
        eta_oracle(pres)
    with pytest.raises(StripError, match="net shift 1"):
        label_strip(build_strip(pres))
    # Leaving by the top edge, the walk cannot re-enter the rail at all.
    upward = runs[:-1] + [("final vertical", 1, "top", 0, 0, 0)]
    monkeypatch.setattr(strip, "_walk_runs", lambda p: upward)
    with pytest.raises(InvariantViolation, match="does not return to the rail"):
        eta_oracle(pres)
    with pytest.raises(StripError, match="used twice"):
        build_strip(pres)
