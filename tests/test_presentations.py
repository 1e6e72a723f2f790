import random
import time
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from equibridge.diagrams import build_knot_diagram, build_lhat_diagram
from equibridge.laurent import DomainError, zp_parse
from equibridge.moth import _det_from_conway
from equibridge.presentations import (
    I1Presentation,
    ParseError,
    butterfly_fraction,
    continuant_matrix,
    continuant_row,
    conway_continuant,
    inversions_from_fraction,
    knot_fraction,
    parse_i1,
)
from equibridge.rationals import Frac, schubert_classes, two_bridge_equiv
from equibridge.seifert import conway_polynomial, determinant, seifert_matrix_data


def test_parse_and_derived_fields():
    p = parse_i1("2;1")
    assert p.alphas == (2,) and p.cs == (1,)
    assert p.sigma == (1,) and p.b == 2
    assert p.delta == (1,) and p.eps == (-1,)

    p = parse_i1("2,4;1,1")
    assert p.sigma == (1, 3) and p.b == 6


def test_parse_validation():
    with pytest.raises(ParseError):
        parse_i1("1;2")  # odd alpha
    with pytest.raises(ParseError):
        parse_i1("2,0;1,1")  # zero alpha
    with pytest.raises(ParseError):
        parse_i1("2;0")  # zero c
    with pytest.raises(ParseError):
        parse_i1("2,4;1")  # length mismatch
    with pytest.raises(ParseError):
        parse_i1("2,4")  # no separator
    with pytest.raises(ParseError, match=r"alpha\[2\] is empty"):
        parse_i1("2,,4;1,1")  # empty field


def test_round_trip_printing():
    for text in ("2;1", "2,4;1,1", "-2,4,-6;1,-2,3"):
        assert str(parse_i1(text)) == f"I1({text})"
        assert parse_i1(str(parse_i1(text))) == parse_i1(text)


def test_delta_of_negative_c():
    assert parse_i1("2;-1").delta == (1,)
    assert parse_i1("2;-2").delta == (0,)


def test_eps_is_suffix_product():
    p = parse_i1("2,2,2;1,2,1")
    # delta = (1, 0, 1): eps_i = product of (-1)^delta_j for j >= i
    assert p.eps == (1, -1, -1)


def test_sigma_consistency():
    p = parse_i1("2,-4,6;1,1,1")
    assert p.sigma[-1] * 2 == p.b
    run = 0
    for a, s in zip(p.alphas, p.sigma):
        run += a
        assert s == run // 2


def test_knot_fraction_examples():
    assert knot_fraction(parse_i1("2;1")) == Frac.make(3, 2)
    assert knot_fraction(parse_i1("2;-1")) == Frac.make(5, 2)
    assert knot_fraction(parse_i1("2,4;1,1")) == Frac.make(17, 12)


def test_butterfly_fraction_examples():
    assert butterfly_fraction(parse_i1("2;1")) == Frac.make(8, 5)
    assert butterfly_fraction(parse_i1("2;-1")) == Frac.make(8, 3)
    assert butterfly_fraction(parse_i1("2,-2;1,1")) == Frac.make(8, 5)


def test_knot_fraction_of_300_pairs_is_fast():
    rng = random.Random(36)
    pres = I1Presentation(
        tuple(rng.choice([-4, -2, 2, 4]) for _ in range(300)),
        tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(300)),
    )
    start = time.perf_counter()
    kf = knot_fraction(pres)
    bf = butterfly_fraction(pres)
    assert time.perf_counter() - start < 0.5
    assert kf.p % 2 == 1 and bf.p % 2 == 0
    assert knot_fraction(pres) is kf  # evaluated once per presentation


def test_butterfly_numerator_even_nonzero():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        alphas = tuple(rng.choice([-8, -6, -4, -2, 2, 4, 6, 8]) for _ in range(n))
        cs = tuple(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(n))
        bf = butterfly_fraction(I1Presentation(alphas, cs))
        assert bf.p != 0 and bf.p % 2 == 0


def test_inversions_trefoil_single():
    pair = inversions_from_fraction(3, 2)
    assert str(pair.inv1) == "I1(2;1)"
    assert pair.inv2 is None


def test_inversions_figure_eight():
    pair = inversions_from_fraction(5, 2)
    assert str(pair.inv1) == "I1(2;-1)"
    assert str(pair.inv2) == "I1(-2;1)"
    assert knot_fraction(pair.inv2) == Frac.make(-5, 2)


def test_inversions_seven_two():
    pair = inversions_from_fraction(7, 2)
    assert str(pair.inv1) == "I1(4;1)"
    assert str(pair.inv2) == "I1(2;2)"
    assert knot_fraction(pair.inv2) == Frac.make(7, 4)
    assert (2 * 4) % 7 == 1  # 4 is the inverse of 2 mod 7


def test_inversions_schubert_equivalent_sweep():
    for p in range(3, 46, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            pair = inversions_from_fraction(p, q)
            for inv in (pair.inv1, pair.inv2):
                if inv is None:
                    continue
                pp, qq = knot_fraction(inv).positive_numerator()
                assert two_bridge_equiv(pp, qq, p, q)


def test_conway_continuant_examples():
    assert conway_continuant([], 1) == zp_parse("1")
    assert conway_continuant([2, -2], 1) == zp_parse("1 + z^2")  # trefoil
    assert conway_continuant([2, 2], 1) == zp_parse("1 - z^2")  # figure eight
    assert conway_continuant([2], -1) == zp_parse("-z")  # Hopf link
    # b = 0: the butterfly entries of I1(2,-2;1,1) end in 0, so the last
    # step of the recurrence leaves zeros above the top term
    lhat = conway_continuant([2, -2, -2, -2, 0], -1)
    assert lhat == zp_parse("z^3") and lhat[-1] != 0
    with pytest.raises(DomainError):
        conway_continuant([2, 3], 1)


@given(st.lists(st.integers(-6, 6).map(lambda h: 2 * h), max_size=12),
       st.sampled_from([1, -1]))
def test_continuant_matrix_is_the_product_of_its_steps(entries, sign):
    """At integer z, each entry of `continuant_matrix` is that entry of the
    integer product of [[x_i, 1], [1, 0]]; every polynomial is trimmed."""
    rows = continuant_matrix(entries, sign)
    assert rows[0] == continuant_row(entries, sign)
    assert all(not poly or poly[-1] for row in rows for poly in row)
    for z in (-3, -1, 1, 2, 5):
        product = [[1, 0], [0, 1]]
        for i, e in enumerate(entries):
            x = (sign if i % 2 == 0 else -sign) * (e // 2) * z
            product = [[a * x + b, a] for a, b in product]
        assert [[sum(c * z**k for k, c in enumerate(poly)) for poly in row]
                for row in rows] == product


def _continuant_conways(pres):
    return (conway_continuant(pres.knot_cf(), 1),
            conway_continuant(pres.butterfly_cf(), -1))


def _seifert_conways(pres):
    """The oracle: Conway polynomials of the knot and the butterfly link
    read off the Seifert matrices of their plat diagrams."""
    return tuple(conway_polynomial(seifert_matrix_data(build(pres)))
                 for build in (build_knot_diagram, build_lhat_diagram))


def test_conway_continuant_matches_the_seifert_oracle_up_to_p_45():
    count = 0
    for p, q in schubert_classes(45):
        pair = inversions_from_fraction(p, q)
        for pres in (pair.inv1, pair.inv2):
            if pres is not None:
                assert _continuant_conways(pres) == _seifert_conways(pres), pres
                count += 1
    assert count == 304


twist_data = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([-8, -6, -4, -2, 2, 4, 6, 8]),
             min_size=n, max_size=n),
    st.lists(st.integers(-20, 20).filter(bool), min_size=n, max_size=n),
))


@settings(max_examples=25, deadline=None)
@given(twist_data)
def test_conway_continuant_matches_the_seifert_oracle(data):
    pres = I1Presentation(*map(tuple, data))
    assert _continuant_conways(pres) == _seifert_conways(pres)


@settings(max_examples=25, deadline=None)
@given(twist_data)
def test_knot_surface_determinant_equals_the_arithmetic_routes(data):
    """det(V + V^T) of the knot's plat diagram = |p| = |nabla(2i)| beyond
    p <= 45; `analyze` itself no longer builds the knot's diagram."""
    pres = I1Presentation(*map(tuple, data))
    det = determinant(seifert_matrix_data(build_knot_diagram(pres)))
    assert det == abs(knot_fraction(pres).p)
    assert det == _det_from_conway(conway_continuant(pres.knot_cf(), 1))
