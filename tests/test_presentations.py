import random
import time
from math import gcd

import pytest
from hypothesis import given, settings

from equibridge import presentations
from equibridge.butterfly import AxisLinkWitness, ReducedAxisLinkWitness
from equibridge.diagrams import build_knot_diagram, build_lhat_diagram
from equibridge.laurent import DomainError
from equibridge.moth import _det_from_conway, _in_z, conway_in_w
from equibridge.presentations import (
    I1Presentation,
    ParseError,
    inversions_from_fraction,
    parse_i1,
)
from equibridge.rationals import Frac
from equibridge.seifert import determinant, seifert_matrix_data

import tables
from notation import zp_parse
from seifert_conway import conway_polynomial


def test_parse_and_derived_fields():
    p = parse_i1("2;1")
    assert p.alphas == (2,) and p.cs == (1,)
    assert p.sigma == (1,) and p.b == 2
    assert p.eps == (-1,)

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


def test_parse_limits_the_entry_count():
    pres = parse_i1(",".join(["2"] * 1000) + ";" + ",".join(["1"] * 1000))
    assert len(pres.knot_cf()) == 2000
    with pytest.raises(ParseError, match="more than 2000 entries"):
        parse_i1(",".join(["2"] * 1001) + ";" + ",".join(["1"] * 1000))
    with pytest.raises(ParseError, match="more than 2000 entries"):
        parse_i1("x," * 2000 + ";1")  # counted before any entry is read


def test_round_trip_printing():
    for text in ("2;1", "2,4;1,1", "-2,4,-6;1,-2,3"):
        assert str(parse_i1(text)) == f"I1({text})"
        assert parse_i1(str(parse_i1(text))) == parse_i1(text)


def test_records_have_value_semantics():
    """Equality, hashing and immutability that `knot_report`'s memo and the
    benchmark's presentation count rely on."""
    a, b = I1Presentation((2, 4), (1, -1)), parse_i1("2,4;1,-1")
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    a.knot_fraction  # now cached on a only
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != I1Presentation((2, 4), (1, 1)) and repr(a) != repr(parse_i1("2;1"))
    assert {a: 1}[b] == 1
    with pytest.raises(AttributeError):
        a.alphas = (2,)
    with pytest.raises(AttributeError):
        del a.cs
    assert a.alphas == (2, 4)

    f = Frac.make(6, -4)
    assert f == Frac(-3, 2) and hash(f) == hash(Frac(-3, 2)) and f != Frac(3, 2)
    with pytest.raises(AttributeError):
        f.p = 3
    # Records of different types never compare equal, even with equal fields.
    assert AxisLinkWitness(1, "K") != ReducedAxisLinkWitness(1, "K")
    assert ReducedAxisLinkWitness(1, 3) != Frac(1, 3) != (1, 3)
    assert not ReducedAxisLinkWitness(1, 3) == Frac(1, 3)
    assert ReducedAxisLinkWitness(1, 3) == ReducedAxisLinkWitness(1, 3)


def test_delta_of_negative_c():
    """delta_i = c_i mod 2 enters eps alone: a negative odd c is odd."""
    assert parse_i1("2;-1").eps == (-1,)
    assert parse_i1("2;-2").eps == (1,)
    assert parse_i1("2,2;-3,1").eps == (1, -1)


def test_eps_is_suffix_product():
    p = parse_i1("2,2,2;1,2,1")
    # eps_i = product of (-1)^c_j for j >= i
    assert p.eps == (1, -1, -1)


def test_sigma_consistency():
    p = parse_i1("2,-4,6;1,1,1")
    assert p.sigma[-1] * 2 == p.b
    run = 0
    for a, s in zip(p.alphas, p.sigma):
        run += a
        assert s == run // 2


def test_knot_fraction_examples():
    assert parse_i1("2;1").knot_fraction == Frac.make(3, 2)
    assert parse_i1("2;-1").knot_fraction == Frac.make(5, 2)
    assert parse_i1("2,4;1,1").knot_fraction == Frac.make(17, 12)


def test_butterfly_fraction_examples():
    assert parse_i1("2;1").butterfly_fraction == Frac.make(8, 5)
    assert parse_i1("2;-1").butterfly_fraction == Frac.make(8, 3)
    assert parse_i1("2,-2;1,1").butterfly_fraction == Frac.make(8, 5)


def test_knot_fraction_of_300_pairs_is_fast():
    rng = random.Random(36)
    pres = I1Presentation(
        tuple(rng.choice([-4, -2, 2, 4]) for _ in range(300)),
        tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(300)),
    )
    start = time.perf_counter()
    kf = pres.knot_fraction
    bf = pres.butterfly_fraction
    assert time.perf_counter() - start < 0.5
    assert kf.p % 2 == 1 and bf.p % 2 == 0
    assert pres.knot_fraction is kf  # evaluated once per presentation


def test_butterfly_numerator_even_nonzero():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        alphas = tuple(rng.choice([-8, -6, -4, -2, 2, 4, 6, 8]) for _ in range(n))
        cs = tuple(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(n))
        bf = I1Presentation(alphas, cs).butterfly_fraction
        assert bf.p != 0 and bf.p % 2 == 0


def test_inversions_trefoil_single():
    pair = inversions_from_fraction(3, 2)
    assert str(pair.inv1) == "I1(2;1)"
    assert pair.inv2 is None


def test_inversions_figure_eight():
    pair = inversions_from_fraction(5, 2)
    assert str(pair.inv1) == "I1(2;-1)"
    assert str(pair.inv2) == "I1(-2;1)"
    assert pair.inv2.knot_fraction == Frac.make(-5, 2)


def test_inversions_seven_two():
    pair = inversions_from_fraction(7, 2)
    assert str(pair.inv1) == "I1(4;1)"
    assert str(pair.inv2) == "I1(2;2)"
    assert pair.inv2.knot_fraction == Frac.make(7, 4)
    assert (2 * 4) % 7 == 1  # 4 is the inverse of 2 mod 7


@pytest.mark.parametrize("p, q", [(9, 6), (-9, 6), (9, -6), (15, 25), (0, 5)])
def test_a_pair_with_a_common_factor_is_rejected_before_its_expansion(
        monkeypatch, p, q):
    expanded = []
    monkeypatch.setattr(presentations, "even_cf", expanded.append)
    with pytest.raises(DomainError, match=rf"^invalid 2-bridge pair \({p}, {q}\)$"):
        inversions_from_fraction(p, q)
    assert expanded == []


@pytest.mark.parametrize("p, q", [(1, 0), (-1, 0), (3, 0)])
def test_infinity_is_not_expanded(p, q):
    with pytest.raises(DomainError, match="cannot expand infinity"):
        inversions_from_fraction(p, q)


def test_inversions_schubert_equivalent_sweep():
    """Each inversion is K(p, q') with q' = q^(+-1) mod p (Schubert 1956)."""
    for p in range(3, 46, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            pair = inversions_from_fraction(p, q)
            for inv in (pair.inv1, pair.inv2):
                if inv is None:
                    continue
                pp, qq = inv.knot_fraction.positive_numerator()
                assert pp == p and qq % p in (q, pow(q, -1, p))


def _first_inversion(pres):
    return inversions_from_fraction(*pres.knot_fraction.positive_numerator()).inv1


def test_every_inversion_up_to_p_201_is_the_first_of_its_fraction():
    """README "Every presentation is its knot's first inversion" on the
    table, each inv2 included: `analyze --i1` relies on it."""
    presentations = tables.inversions(201)
    for pres in presentations:
        assert _first_inversion(pres) == pres, pres
    assert len(presentations) == 6161


@settings(max_examples=50, deadline=None)
@given(tables.presentations(40, 2000, 10**6))
def test_every_presentation_is_the_first_inversion_of_its_fraction(pres):
    """The same past the table, beyond the crossing budget of `analyze`."""
    assert _first_inversion(pres) == pres


def test_conway_continuant_examples():
    # (A, B, C, D, L) in w = z^2: the knot's matrix [[A, zB], [zC, D]] and
    # nabla(L-hat) = zL
    assert conway_in_w(parse_i1("2;1")) == ([1, 1], [1], [1], [1], [0, 1])  # trefoil
    figure_eight = conway_in_w(parse_i1("2;-1"))[0]
    assert _in_z(figure_eight, 0) == zp_parse("1 - z^2")
    assert _in_z(conway_in_w(parse_i1("4;-3"))[4], 1) == zp_parse("-12*z^3")
    # b = 0: L = -B, whose top slot stays zero until it is trimmed
    lhat = conway_in_w(parse_i1("2,-2;1,1"))[4]
    assert _in_z(lhat, 1) == zp_parse("z^3") and lhat[-1] != 0


def _product(entries, sign, z):
    """The integer product of [[x_i, 1], [1, 0]], x_i = +-sign*(e_i/2)*z
    with the sign alternating from + at the first entry."""
    product = [[1, 0], [0, 1]]
    for i, e in enumerate(entries):
        x = (sign if i % 2 == 0 else -sign) * (e // 2) * z
        product = [[a * x + b, a] for a, b in product]
    return product


@given(tables.presentations(6, 12, 6))
def test_continuant_matrix_is_the_product_of_its_steps(pres):
    """At integer z, [[A, zB], [zC, D]] of `conway_in_w` is the product
    over the knot's continued fraction, and zL the top-left entry of the
    product over the butterfly's with every sign flipped; every polynomial
    is trimmed."""
    out = conway_in_w(pres)
    assert all(not poly or poly[-1] for poly in out)
    A, B, C, D, L = out
    for z in (-3, -1, 1, 2, 5):
        def at(poly):
            return sum(c * z**(2 * k) for k, c in enumerate(poly))
        assert [[at(A), z * at(B)], [z * at(C), at(D)]] == _product(
            pres.knot_cf(), 1, z)
        assert z * at(L) == _product(pres.butterfly_cf(), -1, z)[0][0]


def _continuant_conways(pres):
    A, *_, L = conway_in_w(pres)
    return _in_z(A, 0), _in_z(L, 1)


def _seifert_conways(surface):
    """The oracle: Conway polynomials of the knot and the butterfly link
    read off the Seifert matrices of their plat diagrams."""
    return conway_polynomial(surface.knot, 1), conway_polynomial(surface.lhat, 2)


def test_conway_continuant_matches_the_seifert_oracle_up_to_p_45():
    surfaces = tables.surfaces(45)
    for pres, surface in surfaces.items():
        assert _continuant_conways(pres) == _seifert_conways(surface), pres
    assert len(surfaces) == 304


twists = tables.presentations(6, 8, 20)


@settings(max_examples=25, deadline=None)
@given(twists)
def test_conway_continuant_matches_the_seifert_oracle(pres):
    assert _continuant_conways(pres) == _seifert_conways(tables.surfaces_of(pres))


@settings(max_examples=25, deadline=None)
@given(twists)
def test_knot_surface_determinant_equals_the_arithmetic_routes(pres):
    """det(V + V^T) of the knot's plat diagram = |p| = |nabla(2i)| beyond
    p <= 45; `analyze` itself no longer builds the knot's diagram."""
    det = determinant(seifert_matrix_data(build_knot_diagram(pres)))
    assert det == abs(pres.knot_fraction.p)
    assert det == _det_from_conway(conway_in_w(pres)[0], 0)


@settings(max_examples=25, deadline=None)
@given(twists)
def test_butterfly_surface_determinant_equals_the_arithmetic_routes(pres):
    """det(V + V^T) of the band-coherent butterfly plat = |p''| =
    |z nabla(2i)| beyond p <= 45: the geometry behind the determinant check
    of `analyze`, on presentations the table does not reach."""
    det = determinant(seifert_matrix_data(build_lhat_diagram(pres)))
    assert det == abs(pres.butterfly_fraction.p)
    assert det == _det_from_conway(conway_in_w(pres)[4], 1)


@pytest.mark.parametrize("p", [201, 401])
def test_butterfly_surface_determinant_of_the_longest_expansions(p):
    """p/(p - 1) has the longest even expansion of any class at its p, and
    its butterfly Seifert matrix has p rows: det(V + V^T) = |p''| on each
    inversion, far past the p <= 45 table the other surface tests read."""
    for pres in filter(None, inversions_from_fraction(p, p - 1)[:2]):
        v = seifert_matrix_data(build_lhat_diagram(pres))
        assert len(v) == p
        assert determinant(v) == abs(pres.butterfly_fraction.p)
