from math import gcd

import pytest
from hypothesis import given, strategies as st

from equibridge import rationals
from equibridge.laurent import DomainError
from equibridge.rationals import (
    MAX_CF_ENTRIES,
    Frac,
    cf_parse,
    eval_cf,
    even_cf,
    frac_parse,
    schubert_classes,
    two_bridge_equiv,
)


def test_eval_cf_examples():
    assert eval_cf([2, 2]) == Frac.make(5, 2)
    assert eval_cf([7]) == Frac.make(7, 1)
    for c in (-3, 1, 4):
        assert eval_cf([2, -2, -2, -2 * c, 0]) == eval_cf([2, -2, -2])


def _eval_cf_stepwise(entries):
    """The step-by-step projective evaluation a + 1/v, innermost first."""
    v = Frac.make(entries[-1], 1)
    for a in reversed(entries[:-1]):
        v = v.reciprocal().plus_int(a)
    return v


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=600)
       | st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=1, max_size=12))
def test_eval_cf_matches_stepwise_evaluation(entries):
    assert eval_cf(entries) == _eval_cf_stepwise(entries)


def test_eval_cf_projective_points():
    assert eval_cf([0, 0]) == Frac(1, 0)
    assert eval_cf([0]) == Frac.make(0, 1)
    with pytest.raises(DomainError):
        eval_cf([])


def test_even_cf_examples():
    assert even_cf(Frac.make(5, 2)) == (2, 2)
    assert even_cf(Frac.make(3, 2)) == (2, -2)
    entries = even_cf(Frac.make(3, 1))
    assert rationals._even_denominator(3, 1) == -2 and entries == (-2, 2)
    assert eval_cf(entries) == Frac.make(3, -2)


def test_even_cf_rejects_links_and_degenerate():
    with pytest.raises(DomainError):
        even_cf(Frac.make(4, 3))
    with pytest.raises(DomainError):
        even_cf(Frac.make(1, 1))


def test_even_cf_round_trip_exhaustive():
    for p in range(3, 100, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            entries = even_cf(Frac.make(p, q))
            q_even = rationals._even_denominator(p, q)
            assert all(a != 0 and a % 2 == 0 for a in entries)
            assert len(entries) % 2 == 0
            assert (q_even - q) % p == 0 and abs(q_even) < p
            assert eval_cf(entries) == Frac.make(p, q_even)


def test_two_bridge_equiv_examples():
    assert two_bridge_equiv(5, 2, 5, 3)
    assert two_bridge_equiv(7, 2, 7, 2)
    assert not two_bridge_equiv(5, 2, 7, 2)
    # mirrors are tracked: the two trefoils are inequivalent
    assert not two_bridge_equiv(3, 2, 3, 1)
    # sign normalization: -5/2 is the 5/3 class
    assert two_bridge_equiv(-5, -2, 5, 3)


def test_reversal_identity_enumeration():
    """Reversing an even continued fraction inverts the denominator."""
    for p in range(3, 60, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            entries = even_cf(Frac.make(p, q))
            rev = eval_cf(list(reversed(entries)))
            pr, qr = rev.positive_numerator()
            assert pr == p
            assert (rationals._even_denominator(p, q) * qr + 1) % p == 0


def test_frac_parse_and_print():
    assert frac_parse("17/12") == Frac.make(17, 12)
    assert frac_parse("-8/3") == Frac.make(-8, 3)
    assert str(Frac.make(6, -4)) == "-3/2"
    assert cf_parse("[2,-2,4]") == [2, -2, 4]


def test_schubert_classes_examples():
    assert schubert_classes(3) == [(3, 2)]
    table = schubert_classes(9)
    assert (7, 2) in table and (7, 4) not in table  # 4 = 2^-1 mod 7
    assert all(p % 2 == 1 and q % 2 == 0 and gcd(p, q) == 1 for p, q in table)


def test_schubert_classes_list_every_knot_once_per_even_chirality():
    """K(p, q) = K(p, q') iff q' = q^(+-1) mod p, and K(p, -q) is the mirror
    (Schubert 1956).  Up to p <= 101 every orbit {+-q^(+-1)} mod p has a
    record, no two records are the same knot, and a chiral knot is listed
    in both chiralities when both have an even representative."""
    def knot(p, q):
        return p, frozenset({q % p, pow(q, -1, p)})

    def up_to_mirror(p, q):
        return knot(p, q)[1] | knot(p, -q)[1]

    records = schubert_classes(101)
    assert len({knot(p, q) for p, q in records}) == len(records) == 808
    orbits = {(p, up_to_mirror(p, q)) for p in range(3, 102, 2)
              for q in range(1, p) if gcd(p, q) == 1}
    listed = [(p, up_to_mirror(p, q)) for p, q in records]
    assert set(listed) == orbits and len(orbits) == 570
    assert len(listed) - len(orbits) == 238  # orbits listed twice


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_frac_make_normal_form(p, q):
    if p == 0 and q == 0:
        return
    f = Frac.make(p, q)
    assert f.q >= 0
    assert gcd(abs(f.p), abs(f.q)) == 1 or (f.p == 1 and f.q == 0)


def test_even_cf_length_bound():
    """Numerators strictly decrease, so the expansion has fewer than p terms."""
    for p in range(3, 100, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            assert len(even_cf(Frac.make(p, q))) < p


def test_two_bridge_equiv_unknot_edge():
    assert two_bridge_equiv(1, 0, 1, 0)
    assert two_bridge_equiv(1, 0, -1, 0)
    assert not two_bridge_equiv(1, 0, 3, 2)


def test_even_cf_stops_at_the_first_entry_past_the_limit(monkeypatch):
    """(10^8 + 1)/3 has 33333334 entries; the expansion stops after 2000."""
    calls = []
    nearest_even = rationals._nearest_even

    def counted(a, b):
        calls.append(a)
        return nearest_even(a, b)

    monkeypatch.setattr(rationals, "_nearest_even", counted)
    with pytest.raises(DomainError, match="over 2000 entries"):
        even_cf(Frac.make(10**8 + 1, 3))
    assert MAX_CF_ENTRIES == len(calls) == 2000


def test_even_cf_at_the_limit_and_at_p_1001():
    assert len(even_cf(Frac.make(1001, 1000))) == 1000
    # [2, -2] repeated n times is (2n + 1)/(2n)
    assert len(even_cf(Frac.make(2001, 2000))) == 2000
    with pytest.raises(DomainError):
        even_cf(Frac.make(2003, 2002))


def test_cf_parse_limits_the_entry_count():
    assert len(cf_parse(",".join(["2", "-2"] * 1000))) == 2000
    with pytest.raises(DomainError, match="more than 2000 entries"):
        cf_parse(",".join(["2", "-2"] * 1000 + ["2"]))
    with pytest.raises(DomainError, match="more than 2000 entries"):
        cf_parse("x," * 2000)  # counted before any entry is read


@pytest.mark.parametrize("text, value", [
    ("7/2", (7, 2)), ("+7/-2", (-7, 2)), (" -7 / 2 ", (-7, 2)), ("007", (7, 1)),
])
def test_frac_parse_reads_ascii_integers(text, value):
    assert frac_parse(text) == Frac.make(*value)


@pytest.mark.parametrize("text", [
    "\u0663/2",  # ARABIC-INDIC DIGIT THREE
    "3/\uff12",  # FULLWIDTH DIGIT TWO
    "\u00b3/2",  # SUPERSCRIPT THREE
    "1_1/2", "+/2", "-/2", "+-3/2", "3.0/2", "0x3/2", "3/2 2",
])
def test_frac_parse_rejects_what_is_not_ascii_digits(text):
    with pytest.raises(DomainError, match="is not an integer"):
        frac_parse(text)
