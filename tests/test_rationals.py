from math import gcd

import pytest
from hypothesis import given, strategies as st

from equibridge.laurent import DomainError
from equibridge.rationals import (
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
    assert eval_cf([0, 0]) == Frac.infinity()
    assert eval_cf([0]) == Frac.make(0, 1)
    with pytest.raises(DomainError):
        eval_cf([])


def test_even_cf_examples():
    assert even_cf(Frac.make(5, 2)).entries == (2, 2)
    assert even_cf(Frac.make(3, 2)).entries == (2, -2)
    e = even_cf(Frac.make(3, 1))
    assert e.q_even == -2 and e.entries == (-2, 2)
    assert eval_cf(e.entries) == Frac.make(3, -2)


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
            e = even_cf(Frac.make(p, q))
            assert all(a != 0 and a % 2 == 0 for a in e.entries)
            assert len(e.entries) % 2 == 0
            assert (e.q_even - q) % p == 0 and abs(e.q_even) < p
            assert eval_cf(e.entries) == Frac.make(p, e.q_even)


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
            e = even_cf(Frac.make(p, q))
            rev = eval_cf(list(reversed(e.entries)))
            pr, qr = rev.positive_numerator()
            assert pr == p
            assert (e.q_even * qr + 1) % p == 0


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
            e = even_cf(Frac.make(p, q))
            assert len(e.entries) < p


def test_two_bridge_equiv_unknot_edge():
    assert two_bridge_equiv(1, 0, 1, 0)
    assert two_bridge_equiv(1, 0, -1, 0)
    assert not two_bridge_equiv(1, 0, 3, 2)
