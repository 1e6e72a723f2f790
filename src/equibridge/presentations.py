"""Twist-box presentations of directed strongly invertible 2-bridge knots.

A presentation I1(a1,...,an; c1,...,cn) encodes a 2-bridge knot with a chosen
strong inversion and direction: the knot is the 4-plat of the continued
fraction [a1, -2*c1, ..., an, -2*cn].  The a_i are even and non-zero, the
c_i non-zero.
"""
from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .laurent import DomainError, Frozen, InvariantViolation, typed_equality
from .rationals import (MAX_CF_ENTRIES, Frac, _even_denominator, _int_field,
                        eval_cf, even_cf)


class ParseError(DomainError):
    """Input text failed validation; carries a human-readable position."""


class I1Presentation(Frozen):
    """Twist parameters plus the derived quantities used by every invariant.

    sigma[i] is half the partial sum of the alphas (an integer), b is the
    full sum, and eps[i] is the suffix product of (-1)**c_j for j >= i.
    Two presentations are equal when their alphas and cs are.
    """

    _fields = ("alphas", "cs")

    def __init__(self, alphas: tuple[int, ...], cs: tuple[int, ...]):
        if len(alphas) == 0:
            raise ParseError("presentation needs at least one twist pair")
        if len(alphas) != len(cs):
            raise ParseError(
                f"length mismatch: {len(alphas)} alphas vs {len(cs)} cs"
            )
        for i, a in enumerate(alphas):
            if a == 0 or a % 2 != 0:
                raise ParseError(f"alpha[{i + 1}] = {a} must be even and non-zero")
        for i, c in enumerate(cs):
            if c == 0:
                raise ParseError(f"c[{i + 1}] must be non-zero")
        sigma = tuple(s // 2 for s in accumulate(alphas))
        # (-1) to the suffix sums of the cs, taken from the right
        eps = tuple(1 - 2 * (s % 2) for s in accumulate(reversed(cs)))[::-1]
        vars(self).update(alphas=alphas, cs=cs, sigma=sigma, b=sum(alphas), eps=eps)

    @property
    def n(self) -> int:
        return len(self.alphas)

    def knot_cf(self) -> list[int]:
        """The continued fraction [a1, -2c1, ..., an, -2cn] of the knot."""
        return [x for a, c in zip(self.alphas, self.cs) for x in (a, -2 * c)]

    def butterfly_cf(self) -> list[int]:
        """The knot continued fraction with the balancing -b entry appended."""
        return self.knot_cf() + [-self.b]

    # Evaluated on first use and kept, so every invariant of one
    # presentation shares a single evaluation of each fraction.
    @cached_property
    def knot_fraction(self) -> Frac:
        """Fraction of the underlying 2-bridge knot."""
        return eval_cf(self.knot_cf())

    @cached_property
    def butterfly_fraction(self) -> Frac:
        """Fraction of the 2-bridge link obtained by the balancing band move.

        Evaluated projectively so a trailing zero entry (b = 0) is absorbed.
        """
        return eval_cf(self.butterfly_cf())

    def __str__(self) -> str:
        return f"I1({','.join(map(str, self.alphas))};{','.join(map(str, self.cs))})"


def parse_i1(text: str) -> I1Presentation:
    """Parse 'a1,a2,...;c1,c2,...' (an optional I1(...) wrapper is allowed)."""
    body = text.strip()
    if body.startswith("I1(") and body.endswith(")"):
        body = body[3:-1]
    if ";" not in body:
        raise ParseError("expected ';' separating alphas from cs")
    a_part, c_part = body.split(";", 1)
    if body.count(",") + 2 > MAX_CF_ENTRIES:  # entries of the knot fraction
        raise ParseError(f"presentation has more than {MAX_CF_ENTRIES} entries")
    try:
        alphas = tuple(_int_field(tok, f"alpha[{i}]")
                       for i, tok in enumerate(a_part.split(","), start=1))
        cs = tuple(_int_field(tok, f"c[{i}]")
                   for i, tok in enumerate(c_part.split(","), start=1))
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    return I1Presentation(alphas, cs)


@typed_equality
class InversionPair(NamedTuple):
    """The one or two strong-inversion presentations of a 2-bridge knot."""

    inv1: I1Presentation
    inv2: Optional[I1Presentation]
    source: Frac


def presentation_from_cf(entries: Sequence[int]) -> I1Presentation:
    """The presentation whose knot continued fraction is `entries`."""
    if len(entries) % 2 != 0:
        raise ParseError("knot continued fraction must have even length")
    if any(e % 2 != 0 for e in entries[1::2]):
        raise ParseError("even-position entries must be even (twice a twist count)")
    alphas = tuple(entries[0::2])
    cs = tuple(-e // 2 for e in entries[1::2])
    return I1Presentation(alphas, cs)


def inversions_from_fraction(p: int, q: int) -> InversionPair:
    """Build the strong-inversion presentations of K(p, q), gcd(p, q) = 1.

    inv1 comes from the even continued fraction of p/q; inv2 from the
    reversed-and-negated expansion.  When the two coincide entry-wise the
    knot admits a single strong inversion and inv2 is omitted.  Each is
    checked once, in integers, on the knot fraction the analysis reuses:
    inv1's is p/q_even exactly, and inv2's, with numerator p' > 0, has
    p' = p and q q' = 1 (mod p), Schubert's other member of the class.
    Reversal transposes the continuant [[p, r], [q, s]], ps - qr = 1, and
    negating every entry negates r and q, so inv2's fraction is p/(-r).
    """
    src = Frac.make(p, q)
    if src.q != abs(q):  # Frac.make divided out a common factor
        raise DomainError(f"invalid 2-bridge pair ({p}, {q})")
    entries = even_cf(src)
    inv1 = presentation_from_cf(entries)
    rev = presentation_from_cf([-e for e in reversed(entries)])
    inv2 = None if rev == inv1 else rev
    q_even = _even_denominator(src.p, src.q)  # non-zero, as |p| >= 3
    kf = inv1.knot_fraction
    if kf != (Frac(src.p, q_even) if q_even > 0 else Frac(-src.p, -q_even)):
        raise InvariantViolation(f"builder produced a wrong knot: {inv1} -> {kf}")
    if inv2 is not None:
        p, q = kf.positive_numerator()
        p2, q2 = inv2.knot_fraction.positive_numerator()
        if p2 != p or (q * q2 - 1) % p != 0:
            raise InvariantViolation(
                f"builder produced a wrong knot: {inv2} -> {inv2.knot_fraction}")
    return InversionPair(inv1, inv2, src)
