"""Exact fractions, projective continued-fraction evaluation, all-even
expansions and the Schubert table.

Fractions live in Q united with a single point at infinity (1/0), which lets
continued fractions with zero entries evaluate without special cases.
`Frac.make` reduces by a gcd, for input from outside; `eval_cf` needs none.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .laurent import DomainError, InvariantViolation, typed_equality

MAX_CF_ENTRIES = 2000  # the longest continued fraction expanded or parsed


@typed_equality
class Frac(NamedTuple):
    """A reduced fraction p/q, q >= 0, with infinity represented as 1/0."""

    p: int
    q: int

    @staticmethod
    def make(p: int, q: int) -> "Frac":
        if p == 0 and q == 0:
            raise DomainError("0/0 is not a projective point")
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        return Frac(p, q)

    def positive_numerator(self) -> tuple[int, int]:
        """Return (p, q) with the pair's sign flipped so p > 0.

        Every caller passes a knot fraction, whose numerator is odd, so a
        zero or infinite value is a builder bug.
        """
        if self.q == 0 or self.p == 0:
            raise InvariantViolation(f"sign normalization of {self} needs a "
                                     "finite non-zero value")
        return (self.p, self.q) if self.p > 0 else (-self.p, -self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def _int_field(token: str, name: str) -> int:
    """The integer [+-]?[0-9]+, ASCII digits only, that token holds between
    blanks, or a DomainError naming the field."""
    body = token.strip()
    if not body:
        raise DomainError(f"{name} is empty")
    digits = body[1:] if body[0] in "+-" else body
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(body)
        return int(body)  # a ValueError, too, past int()'s digit limit
    except ValueError:
        shown = body if len(body) <= 20 else body[:20] + "..."
        raise DomainError(f"{name} is not an integer: {shown!r}") from None


def frac_parse(text: str) -> Frac:
    body = text.strip()
    if "/" in body:
        ps, qs = body.split("/", 1)
        return Frac.make(_int_field(ps, "numerator"),
                         _int_field(qs, "denominator"))
    return Frac.make(_int_field(body, "fraction"), 1)


def eval_cf(entries: Sequence[int]) -> Frac:
    """Evaluate [a1, ..., an] = a1 + 1/(a2 + 1/(... + 1/an)) over Q u {inf}."""
    if len(entries) == 0:
        raise DomainError("empty continued fraction")
    # One continuant product from the innermost entry out: p/q -> a + q/p
    # starting at 1/0.  Each step has determinant -1, so the pair stays
    # coprime and never becomes 0/0, and no gcd is needed: q = 0 leaves
    # p = +-1 and p = 0 leaves q = +-1, so fixing the sign gives 1/0 and 0/1.
    p, q = 1, 0
    for a in reversed(entries):
        p, q = a * p + q, p
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return Frac(p, q)


def cf_parse(text: str) -> list[int]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        raise DomainError("empty continued fraction")
    if body.count(",") >= MAX_CF_ENTRIES:
        raise DomainError(f"continued fraction has more than {MAX_CF_ENTRIES} entries")
    return [_int_field(tok, f"continued-fraction entry {i}")
            for i, tok in enumerate(body.split(","), start=1)]


def _even_denominator(p: int, q: int) -> int:
    """The unique even r with r = q (mod p) and |r| < |p| (p odd)."""
    m = abs(p)
    r = q % m
    if r % 2 == 1:
        r -= m
    return r


def _nearest_even(p: int, q: int) -> int:
    """Nearest even integer to p/q; ties cannot occur for the inputs we see
    (a tie would force p/q to be an odd integer)."""
    if q < 0:
        p, q = -p, -q
    lo = 2 * (p // (2 * q))
    return lo if abs(p - lo * q) < abs(p - (lo + 2) * q) else lo + 2


def even_cf(f: Frac) -> tuple[int, ...]:
    """The even-length, all-even continued fraction entries of p/q_even.

    Precondition: p odd, |p| >= 3, gcd(p, q) = 1.  The denominator is first
    normalized to q_even, the even representative with |q| < |p|
    (`_even_denominator`); each step takes the nearest even integer and
    recurses on the reciprocal remainder, up to MAX_CF_ENTRIES entries: the
    entry past them raises a DomainError.  The entries are not evaluated
    here: `inversions_from_fraction` checks that they evaluate to p/q_even,
    as the first inversion's knot fraction, which the analysis reuses.
    """
    p, q = f.p, f.q
    if q == 0:
        raise DomainError("cannot expand infinity")
    if p % 2 == 0:
        raise DomainError(f"{p}/{q}: even numerator is a link, not a knot")
    if abs(p) < 3:
        raise DomainError(f"{p}/{q}: |numerator| < 3 is degenerate")
    q0 = _even_denominator(p, q)
    entries: list[int] = []
    a, b = p, q0
    while b != 0:
        if len(entries) == MAX_CF_ENTRIES:
            raise DomainError(
                f"{p}/{q}: even continued fraction over {MAX_CF_ENTRIES} entries")
        e = _nearest_even(a, b)
        entries.append(e)
        a, b = b, a - e * b
    return tuple(entries)


def schubert_classes(max_p: int) -> list[tuple[int, int]]:
    """One canonical (p, q) per class with even q in (0, p), p odd, 3 <= p <= max_p.

    K(p, q) and K(p, q') are the same knot iff q' = q^(+-1) mod p, and
    K(p, -q) is the mirror of K(p, q) (Schubert 1956).  Each record is the
    least even member of a class {q, q^(-1)} mod p that has one.  Since q
    and p - q differ in parity, every knot up to mirror is listed, and a
    chiral knot is listed once per chirality with an even representative.
    """
    out: list[tuple[int, int]] = []
    for p in range(3, max_p + 1, 2):
        for q in range(2, p, 2):
            if gcd(p, q) == 1:
                qi = pow(q, -1, p)
                if qi % 2 or qi >= q:  # q is its class's least even member
                    out.append((p, q))
    return out
