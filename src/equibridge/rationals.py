"""Exact fractions with projective evaluation, even continued fractions,
and 2-bridge modular arithmetic.

Fractions live in Q united with a single point at infinity (1/0), which lets
continued fractions with zero entries evaluate without special cases.
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

    def is_infinite(self) -> bool:
        return self.q == 0

    def reciprocal(self) -> "Frac":
        return Frac.make(self.q, self.p)

    def plus_int(self, n: int) -> "Frac":
        return Frac.make(n * self.q + self.p, self.q)

    def positive_numerator(self) -> tuple[int, int]:
        """Return (p, q) with the pair's sign flipped so p > 0.

        Requires a finite non-zero fraction.
        """
        if self.q == 0 or self.p == 0:
            raise DomainError("sign normalization needs a finite non-zero value")
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


@typed_equality
class EvenCF(NamedTuple):
    """An all-even continued fraction expansion of p/q_even.

    q_even is the unique even representative of q mod p in (-|p|, |p|); the
    expansion evaluates to p/q_even exactly.
    """

    entries: tuple[int, ...]
    p: int
    q_even: int


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


def even_cf(f: Frac) -> EvenCF:
    """Expand p/q into an even-length, all-even continued fraction.

    Precondition: p odd, |p| >= 3, gcd(p, q) = 1.  The denominator is first
    normalized to the even representative with |q| < |p|; each step takes the
    nearest even integer and recurses on the reciprocal remainder, up to
    MAX_CF_ENTRIES entries: the entry past them raises a DomainError.
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
    if eval_cf(entries) != Frac.make(p, q0):
        raise InvariantViolation(f"even_cf round-trip failed for {p}/{q}")
    return EvenCF(tuple(entries), p, q0)


def normalize_class(p: int, q: int) -> tuple[int, int]:
    """Canonical (p, q) with p > 0 and q in [1, p-1]; mirror is tracked by
    the residue itself (q and p - q are different classes)."""
    if p < 0:
        p, q = -p, -q
    if p < 2:
        raise DomainError("normalize_class needs |p| >= 2")
    q %= p
    if q == 0 or gcd(p, q) != 1:
        raise DomainError(f"invalid 2-bridge pair ({p}, {q})")
    return p, q


def two_bridge_equiv(p1: int, q1: int, p2: int, q2: int) -> bool:
    """Schubert equivalence: same p and q2 = q1 or q1^(-1) mod p."""
    if abs(p1) == 1 or abs(p2) == 1:
        return abs(p1) == abs(p2) == 1  # both unknots
    a = normalize_class(p1, q1)
    b = normalize_class(p2, q2)
    if a[0] != b[0]:
        return False
    p, qa = a
    qb = b[1]
    return qb == qa or (qa * qb) % p == 1


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
