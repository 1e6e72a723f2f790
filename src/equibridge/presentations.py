"""Twist-box presentations of directed strongly invertible 2-bridge knots.

A presentation I1(a1,...,an; c1,...,cn) encodes a 2-bridge knot with a chosen
strong inversion and direction: the knot is the 4-plat of the continued
fraction [a1, -2*c1, ..., an, -2*cn].  The a_i are even and non-zero, the
c_i non-zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .laurent import DomainError, InvariantViolation, ZCoeffs
from .rationals import Frac, EvenCF, _int_field, eval_cf, even_cf, two_bridge_equiv


class ParseError(DomainError):
    """Input text failed validation; carries a human-readable position."""


@dataclass(frozen=True)
class I1Presentation:
    """Twist parameters plus the derived quantities used by every invariant.

    sigma[i] is half the partial sum of the alphas (an integer), b is the
    full sum, delta[i] is c_i mod 2, and eps[i] is the suffix product of
    (-1)**delta[j] for j >= i.
    """

    alphas: tuple[int, ...]
    cs: tuple[int, ...]
    sigma: tuple[int, ...] = field(init=False)
    b: int = field(init=False)
    delta: tuple[int, ...] = field(init=False)
    eps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.alphas) == 0:
            raise ParseError("presentation needs at least one twist pair")
        if len(self.alphas) != len(self.cs):
            raise ParseError(
                f"length mismatch: {len(self.alphas)} alphas vs {len(self.cs)} cs"
            )
        for i, a in enumerate(self.alphas):
            if a == 0 or a % 2 != 0:
                raise ParseError(f"alpha[{i + 1}] = {a} must be even and non-zero")
        for i, c in enumerate(self.cs):
            if c == 0:
                raise ParseError(f"c[{i + 1}] must be non-zero")
        run = 0
        sig = []
        for a in self.alphas:
            run += a
            sig.append(run // 2)
        object.__setattr__(self, "sigma", tuple(sig))
        object.__setattr__(self, "b", run)
        object.__setattr__(self, "delta", tuple(c % 2 for c in self.cs))
        eps = [1] * len(self.cs)
        acc = 1
        for i in range(len(self.cs) - 1, -1, -1):
            acc *= -1 if self.delta[i] == 1 else 1
            eps[i] = acc
        object.__setattr__(self, "eps", tuple(eps))

    @property
    def n(self) -> int:
        return len(self.alphas)

    def knot_cf(self) -> list[int]:
        """The continued fraction [a1, -2c1, ..., an, -2cn] of the knot."""
        out: list[int] = []
        for a, c in zip(self.alphas, self.cs):
            out.append(a)
            out.append(-2 * c)
        return out

    def butterfly_cf(self) -> list[int]:
        """The knot continued fraction with the balancing -b entry appended."""
        return self.knot_cf() + [-self.b]

    # Evaluated on first use and kept, so every invariant of one
    # presentation shares a single evaluation of each fraction.
    @cached_property
    def knot_fraction(self) -> Frac:
        return eval_cf(self.knot_cf())

    @cached_property
    def butterfly_fraction(self) -> Frac:
        return eval_cf(self.butterfly_cf())

    def __str__(self) -> str:
        return (
            "I1("
            + ",".join(str(a) for a in self.alphas)
            + ";"
            + ",".join(str(c) for c in self.cs)
            + ")"
        )


def parse_i1(text: str) -> I1Presentation:
    """Parse 'a1,a2,...;c1,c2,...' (an optional I1(...) wrapper is allowed)."""
    body = text.strip()
    if body.startswith("I1(") and body.endswith(")"):
        body = body[3:-1]
    if ";" not in body:
        raise ParseError("expected ';' separating alphas from cs")
    a_part, c_part = body.split(";", 1)
    try:
        alphas = tuple(_int_field(tok, f"alpha[{i}]")
                       for i, tok in enumerate(a_part.split(","), start=1))
        cs = tuple(_int_field(tok, f"c[{i}]")
                   for i, tok in enumerate(c_part.split(","), start=1))
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    return I1Presentation(alphas, cs)


def knot_fraction(pres: I1Presentation) -> Frac:
    """Fraction of the underlying 2-bridge knot."""
    return pres.knot_fraction


def butterfly_fraction(pres: I1Presentation) -> Frac:
    """Fraction of the 2-bridge link obtained by the balancing band move.

    Evaluated projectively so a trailing zero entry (b = 0) is absorbed.
    """
    return pres.butterfly_fraction


def _trimmed(p: list[int]) -> ZCoeffs:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def continuant_row(entries: Sequence[int], sign: int) -> tuple[ZCoeffs, ZCoeffs]:
    """(K(x1..xm), K(x1..x(m-1))) for the entries of an even continued
    fraction, x_i = sign*(e_i/2)*z at odd positions i and -sign*(e_i/2)*z
    at even ones.

    Both are `ZCoeffs`.  The loop runs the recurrence
    (K_i, K_(i-1)) = (x_i K_(i-1) + K_(i-2), K_(i-1)) from (K_0, K_(-1)) = (1, 0).
    """
    cur: list[int] = [1]
    prev: list[int] = []
    for i, e in enumerate(entries):
        if e % 2:
            raise DomainError(f"continued-fraction entry {e} is odd")
        h = (sign if i % 2 == 0 else -sign) * (e // 2)
        nxt = [0] + [h * c for c in cur]
        for k, c in enumerate(prev):
            nxt[k] += c
        cur, prev = nxt, cur
    return _trimmed(cur), _trimmed(prev)


def continuant_matrix(entries: Sequence[int],
                      sign: int) -> tuple[tuple[ZCoeffs, ZCoeffs], ...]:
    """The product of [[x_i, 1], [1, 0]] over the entries, x_i as in
    `continuant_row`.

    The first row is (K(x1..xm), K(x1..x(m-1))), the second
    (K(x2..xm), K(x2..x(m-1))), the row of the entries after the first.
    The determinant is (-1)^m, so consecutive continuants are coprime
    (Graham-Knuth-Patashnik, Concrete Mathematics, 6.7).
    """
    if not entries:
        return ((1,), ()), ((), (1,))  # the empty product
    return continuant_row(entries, sign), continuant_row(entries[1:], -sign)


def conway_continuant(entries: Sequence[int], sign: int) -> ZCoeffs:
    """Conway polynomial of the 2-bridge link of an even continued fraction.

    It is the continuant K(sign*e1*z/2, -sign*e2*z/2, sign*e3*z/2, ...)
    (Koseleff-Pecker, J. Symbolic Comput. 2015): sign +1 for a knot's
    fraction, -1 for the band-coherently oriented butterfly link.
    """
    return continuant_row(entries, sign)[0]


@dataclass(frozen=True)
class InversionPair:
    """The one or two strong-inversion presentations of a 2-bridge knot."""

    inv1: I1Presentation
    inv2: Optional[I1Presentation]
    source: Frac
    expansion: EvenCF


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
    """Build the strong-inversion presentations of K(p, q).

    inv1 comes from the even continued fraction of p/q; inv2 from the
    reversed-and-negated expansion.  When the two coincide entry-wise the
    knot admits a single strong inversion and inv2 is omitted.
    """
    src = Frac.make(p, q)
    ecf = even_cf(src)
    inv1 = presentation_from_cf(ecf.entries)
    rev = [-e for e in reversed(ecf.entries)]
    inv2: Optional[I1Presentation] = presentation_from_cf(rev)
    if inv2.alphas == inv1.alphas and inv2.cs == inv1.cs:
        inv2 = None
    for inv in (inv1,) + ((inv2,) if inv2 else ()):
        kf = knot_fraction(inv)
        pp, qq = kf.positive_numerator()
        if not two_bridge_equiv(pp, qq, p, q):
            raise InvariantViolation(f"builder produced a wrong knot: {inv} -> {kf}")
    return InversionPair(inv1, inv2, src, ecf)
