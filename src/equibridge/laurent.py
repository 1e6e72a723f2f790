"""Exact Laurent-polynomial and rational-function arithmetic in one variable.

Coefficients are arbitrary-precision integers and every operation stays in
the integers: the only evaluation is at t = 1, a coefficient sum, and
rational functions are reduced in Z[t] by a primitive
pseudo-remainder-sequence gcd and exact integer division.  No floating point
anywhere.
"""
from __future__ import annotations

import re
from math import gcd
from typing import Iterable, Mapping, Sequence


class DomainError(ValueError):
    """Raised when an operation is applied outside its mathematical domain."""


class InvariantViolation(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""


def _clean(coeffs: Mapping[int, int]) -> dict[int, int]:
    return {e: c for e, c in coeffs.items() if c != 0}


class LaurentPoly:
    """An element of Z[t, 1/t], stored as {exponent: coefficient}, zeros absent."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c = _clean(coeffs) if coeffs else {}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def is_zero(self) -> bool:
        return not self._c

    def support(self) -> list[int]:
        return sorted(self._c)

    def degree(self) -> int:
        if not self._c:
            raise DomainError("zero polynomial has no degree")
        return max(self._c)

    def valuation(self) -> int:
        if not self._c:
            raise DomainError("zero polynomial has no valuation")
        return min(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.const(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def subs_inv(self) -> "LaurentPoly":
        """Substitute t -> 1/t, i.e. reverse all exponents."""
        return LaurentPoly({-e: c for e, c in self._c.items()})

    def value_at_one(self) -> int:
        """f(1), the sum of the coefficients."""
        return sum(self._c.values())

    def __repr__(self) -> str:
        return f"LaurentPoly({lp_to_str(self)!r})"

    def __str__(self) -> str:
        return lp_to_str(self)


def lp_is_eta_admissible(f: LaurentPoly) -> bool:
    """True iff f(t) = f(1/t) and f(1) = 0."""
    return f == f.subs_inv() and f.value_at_one() == 0


def lp_to_str(f: LaurentPoly) -> str:
    """Render as sorted terms, e.g. 't^-1 - 2 + t'."""
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for e in f.support():
        c = f.coeff(e)
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            tpow = "t" if e == 1 else f"t^{e}"
            body = tpow if mag == 1 else f"{mag}*{tpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:"
    r"(?P<coeff>\d+)\s*\*?\s*t(?:\^(?P<exp1>-?\d+))?"
    r"|t(?:\^(?P<exp2>-?\d+))?"
    r"|(?P<const>\d+)"
    r")"
)


def lp_parse(text: str) -> LaurentPoly:
    """Parse the rendering produced by lp_to_str."""
    out: dict[int, int] = {}
    pos = 0
    s = text.strip()
    if not s:
        raise DomainError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None:
            raise DomainError(f"cannot parse polynomial at {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("const") is not None:
            e, mag = 0, int(m.group("const"))
        else:
            mag = int(m.group("coeff")) if m.group("coeff") else 1
            exp = m.group("exp1") or m.group("exp2")
            e = int(exp) if exp is not None else 1
        out[e] = out.get(e, 0) + sign * mag
        pos = m.end()
        while pos < len(s) and s[pos] == " ":
            pos += 1
    return LaurentPoly(out)


# A polynomial in the skein variable z: its integer coefficients, low to
# high, with trailing zeros trimmed (the zero polynomial is ()).
ZCoeffs = tuple[int, ...]


def zp_to_str(p: Sequence[int]) -> str:
    """Render a polynomial in z, given as coefficients low to high."""
    return lp_to_str(LaurentPoly(dict(enumerate(p)))).replace("t", "z")


def zp_parse(text: str) -> ZCoeffs:
    """Parse the rendering of zp_to_str into trimmed coefficients."""
    f = lp_parse(text.replace("z", "t"))
    if f.is_zero():
        return ()
    if f.valuation() < 0:
        raise DomainError("negative power of z")
    return tuple(f.coeff(e) for e in range(f.degree() + 1))


def z_to_t(p: Sequence[int]) -> LaurentPoly:
    """Rewrite an even polynomial in z (coefficients low to high) as a
    Laurent polynomial in t.

    The square of the skein variable satisfies z**2 = 2 - t - 1/t, so only
    even powers of z have an image.  Odd exponents are rejected rather than
    introducing half-integer powers of t.
    """
    if any(p[1::2]):
        raise DomainError("z_to_t requires even exponents only")
    zsq = LaurentPoly({0: 2, 1: -1, -1: -1})
    out = LaurentPoly.zero()
    power = LaurentPoly.const(1)
    for c in p[0::2]:
        if c:
            out = out + power * c
        power = power * zsq
    return out


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of dense integer lists (low to high, b trimmed).

    Returns (q, r, k) with k*a == q*b + r and deg r < deg b.  The dividend
    is scaled by lc(b) only when a leading coefficient is not divisible by
    it, so k == 1 exactly when the division ran in Z[t].
    """
    lead = b[-1]
    q = [0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    k = 1
    while len(r) >= len(b):
        c, rem = divmod(r[-1], lead)
        if rem:
            c = r[-1]
            k *= lead
            q = [x * lead for x in q]
            r = [x * lead for x in r]
        shift = len(r) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
    return q, r, k


def _primitive(p: list[int]) -> list[int]:
    """Divide out the content and make the leading coefficient positive."""
    if not p:
        return p
    c = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [x // c for x in p]


def _poly_gcd_z(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[t], positive leading coefficient, of dense lists
    (low to high): a pseudo-remainder sequence made primitive at each step."""
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return _primitive(a)


def _lp_to_dense(f: LaurentPoly) -> tuple[int, list[int]]:
    """Return (valuation, dense coefficient list low-to-high), val 0 for zero."""
    if f.is_zero():
        return 0, []
    v = f.valuation()
    d = f.degree()
    return v, [f.coeff(e) for e in range(v, d + 1)]


def _dense_to_lp(val: int, dense: Iterable[int]) -> LaurentPoly:
    return LaurentPoly({val + i: c for i, c in enumerate(dense)})


class RationalFn:
    """A quotient of Laurent polynomials in canonical form.

    Canonical form: the denominator is an ordinary polynomial with non-zero
    constant term, positive leading coefficient, and the pair (num, den) is
    coprime over Q[t] with joint integer content 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        # Use rf_make or moth.certified_moth; this constructor trusts its
        # arguments.
        self.num = num
        self.den = den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = rf_make(LaurentPoly.const(other), LaurentPoly.const(1))
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def subs_inv_equal(self) -> bool:
        """True iff the function is invariant under t -> 1/t."""
        lhs = self.num.subs_inv() * self.den
        rhs = self.num * self.den.subs_inv()
        return lhs == rhs

    def __repr__(self) -> str:
        return f"RationalFn({lp_to_str(self.num)!r}, {lp_to_str(self.den)!r})"

    def __str__(self) -> str:
        if self.den == LaurentPoly.const(1):
            return lp_to_str(self.num)
        return f"({lp_to_str(self.num)}) / ({lp_to_str(self.den)})"


def rf_make(num: LaurentPoly, den: LaurentPoly) -> RationalFn:
    """Build a RationalFn in canonical form; exact gcd reduction in Z[t]."""
    if den.is_zero():
        raise DomainError("rational function with zero denominator")
    if num.is_zero():
        return RationalFn(LaurentPoly.zero(), LaurentPoly.const(1))
    nv, ni = _lp_to_dense(num)
    dv, di = _lp_to_dense(den)
    g = _poly_gcd_z(ni, di)
    if len(g) > 1:
        # g is primitive, so by Gauss's lemma both quotients are integral.
        ni, nr, nk = _pdivmod(ni, g)
        di, dr, dk = _pdivmod(di, g)
        if nr or dr or nk != 1 or dk != 1:
            raise InvariantViolation("gcd does not divide its arguments")
    joint = gcd(*ni, *di)
    if joint > 1:
        ni = [c // joint for c in ni]
        di = [c // joint for c in di]
    # Move all powers of t into the numerator: den gets constant term != 0.
    na = next(i for i, c in enumerate(ni) if c != 0)
    db = next(i for i, c in enumerate(di) if c != 0)
    ni, di = ni[na:], di[db:]
    num_val = (nv - dv) + na - db
    if di[-1] < 0:
        ni = [-c for c in ni]
        di = [-c for c in di]
    return RationalFn(_dense_to_lp(num_val, ni), _dense_to_lp(0, di))
