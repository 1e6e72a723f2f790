"""Exact Laurent polynomials in t and rational functions, as dense values.

A polynomial in t is a `TCoeffs`: its valuation and its integer
coefficients, low to high, with both ends non-zero; `lp` is the one
normalizer.  The production path builds these values directly and renders
them; there is no arithmetic on them here.  The oracles `z_to_t` and
`rf_make` compute the moth a second way, and `subs_inv_equal` checks its
symmetry, with their own small dense multiply and a primitive
pseudo-remainder-sequence gcd in Z[t], so they share no code with
`moth.certified_moth`.  No floating point anywhere.
"""
from __future__ import annotations

import re
from math import gcd
from typing import Iterable, NamedTuple, Sequence


class DomainError(ValueError):
    """Raised when an operation is applied outside its mathematical domain."""


class InvariantViolation(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""


class TCoeffs(NamedTuple):
    """sum cs[i] * t^(val + i); cs has non-zero ends, and zero is (0, ())."""

    val: int
    cs: tuple[int, ...]


class RationalFn(NamedTuple):
    """num / den in canonical form: den an ordinary polynomial with non-zero
    constant term and positive leading coefficient, the pair coprime over
    Q[t] with joint integer content 1."""

    num: TCoeffs
    den: TCoeffs


def lp(val: int, cs: Iterable[int]) -> TCoeffs:
    """The polynomial sum cs[i] * t^(val + i), with both ends trimmed."""
    cs = tuple(cs)
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not cs[lo]:
        lo += 1
    if lo == hi:
        return TCoeffs(0, ())
    return TCoeffs(val + lo, cs[lo:hi])


def lp_is_eta_admissible(f: TCoeffs) -> bool:
    """True iff f(t) = f(1/t) and f(1) = 0."""
    val, cs = f
    return (cs == cs[::-1] and (not cs or 2 * val == 1 - len(cs))
            and sum(cs) == 0)


def lp_to_str(f: TCoeffs, var: str = "t") -> str:
    """Render as terms in increasing degree, e.g. 't^-1 - 2 + t'."""
    val, cs = f
    parts: list[str] = []
    for e, c in enumerate(cs, val):
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            tpow = var if e == 1 else f"{var}^{e}"
            body = tpow if mag == 1 else f"{mag}*{tpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:"
    r"(?P<coeff>\d+)\s*\*?\s*t(?:\^(?P<exp1>-?\d+))?"
    r"|t(?:\^(?P<exp2>-?\d+))?"
    r"|(?P<const>\d+)"
    r")"
)


def lp_parse(text: str) -> TCoeffs:
    """Parse the rendering produced by lp_to_str."""
    out: dict[int, int] = {}
    pos = 0
    s = text.strip()
    if not s:
        raise DomainError("empty polynomial text")
    if s == "0":
        return TCoeffs(0, ())
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
    lo = min(out)
    return lp(lo, (out.get(e, 0) for e in range(lo, max(out) + 1)))


# A polynomial in the skein variable z: its integer coefficients, low to
# high, with trailing zeros trimmed (the zero polynomial is ()).
ZCoeffs = tuple[int, ...]


def zp_to_str(p: Sequence[int]) -> str:
    """Render a polynomial in z, given as coefficients low to high."""
    return lp_to_str((0, p), "z")


def zp_parse(text: str) -> ZCoeffs:
    """Parse the rendering of zp_to_str into trimmed coefficients."""
    val, cs = lp_parse(text.replace("z", "t"))
    if val < 0:
        raise DomainError("negative power of z")
    return (0,) * val + cs if cs else ()


def _pmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of dense coefficient lists, low to high."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def z_to_t(p: Sequence[int]) -> TCoeffs:
    """Rewrite an even polynomial in z (coefficients low to high) as a
    Laurent polynomial in t.

    The square of the skein variable satisfies z**2 = 2 - t - 1/t, so only
    even powers of z have an image.  Odd exponents are rejected rather than
    introducing half-integer powers of t.
    """
    if any(p[1::2]):
        raise DomainError("z_to_t requires even exponents only")
    half = p[0::2]
    top = len(half) - 1
    out = [0] * (2 * top + 1)
    power = [1]  # (z^2)^k, dense from t^-k
    for k, c in enumerate(half):
        for i, x in enumerate(power):
            out[top - k + i] += c * x
        power = _pmul(power, (-1, 2, -1))
    return lp(-top, out)


def subs_inv_equal(r: RationalFn) -> bool:
    """True iff r(1/t) = r(t), that is num(1/t) den(t) = num(t) den(1/t)."""
    (nv, n), (dv, d) = r
    # f(1/t) has the coefficients of f reversed, from t^-(val + len - 1).
    lhs = lp(dv - nv - len(n) + 1, _pmul(n[::-1], d))
    rhs = lp(nv - dv - len(d) + 1, _pmul(n, d[::-1]))
    return lhs == rhs


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


def rf_make(num: TCoeffs, den: TCoeffs) -> RationalFn:
    """num / den in canonical form, by exact gcd reduction in Z[t]; both
    arguments must be normal, as `lp` returns them."""
    (nv, ni), (dv, di) = num, den
    if not di:
        raise DomainError("rational function with zero denominator")
    if not ni:
        return RationalFn(TCoeffs(0, ()), TCoeffs(0, (1,)))
    ni, di = list(ni), list(di)
    g = _poly_gcd_z(ni, di)
    if len(g) > 1:
        # g is primitive, so by Gauss's lemma both quotients are integral.
        ni, nr, nk = _pdivmod(ni, g)
        di, dr, dk = _pdivmod(di, g)
        if nr or dr or nk != 1 or dk != 1:
            raise InvariantViolation("gcd does not divide its arguments")
    joint = gcd(*ni, *di)
    if di[-1] < 0:
        joint = -joint
    # Both constant terms are non-zero, and stay so after dividing by g:
    # every power of t goes into the numerator.
    return RationalFn(TCoeffs(nv - dv, tuple(c // joint for c in ni)),
                      TCoeffs(0, tuple(c // joint for c in di)))
