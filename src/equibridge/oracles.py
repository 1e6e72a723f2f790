"""The moth's oracle route: a second computation of the certified moth,
which `verify` and the tests hold it equal to.

It is a gcd reduction in Z[t] that shares no code with
`moth.certified_moth`: `z_to_t` rewrites a Conway polynomial in t, `rf_make`
reduces num / den to canonical form by a primitive pseudo-remainder-sequence
gcd, and `subs_inv_equal` checks symmetry under t -> 1/t, all with their own
small dense multiply.

Only `verify` and the tests load this module; nothing on the `analyze` or
`table` path does, and it imports only `laurent`.  No floating point
anywhere.
"""
from __future__ import annotations

from math import gcd
from typing import Sequence

from .laurent import DomainError, InvariantViolation, RationalFn, TCoeffs, lp


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
