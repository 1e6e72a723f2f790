"""Parsers for the rendered polynomials of `equibridge.laurent`.

`lp_parse` reads back what `lp_to_str` writes, and `zp_parse` what
`zp_to_str` writes, so the tests can state polynomials as text and read
report fields.  No command parses polynomials, so these live beside the
tests and not in the package.
"""
from __future__ import annotations

import re

from equibridge.laurent import DomainError, TCoeffs, ZCoeffs, lp

_TERM = re.compile(
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
        m = _TERM.match(s, pos)
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


def zp_parse(text: str) -> ZCoeffs:
    """Parse the rendering of zp_to_str into trimmed coefficients."""
    val, cs = lp_parse(text.replace("z", "t"))
    if val < 0:
        raise DomainError("negative power of z")
    return (0,) * val + cs if cs else ()
