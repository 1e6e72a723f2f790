"""Exact Laurent polynomials in t and z and rational functions in t, as
dense values, with their renderers.

A polynomial in t is a `TCoeffs`: its valuation and its integer
coefficients, low to high, with both ends non-zero; `lp` is the one
normalizer.  A polynomial in z is a `ZCoeffs`, and a rational function the
pair `RationalFn`.  The production path builds these values directly and
renders them; there is no arithmetic on them here.  The moth's second
route, which does arithmetic on them, is in `oracles`.  No command parses
polynomials; the tests' parsers are in `tests/notation.py`.  No floating
point anywhere.

The module also holds what every other module shares: the two error types
and the two helpers that give the package's records value semantics,
`typed_equality` for `NamedTuple` records and `Frozen` for plain classes.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class DomainError(ValueError):
    """Raised when an operation is applied outside its mathematical domain."""


class InvariantViolation(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""


def _same_type_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _same_type_ne(self, other) -> bool:
    return not _same_type_eq(self, other)


def typed_equality(cls):
    """Class decorator for a `NamedTuple` record: it equals only records of
    its own class with equal fields.  Bare tuple equality would also match
    a plain tuple or another record type with the same field values, such
    as `Frac(1, 3)` and `ReducedAxisLinkWitness(1, 3)`.  Hashing stays the
    tuple's."""
    cls.__eq__, cls.__ne__ = _same_type_eq, _same_type_ne
    return cls


class Frozen:
    """Base of the immutable plain-class records.

    A subclass names its value fields in `_fields` and stores its
    attributes in `__init__` with `vars(self).update`; equality, hashing
    and `repr` use the class and the `_fields` values, and assignment or
    deletion of an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


# A polynomial in the skein variable z: its integer coefficients, low to
# high, with trailing zeros trimmed (the zero polynomial is ()).
ZCoeffs = tuple[int, ...]


def zp_to_str(p: Sequence[int]) -> str:
    """Render a polynomial in z, given as coefficients low to high."""
    return lp_to_str((0, p), "z")
