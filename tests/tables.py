"""The Schubert table and its oracle results, built once per test session.

Every table-wide test reads its inputs here instead of enumerating the
table itself:

- `classes(max_p)` maps each Schubert class (p, q) at p <= max_p, in table
  order, to its inversions: inv1, then inv2 when there is one;
- `inversions(max_p)` lists those inversions in the same order;
- `certificates(max_p)` maps each of them to its `order_certificate`;
- `surfaces(max_p)` maps each of them to its knot and butterfly plat
  diagrams and their Seifert matrices.  A matrix is all that
  `seifert_matrix_data` returns: a test reads the circle count off
  `seifert_circles(pd)`, the crossings off `pd.over_a` and the components
  off `pd.component_count()`, or knows them (a knot has one component,
  a butterfly link two).

Each is built once, by `functools.cache`, from the package's functions
unpatched, and each presentation's certificate and surfaces are computed
once for every table that lists it.  Every caller then receives the same
objects, so callers only read them: no test may change a returned dict,
diagram or matrix, and no test may first call one of these inside a
monkeypatch, or the cache would keep what the patched functions returned
for the rest of the session.

`even_expansions(max_p)` lists the same knots by a second route that
shares no code with `schubert_classes`: the tree of all-even expansions.

Hypothesis tests past the table draw their presentations from one
strategy, `presentations(max_n, max_alpha, max_c)`.
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple

from hypothesis import strategies as st

from equibridge.diagrams import OrientedPD, build_knot_diagram, build_lhat_diagram
from equibridge.moth import OrderCertificate, order_certificate
from equibridge.presentations import I1Presentation, inversions_from_fraction
from equibridge.rationals import schubert_classes
from equibridge.seifert import seifert_matrix_data


class Surfaces(NamedTuple):
    """The plat diagrams of a presentation's knot and butterfly link, and
    the Seifert matrix of each."""

    knot_diagram: OrientedPD
    lhat_diagram: OrientedPD
    knot: list[list[int]]
    lhat: list[list[int]]


def surfaces_of(pres: I1Presentation) -> Surfaces:
    """The knot's and the butterfly link's diagrams and Seifert matrices."""
    knot, lhat = build_knot_diagram(pres), build_lhat_diagram(pres)
    return Surfaces(knot, lhat, seifert_matrix_data(knot), seifert_matrix_data(lhat))


_certificate = cache(order_certificate)
_surfaces = cache(surfaces_of)


@cache
def classes(max_p: int) -> dict[tuple[int, int], tuple[I1Presentation, ...]]:
    return {(p, q): tuple(filter(None, inversions_from_fraction(p, q)[:2]))
            for p, q in schubert_classes(max_p)}


@cache
def inversions(max_p: int) -> tuple[I1Presentation, ...]:
    return tuple(pres for pair in classes(max_p).values() for pres in pair)


@cache
def certificates(max_p: int) -> dict[I1Presentation, OrderCertificate]:
    return {pres: _certificate(pres) for pres in inversions(max_p)}


@cache
def surfaces(max_p: int) -> dict[I1Presentation, Surfaces]:
    return {pres: _surfaces(pres) for pres in inversions(max_p)}


def even_expansions(max_p: int) -> frozenset[tuple[int, ...]]:
    """Every even-length continued fraction of even entries, |e| >= 2, with
    numerator |p| <= max_p, by a depth-first walk that extends a prefix
    while its left-to-right continuant stays within the bound.

    The prefix numerators p_k = e_k p_(k-1) + p_(k-2), from p_0 = 1 and
    p_(-1) = 0, grow strictly in absolute value, and for a fixed prefix
    |p_k| grows with |e_k|, so each branch stops at its first entry past
    the bound.  No Schubert arithmetic is used."""
    found = set()

    def walk(prefix: list[int], p: int, p_prev: int) -> None:
        if prefix and len(prefix) % 2 == 0:
            found.add(tuple(prefix))
        for step in (2, -2):
            e = step
            while abs(e * p + p_prev) <= max_p:
                prefix.append(e)
                walk(prefix, e * p + p_prev, p)
                prefix.pop()
                e += step

    walk([], 1, 0)
    return frozenset(found)


def presentations(max_n: int, max_alpha: int, max_c: int) -> st.SearchStrategy:
    """Presentations of 1 to max_n twist pairs, each alpha even and non-zero
    with |alpha| <= max_alpha, each c non-zero with |c| <= max_c."""
    half = max_alpha // 2
    alpha = st.integers(-half, half).filter(bool).map(lambda h: 2 * h)
    c = st.integers(-max_c, max_c).filter(bool)
    return st.integers(1, max_n).flatmap(lambda n: st.builds(
        I1Presentation, st.tuples(*[alpha] * n), st.tuples(*[c] * n)))
