"""Oracle routes: second computations of what the production path computes,
which `verify` and the tests hold it equal to.

The moth's route is a gcd reduction in Z[t] that shares no code with
`moth.certified_moth`: `z_to_t` rewrites a Conway polynomial in t, `rf_make`
reduces num / den to canonical form by a primitive pseudo-remainder-sequence
gcd, and `subs_inv_equal` checks symmetry under t -> 1/t, all with their own
small dense multiply.

The expanded covering strip is the reference for `strip.eta_oracle`, with
which it shares only the walk's run records, `strip._walk_runs`.
`build_strip` expands the records into every arc and crossing,
`label_strip` labels the arcs one by one, `strip_census` and
`eta_from_strip` read eta off the labels, and `print_strip` and
`parse_strip` are the text format that `oracle eta --strip` reads.  A strip
parsed from a file is outside input, so a malformed one raises
`StripError`, a `DomainError`.

Only `verify`, `oracle eta` and the tests load this module; nothing on the
`analyze` or `table` path does, and it imports nothing from `butterfly` or
`moth`.  No floating point anywhere.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Sequence

from . import strip
from .laurent import (DomainError, Frozen, InvariantViolation, RationalFn, TCoeffs,
                      lp, typed_equality)
from .presentations import I1Presentation
from .rationals import _int_field
from .strip import BOTTOM, RAIL, TOP, _vanishing_at_one


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


# ---------------------------------------------------------------------------
# The expanded covering strip: every arc and crossing of `strip._walk_runs`,
# its label walk, its census and its text format.
# ---------------------------------------------------------------------------


class StripError(DomainError):
    """Malformed strip diagram."""


@typed_equality
class Endpoint(NamedTuple):
    edge: str
    slot: int

    def opposite(self) -> "Endpoint":
        return Endpoint(BOTTOM if self.edge == TOP else TOP, self.slot)

    def __str__(self) -> str:
        return f"{self.edge}:{self.slot}"


@typed_equality
class Arc(NamedTuple):
    ident: int
    first: Endpoint
    second: Endpoint
    role: str = ""


@typed_equality
class Crossing(NamedTuple):
    over: int
    under: int
    listed_sign: int  # sign if both arcs run first -> second endpoint


class StripDiagram(Frozen):
    """A validated strip.  start_forward says whether the walk traverses
    the start arc first -> second."""

    _fields = ("slots", "arcs", "crossings", "start_arc", "start_forward")

    def __init__(self, slots: int, arcs: tuple[Arc, ...],
                 crossings: tuple[Crossing, ...], start_arc: int,
                 start_forward: bool):
        seen: dict[tuple[str, int], int] = {}
        ids = set()
        for arc in arcs:
            if arc.ident in ids:
                raise StripError(f"duplicate arc id {arc.ident}")
            ids.add(arc.ident)
            for ep in (arc.first, arc.second):
                if ep.edge not in (TOP, BOTTOM):
                    raise StripError(f"bad edge {ep.edge!r}")
                if not 1 <= ep.slot <= slots:
                    raise StripError(f"slot {ep.slot} out of range 1..{slots}")
                key = (ep.edge, ep.slot)
                if key in seen:
                    raise StripError(
                        f"slot {ep.slot} used twice on the {ep.edge} edge"
                    )
                seen[key] = arc.ident
        for edge in (TOP, BOTTOM):
            for s in range(1, slots + 1):
                if (edge, s) not in seen:
                    raise StripError(f"slot {s} unused on the {edge} edge")
        for cr in crossings:
            if cr.over not in ids or cr.under not in ids:
                raise StripError(
                    f"crossing references unknown arc ({cr.over}, {cr.under})"
                )
            if cr.listed_sign not in (1, -1):
                raise StripError(f"crossing sign must be +-1, got {cr.listed_sign}")
        if start_arc not in ids:
            raise StripError(f"start arc {start_arc} does not exist")
        vars(self).update(slots=slots, arcs=arcs, crossings=crossings,
                          start_arc=start_arc, start_forward=start_forward)


@typed_equality
class LabeledStrip(NamedTuple):
    diagram: StripDiagram
    labels: dict[int, int]
    forward: dict[int, bool]  # traversal is first -> second?


def label_strip(d: StripDiagram) -> LabeledStrip:
    """Walk the strip from the start arc, labelling each arc by its deck
    translate: +1 when re-entering from the lower edge, -1 from the upper."""
    by_endpoint: dict[tuple[str, int], tuple[Arc, bool]] = {}
    for arc in d.arcs:
        by_endpoint[(arc.first.edge, arc.first.slot)] = (arc, True)
        by_endpoint[(arc.second.edge, arc.second.slot)] = (arc, False)
        if arc.ident == d.start_arc:
            start = arc
    labels: dict[int, int] = {start.ident: 0}
    forward: dict[int, bool] = {start.ident: d.start_forward}
    current, fwd, label = start, d.start_forward, 0
    steps = 0
    while True:
        steps += 1
        if steps > 2 * len(d.arcs) + 2:
            raise StripError("label walk does not close")
        end = current.second if fwd else current.first
        entry = end.opposite()
        current, fwd = by_endpoint[(entry.edge, entry.slot)]
        label += 1 if entry.edge == BOTTOM else -1
        if current.ident in labels:
            if current.ident != d.start_arc or fwd != d.start_forward:
                raise StripError("label walk closes before visiting every arc")
            if label != 0:
                raise StripError(f"label walk closes with net shift {label}")
            break
        labels[current.ident] = label
        forward[current.ident] = fwd
    if len(labels) != len(d.arcs):
        raise StripError("label walk does not visit every arc")
    return LabeledStrip(d, labels, forward)


def strip_census(ls: LabeledStrip) -> list[tuple[int, int, int, int]]:
    """Per crossing: (over_arc, under_arc, effective_sign, d)."""
    out = []
    for cr in ls.diagram.crossings:
        eps = cr.listed_sign
        if not ls.forward[cr.over]:
            eps = -eps
        if not ls.forward[cr.under]:
            eps = -eps
        d = ls.labels[cr.over] - ls.labels[cr.under]
        out.append((cr.over, cr.under, eps, d))
    return out


def eta_from_strip(ls: LabeledStrip) -> TCoeffs:
    """Signed census of non-zero label differences, normalised to vanish at 1."""
    census = strip_census(ls)
    top = max((abs(d) for *_, d in census), default=0)
    out = [0] * (2 * top + 1)
    for _, _, eps, d in census:
        out[top + d] += eps
    return _vanishing_at_one(top, out)


def build_strip(pres: I1Presentation) -> StripDiagram:
    """Strip diagram of the butterfly link's fundamental domain: every arc
    and crossing of `_walk_runs`, each arc entering opposite the previous
    arc's exit and leaving by a fresh slot."""
    runs = strip._walk_runs(pres)
    total = sum(run[1] for run in runs)
    arcs: list[Arc] = []
    crossings: list[Crossing] = []
    entry, slot = Endpoint(TOP, 1), 2
    for role, count, edge, rail_sign, c, drop_sign in runs:
        for _ in range(count):
            ident = len(arcs) + 1
            if ident == total:
                exit_ep = Endpoint(edge, 1)
            else:
                exit_ep, slot = Endpoint(edge, slot), slot + 1
            arcs.append(Arc(ident, entry, exit_ep, role))
            entry = exit_ep.opposite()
            if rail_sign:
                crossings.append(Crossing(ident, RAIL, rail_sign))
        if c:
            sign = 1 if c > 0 else -1
            crossings += [Crossing(ident, RAIL, sign),
                          Crossing(RAIL, ident, sign)] * abs(c)
        if drop_sign:
            crossings.append(Crossing(ident, RAIL, drop_sign))
    return StripDiagram(
        slots=slot - 1,
        arcs=tuple(arcs),
        crossings=tuple(crossings),
        start_arc=RAIL,
        start_forward=True,
    )


# ---------------------------------------------------------------------------
# Text serialization.
# ---------------------------------------------------------------------------


def print_strip(d: StripDiagram) -> str:
    lines = [f"slots {d.slots}"]
    for arc in d.arcs:
        role = f" {arc.role.replace(' ', '_')}" if arc.role else ""
        lines.append(f"arc {arc.ident} {arc.first} {arc.second}{role}")
    for cr in d.crossings:
        lines.append(f"cross {cr.over} {cr.under} {'+1' if cr.listed_sign > 0 else '-1'}")
    lines.append(f"start {d.start_arc} {'fwd' if d.start_forward else 'rev'}")
    return "\n".join(lines) + "\n"


def _parse_endpoint(tok: str, lineno: int) -> Endpoint:
    if ":" not in tok:
        raise StripError(f"line {lineno}: expected edge:slot, got {tok!r}")
    edge, _, slot = tok.partition(":")
    if edge not in (TOP, BOTTOM):
        raise StripError(f"line {lineno}: unknown edge {edge!r}")
    try:
        return Endpoint(edge, _int_field(slot, "slot"))
    except DomainError:
        raise StripError(f"line {lineno}: bad slot {slot!r}") from None


def parse_strip(text: str) -> StripDiagram:
    """Parse the strip-code format emitted by print_strip."""
    slots = None
    arcs: list[Arc] = []
    crossings: list[Crossing] = []
    start: Optional[tuple[int, bool]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        try:
            if kind == "slots":
                slots = _int_field(toks[1], "slots")
            elif kind == "arc":
                ident = _int_field(toks[1], "arc id")
                first = _parse_endpoint(toks[2], lineno)
                second = _parse_endpoint(toks[3], lineno)
                role = toks[4].replace("_", " ") if len(toks) > 4 else ""
                arcs.append(Arc(ident, first, second, role))
            elif kind == "cross":
                crossings.append(Crossing(*(_int_field(toks[i], "crossing field")
                                            for i in (1, 2, 3))))
            elif kind == "start":
                if toks[2] not in ("fwd", "rev"):
                    raise StripError(f"line {lineno}: direction must be fwd or rev")
                start = (_int_field(toks[1], "start arc"), toks[2] == "fwd")
            else:
                raise StripError(f"line {lineno}: unknown directive {kind!r}")
        except StripError:
            raise
        except (IndexError, DomainError) as exc:
            raise StripError(f"line {lineno}: malformed {kind!r} line") from exc
    if slots is None:
        raise StripError("missing 'slots' line")
    if start is None:
        raise StripError("missing 'start' line")
    return StripDiagram(slots, tuple(arcs), tuple(crossings), start[0], start[1])
