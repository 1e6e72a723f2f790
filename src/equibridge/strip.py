"""Independent oracle for the butterfly polynomial.

The butterfly link of a presentation has unknotted components, so its pairing
polynomial can be read off a fundamental domain of the infinite cyclic cover
of one component's complement: a strip whose top and bottom edges are
identified slot by slot.  Arcs are labelled by a walk (the label tracks which
deck translate the arc belongs to), every crossing contributes
sign * t^(label(over) - label(under)), and the constant term is fixed by
requiring the total to vanish at t = 1.

A presentation's strip is encoded once, as the walk that builds it: O(n) run
records, one per group of vertical arcs, one per box arc with its 2|c|
crossings, and a few for the final return group.  `build_strip` expands the
runs into the full `StripDiagram`, which `label_strip`, `strip_census`,
`print_strip` and `oracle eta` read arc by arc.  `eta_oracle` walks the
runs directly, at a cost linear in the twist pairs plus the degree of eta,
and the tests hold it equal to the labelled full strip.

This code path shares no arithmetic with the closed-form formula beyond the
Laurent-polynomial ring itself, and imports nothing from `butterfly`.
"""
from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from .laurent import DomainError, Frozen, TCoeffs, lp, typed_equality
from .presentations import I1Presentation

TOP = "top"
BOTTOM = "bottom"


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


def _vanishing_at_one(top: int, out: list[int]) -> TCoeffs:
    """The polynomial sum out[i] * t^(i - top), its constant term replaced
    so that it vanishes at t = 1; this overwrites the d = 0 terms."""
    out[top] -= sum(out)
    return lp(-top, out)


# ---------------------------------------------------------------------------
# The walk of a presentation's strip, as run records, and its two readers.
# ---------------------------------------------------------------------------

# Every crossing is between the rail (arc 1, label 0) and another arc.
RAIL = 1


def _walk_runs(pres: I1Presentation) -> list[tuple[str, int, str, int, int, int]]:
    """The fundamental-domain strip of a presentation's butterfly link, as
    the walk that builds it.

    The label-0 rail enters at the top right and runs leftward through one
    box of 2|c_i| crossings per twist pair.  Group i consists of |alpha_i|/2
    arcs riding between the edges (the last one feeds box i); vertical arcs
    pass over the rail, one crossing each.  After box n a return group of
    |sigma_n| + 1 arcs brings the walk back to the rail's start: the last
    arc leaves by the bottom edge's slot 1, opposite the rail's entry.

    One plain tuple per run of arcs, in walk order and none empty:
    (role, count, exit_edge, rail_sign, c, drop_sign).  Each of the count
    arcs leaves by exit_edge and, when rail_sign is non-zero, passes over
    the rail once with that sign.  A box arc is a run of one with c != 0:
    after its riser, if any, it meets the rail in 2|c| crossings, alternately
    over and under; the strands are anti-parallel, so every one has sign
    sign(c).  It then crosses the rail once more with drop_sign when that is
    non-zero.
    """
    alphas, cs, n = pres.alphas, pres.cs, pres.n
    runs = [("rail", 1, TOP if alphas[0] > 0 else BOTTOM, 0, 0, 0)]
    for i in range(n):
        up = alphas[i] > 0
        h = abs(alphas[i]) // 2
        if h > 1:
            runs.append((f"group {i + 1} vertical", h - 1, TOP if up else BOTTOM,
                         1 if up else -1, 0, 0))
        exit_edge = TOP if i + 1 == n or alphas[i + 1] > 0 else BOTTOM
        # A riser crosses the rail on its way up; an exit drops past it.
        runs.append((f"box {i + 1} arc", 1, exit_edge, 1 if up else 0, cs[i],
                     -1 if exit_edge == BOTTOM else 0))
    sigma_n = pres.sigma[-1]
    if sigma_n > 0:
        runs.append(("final return", 1, BOTTOM, 0, 0, 0))
        runs.append(("final vertical", sigma_n, BOTTOM, -1, 0, 0))
    else:
        if sigma_n < -1:
            runs.append(("final vertical", -sigma_n - 1, TOP, 1, 0, 0))
        if sigma_n < 0:  # the label-0 vertical does not cross the rail
            runs.append(("final vertical", 1, TOP, 0, 0, 0))
        runs.append(("final return", 1, BOTTOM, 0, 0, 0))
    return runs


def build_strip(pres: I1Presentation) -> StripDiagram:
    """Strip diagram of the butterfly link's fundamental domain: every arc
    and crossing of `_walk_runs`, each arc entering opposite the previous
    arc's exit and leaving by a fresh slot."""
    runs = _walk_runs(pres)
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


def eta_oracle(pres: I1Presentation) -> TCoeffs:
    """eta of the presentation's strip, read off `_walk_runs` without
    expanding it; equal to `eta_from_strip(label_strip(build_strip(pres)))`.

    Every arc runs forward, so a crossing's sign is its listed sign and its
    d is the label of the arc that is not the rail.  Along a run the labels
    step by +1 after each top exit and -1 after each bottom exit, so a run
    of crossing verticals adds one contiguous block of rail_sign terms, and
    a box arc labelled L adds c at d = -L and c plus its riser and drop at
    d = L.  The cost is linear in the runs plus the degree of eta.
    """
    label = top = 0
    edge = TOP
    blocks = []  # (lowest d, highest d, coefficient of each t^d between)
    for _, count, edge, rail_sign, c, drop_sign in _walk_runs(pres):
        step = 1 if edge == TOP else -1
        last = label + (count - 1) * step
        if rail_sign:
            blocks.append((label, last, rail_sign) if step > 0
                          else (last, label, rail_sign))
        if c:
            blocks.append((-last, -last, c))
            blocks.append((last, last, c + drop_sign))
        top = max(top, abs(label), abs(last))
        label = last + step
    if edge != BOTTOM:
        raise StripError("label walk does not return to the rail")
    if label:
        raise StripError(f"label walk closes with net shift {label}")
    diff = [0] * (2 * top + 2)
    for lo, hi, coeff in blocks:
        diff[top + lo] += coeff
        diff[top + hi + 1] -= coeff
    diff.pop()
    return _vanishing_at_one(top, list(accumulate(diff)))


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
        return Endpoint(edge, int(slot))
    except ValueError:
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
                slots = int(toks[1])
            elif kind == "arc":
                ident = int(toks[1])
                first = _parse_endpoint(toks[2], lineno)
                second = _parse_endpoint(toks[3], lineno)
                role = toks[4].replace("_", " ") if len(toks) > 4 else ""
                arcs.append(Arc(ident, first, second, role))
            elif kind == "cross":
                crossings.append(Crossing(int(toks[1]), int(toks[2]), int(toks[3])))
            elif kind == "start":
                if toks[2] not in ("fwd", "rev"):
                    raise StripError(f"line {lineno}: direction must be fwd or rev")
                start = (int(toks[1]), toks[2] == "fwd")
            else:
                raise StripError(f"line {lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise StripError(f"line {lineno}: malformed {kind!r} line") from exc
    if slots is None:
        raise StripError("missing 'slots' line")
    if start is None:
        raise StripError("missing 'start' line")
    try:
        return StripDiagram(slots, tuple(arcs), tuple(crossings), start[0], start[1])
    except StripError as exc:
        raise StripError(str(exc)) from None
