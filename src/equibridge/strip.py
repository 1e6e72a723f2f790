"""Independent oracle for the butterfly polynomial.

The butterfly link of a presentation has unknotted components, so its pairing
polynomial can be read off a fundamental domain of the infinite cyclic cover
of one component's complement: a strip whose top and bottom edges are
identified slot by slot.  Arcs are labelled by a walk (the label tracks which
deck translate the arc belongs to), every crossing contributes
sign * t^(label(over) - label(under)), and the constant term is fixed by
requiring the total to vanish at t = 1.

This code path shares no arithmetic with the closed-form formula beyond the
Laurent-polynomial ring itself.
"""
from __future__ import annotations

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
    the start arc first -> second.  crossing_roles is the builder's
    self-report ("box 2", "rail-vertical"); it is not part of the wire
    format, and equality ignores it."""

    _fields = ("slots", "arcs", "crossings", "start_arc", "start_forward")

    def __init__(self, slots: int, arcs: tuple[Arc, ...],
                 crossings: tuple[Crossing, ...], start_arc: int,
                 start_forward: bool, crossing_roles: tuple[str, ...] = ()):
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
                          start_arc=start_arc, start_forward=start_forward,
                          crossing_roles=crossing_roles)


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
    # Subtracting f(1) from the constant term overwrites the d = 0 terms.
    out[top] -= sum(out)
    return lp(-top, out)


# ---------------------------------------------------------------------------
# Builder: the fundamental-domain strip of a presentation's butterfly link.
# ---------------------------------------------------------------------------


class _StripBuilder:
    def __init__(self):
        self.arcs: list[Arc] = []
        self.crossings: list[Crossing] = []
        self.crossing_roles: list[str] = []
        self.next_slot = 1
        self.prev_exit: Optional[Endpoint] = None

    def fresh_slot(self) -> int:
        s = self.next_slot
        self.next_slot += 1
        return s

    def add_arc(self, exit_edge: str, role: str, exit_slot: Optional[int] = None) -> int:
        """Append the next walk arc: entry forced by the previous exit."""
        ident = len(self.arcs) + 1
        if self.prev_exit is None:
            entry = Endpoint(TOP, self.fresh_slot())
        else:
            entry = self.prev_exit.opposite()
        exit_ep = Endpoint(exit_edge, exit_slot if exit_slot else self.fresh_slot())
        self.arcs.append(Arc(ident, entry, exit_ep, role))
        self.prev_exit = exit_ep
        return ident

    def cross_over_rail(self, arc_id: int, rail_id: int, sign: int):
        self.crossings.append(Crossing(arc_id, rail_id, sign))
        self.crossing_roles.append("rail-vertical")

    def box(self, rail_id: int, arc_id: int, index: int, c: int):
        """A twist box of 2|c| crossings between the rail and the box arc,
        alternating which strand is on top; the strands are anti-parallel so
        every crossing carries the same sign."""
        sign = 1 if c > 0 else -1
        for k in range(2 * abs(c)):
            if k % 2 == 0:
                self.crossings.append(Crossing(arc_id, rail_id, sign))
            else:
                self.crossings.append(Crossing(rail_id, arc_id, sign))
            self.crossing_roles.append(f"box {index}")


def build_strip(pres: I1Presentation) -> StripDiagram:
    """Strip diagram of the butterfly link's fundamental domain.

    The label-0 rail enters at the top right and runs leftward through one
    box of 2|c_i| crossings per twist pair.  Group i consists of |alpha_i|/2
    arcs riding between the edges (the last one feeds box i); vertical arcs
    pass over the rail, one crossing each.  After box n a return group of
    |sigma_n| + 1 arcs brings the walk back to the rail's start.
    """
    b = _StripBuilder()
    n = pres.n
    sigma_n = pres.sigma[-1]

    rail = b.add_arc(TOP if pres.alphas[0] > 0 else BOTTOM, "rail")

    for i in range(n):
        a = pres.alphas[i]
        up = a > 0
        h = abs(a) // 2
        ride_exit = TOP if up else BOTTOM
        for k in range(h - 1):
            arc = b.add_arc(ride_exit, f"group {i + 1} vertical")
            b.cross_over_rail(arc, rail, 1 if up else -1)
        if i + 1 < n:
            exit_edge = TOP if pres.alphas[i + 1] > 0 else BOTTOM
        else:
            exit_edge = TOP
        box_arc = b.add_arc(exit_edge, f"box {i + 1} arc")
        if up:
            b.cross_over_rail(box_arc, rail, 1)  # riser crosses the rail
        b.box(rail, box_arc, i + 1, pres.cs[i])
        if i + 1 < n and exit_edge == BOTTOM:
            b.cross_over_rail(box_arc, rail, -1)  # exit drops past the rail

    if sigma_n > 0:
        b.add_arc(BOTTOM, "final return")
        for k in range(sigma_n, 0, -1):
            closing = k == 1
            arc = b.add_arc(BOTTOM, "final vertical", exit_slot=1 if closing else None)
            b.cross_over_rail(arc, rail, -1)
    else:
        for k in range(sigma_n + 1, 1):
            arc = b.add_arc(TOP, "final vertical")
            if k != 0:
                b.cross_over_rail(arc, rail, 1)
        b.add_arc(BOTTOM, "final return", exit_slot=1)

    return StripDiagram(
        slots=b.next_slot - 1,
        arcs=tuple(b.arcs),
        crossings=tuple(b.crossings),
        start_arc=rail,
        start_forward=True,
        crossing_roles=tuple(b.crossing_roles),
    )


def eta_oracle(pres: I1Presentation) -> TCoeffs:
    """Convenience: build, label, and sum."""
    return eta_from_strip(label_strip(build_strip(pres)))


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
