"""The expanded covering strip: the reference for `strip.eta_oracle`.

`build_strip` expands the walk's run records, `strip._walk_runs`, into
every arc and crossing, `label_strip` labels the arcs one by one, and
`strip_census` and `eta_from_strip` read eta off the labels.  `print_strip`
writes a strip as text, one line per arc and crossing, which a tier-1 test
pins byte for byte.  A strip that fails validation or its label walk
raises `StripError`.

It shares only the run records with `eta_oracle`, and imports nothing from
`butterfly`, `moth` or `oracles`, so its eta is independent of the closed
formula it checks.  No floating point anywhere.
"""
from __future__ import annotations

from typing import NamedTuple

from equibridge import strip
from equibridge.laurent import DomainError, Frozen, TCoeffs, typed_equality
from equibridge.presentations import I1Presentation
from equibridge.strip import BOTTOM, TOP, _vanishing_at_one

# Every crossing is between the rail (arc 1, label 0) and another arc.
RAIL = 1


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


def print_strip(d: StripDiagram) -> str:
    lines = [f"slots {d.slots}"]
    for arc in d.arcs:
        role = f" {arc.role.replace(' ', '_')}" if arc.role else ""
        lines.append(f"arc {arc.ident} {arc.first} {arc.second}{role}")
    for cr in d.crossings:
        lines.append(f"cross {cr.over} {cr.under} {'+1' if cr.listed_sign > 0 else '-1'}")
    lines.append(f"start {d.start_arc} {'fwd' if d.start_forward else 'rev'}")
    return "\n".join(lines) + "\n"
