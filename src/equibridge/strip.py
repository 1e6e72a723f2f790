"""The covering-strip oracle for the butterfly polynomial, on the path that
`analyze` and `table` run.

The butterfly link of a presentation has unknotted components, so its pairing
polynomial can be read off a fundamental domain of the infinite cyclic cover
of one component's complement: a strip whose top and bottom edges are
identified slot by slot.  Arcs are labelled by a walk (the label tracks which
deck translate the arc belongs to), every crossing contributes
sign * t^(label(over) - label(under)), and the constant term is fixed by
requiring the total to vanish at t = 1.

A presentation's strip is encoded once, as the walk that builds it: O(n) run
records, one per group of vertical arcs, one per box arc with its 2|c|
crossings, and a few for the final return group.  `eta_oracle` walks the
runs directly, at a cost linear in the twist pairs plus the degree of eta.
The tests' `strip_oracle.build_strip` expands the same runs into the full
strip, arc by arc, and labels it as the reference.  Since `eta_oracle`
reads only validated presentations, a walk that does not close is an
internal error (`InvariantViolation`), not bad input.

This code path shares no arithmetic with the closed-form formula beyond the
Laurent-polynomial ring itself, and imports nothing from `butterfly`.
"""
from __future__ import annotations

from itertools import accumulate

from .laurent import InvariantViolation, TCoeffs, lp
from .presentations import I1Presentation

TOP = "top"
BOTTOM = "bottom"


def _vanishing_at_one(top: int, out: list[int]) -> TCoeffs:
    """The polynomial sum out[i] * t^(i - top), its constant term replaced
    so that it vanishes at t = 1; this overwrites the d = 0 terms."""
    out[top] -= sum(out)
    return lp(-top, out)


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


def eta_oracle(pres: I1Presentation) -> TCoeffs:
    """eta of the presentation's strip, read off `_walk_runs` without
    expanding it; equal to `eta_from_strip(label_strip(build_strip(pres)))`
    of the tests' expanded strip, `strip_oracle`.

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
        raise InvariantViolation("label walk does not return to the rail")
    if label:
        raise InvariantViolation(f"label walk closes with net shift {label}")
    diff = [0] * (2 * top + 2)
    for lo, hi, coeff in blocks:
        diff[top + lo] += coeff
        diff[top + hi + 1] -= coeff
    diff.pop()
    return _vanishing_at_one(top, list(accumulate(diff)))
