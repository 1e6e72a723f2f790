"""Brute-force skein-resolution oracle for the Conway polynomial.

Works directly on the crossing structure of a diagram (no Seifert surface),
so it is an independent cross-check for the matrix pipeline.  Intended for
small diagrams only; the recursion switches crossings toward a descending
diagram and resolves along the way.  It computes on z-coefficient tuples,
low to high, trimmed, and returns one.
"""
from __future__ import annotations

from equibridge.diagrams import OrientedPD

ONE = (1,)
ZERO = ()


def _plus_z_times(a, sign, b):
    """a + sign * z * b, trimmed."""
    out = list(a) + [0] * (len(b) + 1 - len(a))
    for e, c in enumerate(b, 1):
        out[e] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def diagram_state(pd: OrientedPD):
    """Extract (components, signs, over_role): components are cyclic lists of
    (crossing id, role) passages, role 'A' for the NW-SE strand."""
    comps = []
    for comp in pd.components:
        passages = []
        for eid, d in comp:
            e = pd.edges[eid]
            head = e.b if d == 1 else e.a  # 4 * crossing + slot
            role = "A" if head % 2 == 0 else "B"  # A holds slots nw and se
            passages.append((head // 4, role))
        comps.append(passages)
    for _ in pd.free_loops:
        comps.append([])
    signs = dict(enumerate(pd.crossing_signs(pd.inflow())))
    over = {ci: ("A" if over_a else "B") for ci, over_a in enumerate(pd.over_a)}
    return comps, signs, over


def _is_split(comps, signs) -> bool:
    if len(comps) <= 1:
        return False
    if any(len(c) == 0 for c in comps):
        return True
    parent = list(range(len(comps)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    where = {}
    for i, comp in enumerate(comps):
        for ci, _ in comp:
            if ci in where:
                parent[find(where[ci])] = find(i)
            else:
                where[ci] = i
    return len({find(i) for i in range(len(comps))}) != 1


def _first_violation(comps, over):
    """First crossing whose first encounter runs under, in basepoint order."""
    seen = set()
    for comp in comps:
        for ci, role in comp:
            if ci in seen:
                continue
            seen.add(ci)
            if over[ci] != role:
                return ci
    return None


def _smooth(comps, ci):
    """Oriented smoothing at ci: splice the two passages together."""
    locs = []
    for k, comp in enumerate(comps):
        for i, (cj, role) in enumerate(comp):
            if cj == ci:
                locs.append((k, i))
    (k1, i1), (k2, i2) = locs
    if k1 == k2:
        comp = comps[k1]
        i1, i2 = sorted((i1, i2))
        inner = comp[i1 + 1:i2]
        outer = comp[:i1] + comp[i2 + 1:]
        rest = [c for j, c in enumerate(comps) if j != k1]
        return rest + [inner, outer]
    else:
        c1, c2 = comps[k1], comps[k2]
        merged = c1[:i1] + c2[i2 + 1:] + c2[:i2] + c1[i1 + 1:]
        rest = [c for j, c in enumerate(comps) if j not in (k1, k2)]
        return rest + [merged]


def _drop(signs, over, ci):
    s2 = {k: v for k, v in signs.items() if k != ci}
    o2 = {k: v for k, v in over.items() if k != ci}
    return s2, o2


def _nabla(comps, signs, over) -> tuple[int, ...]:
    if _is_split(comps, signs):
        return ZERO
    if not signs:
        return ONE if len(comps) == 1 else ZERO
    ci = _first_violation(comps, over)
    if ci is None:
        # Descending diagrams are unlinks.
        return ONE if len(comps) == 1 else ZERO
    switched_over = dict(over)
    switched_over[ci] = "A" if over[ci] == "B" else "B"
    switched_signs = dict(signs)
    switched_signs[ci] = -signs[ci]
    s0, o0 = _drop(signs, over, ci)
    comps0 = _smooth(comps, ci)
    sw = _nabla(comps, switched_signs, switched_over)
    sm = _nabla(comps0, s0, o0)
    return _plus_z_times(sw, signs[ci], sm)


def skein_conway(pd: OrientedPD) -> tuple[int, ...]:
    comps, signs, over = diagram_state(pd)
    return _nabla(comps, signs, over)
