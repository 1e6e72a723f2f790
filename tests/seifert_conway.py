"""Conway polynomial of a link, read off its Seifert matrix.

An independent oracle for the continuants of `moth.conway_in_w`: it
shares nothing with the continued fraction but the diagram builder,
`seifert.seifert_matrix_data` and the package's determinant.  Only tests
use it, so it lives beside them and not in the package.
"""
from __future__ import annotations

from math import comb

from equibridge.laurent import InvariantViolation, ZCoeffs
from equibridge.seifert import _bareiss_det


def interp_poly(points: list[tuple[int, int]]) -> list[int]:
    """Newton interpolation in integers; asserts integer coefficients.

    Divided differences of an integer polynomial at integer nodes are
    integers, so every division must be exact.
    """
    xs = [x for x, _ in points]
    dd = [y for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - k])
            if r:
                raise InvariantViolation("non-integer interpolated coefficient")
            dd[i] = q
    # Horner on the Newton form: p = dd[0] + (x - x0)(dd[1] + (x - x1)(...)).
    out: list[int] = []
    for k in range(len(xs) - 1, -1, -1):
        shifted = [0] + out
        for j, c in enumerate(out):
            shifted[j] -= xs[k] * c
        shifted[0] += dd[k]
        out = shifted
    while out and out[-1] == 0:
        out.pop()
    return out


def conway_polynomial(v: list[list[int]], mu: int) -> ZCoeffs:
    """The normalized skein polynomial det(1/x V - x V^T) with z = x - 1/x
    of a link of `mu` components with Seifert matrix `v`.

    The global sign of the odd (2-component) case follows the skein
    normalization nabla(L+) - nabla(L-) = z nabla(L0); the transposed form
    of the determinant is the one that agrees with it for this push-off
    convention.
    """
    g = len(v)
    if g == 0:
        return (1,) if mu == 1 else ()
    # P(w) = det(V - w V^T) has degree <= g; evaluate and interpolate.
    pts = []
    w = 0
    while len(pts) < g + 1:
        m = [[v[i][j] - w * v[j][i] for j in range(g)] for i in range(g)]
        pts.append((w, _bareiss_det(m)))
        w = -w + (0 if w > 0 else 1)  # 0, 1, -1, 2, -2, ...
    p = interp_poly(pts)
    # nabla = x^(-g) P(x^2), rewritten in z = x - 1/x by peeling off the
    # top term: z^m = sum_j (-1)^j C(m, j) x^(m - 2j).  f[g + e] is the
    # coefficient of x^e.
    f = [0] * (2 * g + 1)
    f[0::2] = p + [0] * (g + 1 - len(p))
    acc = [0] * (g + 1)
    for m in range(g, -1, -1):
        c = acc[m] = f[g + m]
        if c:
            for j in range(m + 1):
                f[g + m - 2 * j] -= (-1) ** j * comb(m, j) * c
    if any(f):
        raise InvariantViolation("Seifert determinant is not a z-polynomial")
    while acc and acc[-1] == 0:
        acc.pop()
    nabla = tuple(acc)
    if mu == 1:
        if any(nabla[1::2]):
            raise InvariantViolation("knot Conway polynomial has odd terms")
        if nabla[:1] != (1,):
            raise InvariantViolation("knot Conway polynomial not normalized")
    elif mu == 2:
        if any(nabla[0::2]):
            raise InvariantViolation("2-link Conway polynomial has even terms")
    return nabla
