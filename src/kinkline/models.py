"""The one-sided quadratic models: how a bracket becomes its two flank
models, how an update carries them, and where their max is minimized.

Each flank of a seven-point bracket carries three points; through them we
put a quadratic in Newton form, then pull its curvature down by
``alpha * scaling_h(x)``.  With ``alpha`` large enough relative to the
curvature variation of the underlying smooth piece, the adjusted quadratic
underestimates that piece across the inner interval, which is what makes
the intersection of the two side models a safe next trial point.  The
fixed-constant solver holds ``alpha`` fixed; the dynamic one raises it.

A flank model is a tuple of floats ``(c0, c1, c2, x1, x2)``: the quadratic
``c0 + c1*(x - x1) + c2*(x - x1)*(x - x2)`` anchored at the flank's two
inner points, with the adjustment already taken off ``c2``.  It stays in
Newton form; expanding to monomials loses accuracy once the bracket is
tiny and far from zero.  :func:`flank_coeffs` is the one divided-difference
function; each of its differences is one expression, computed in one call.

A flank's unadjusted coefficients depend on its own three points and values
alone, so both model-based solvers carry them in a :class:`Flanks` record,
bit for bit, across an update that leaves that flank's points in place.
:func:`argmin_max_quadratics` minimizes the max of two flank models over
the inner interval and says which kind of candidate won.
"""

from __future__ import annotations

import math
import sys
from typing import Literal, Sequence

from .brackets import ExtendedBracket7

Side = Literal["L", "R"]
#: A flank model ``(c0, c1, c2, x1, x2)``, its curvature ``c2`` adjusted.
Model = tuple[float, float, float, float, float]
#: Kinds of candidate that can minimize the max of two quadratics.
Winner = Literal["endpoint", "crossing", "vertex", "flat"]

_EPS, _NAN = sys.float_info.epsilon, math.nan
_sqrt, _copysign = math.sqrt, math.copysign


class CoincidentPointsError(ValueError):
    """Divided differences need pairwise distinct abscissae."""


def scaling_h(x: Sequence[float]) -> float:
    """Curvature-adjustment scale max(xr3 - xl1, xr1 - xl3) of the seven points ``x``.

    Positive, shrinks to zero with the bracket, and never exceeds the outer
    diameter, so the adjustment term vanishes as the bracket collapses.
    :meth:`Flanks.advance`, run once per solver iteration, writes it out in
    place, marked with this name.
    """
    a, b = x[6] - x[2], x[4] - x[0]
    return b if b > a else a  # max(a, b), NaN included, without the call


def model_value(m: Model, x):
    """Value of the flank model ``m`` at ``x``, a float or a NumPy array."""
    c0, c1, c2, x1, x2 = m
    return c0 + (x - x1) * (c1 + c2 * (x - x2))


def flank_coeffs(x, fv, i1: int, i2: int, i3: int) -> tuple[float, float, float]:
    """Newton coefficients ``(c0, c1, c2)`` of the quadratic through points
    i1, i2, i3 (inner first) of the abscissae ``x`` and values ``fv``,
    before any curvature adjustment.  ``c2``, the second divided difference,
    reuses the slope ``c1``; it equals f''/2 exactly on quadratics."""
    x1, x2, x3, f1, f3 = x[i1], x[i2], x[i3], fv[i1], fv[i3]
    if x1 == x2 or x1 == x3 or x2 == x3:
        raise CoincidentPointsError(f"points not pairwise distinct: {x1!r}, {x2!r}, {x3!r}")
    c1 = (f1 - fv[i2]) / (x1 - x2)
    return f1, c1, (c1 - (f1 - f3) / (x1 - x3)) / (x2 - x3)


def build_model(side: Side, b: ExtendedBracket7, alpha: float) -> Model:
    """Adjusted quadratic model through one flank's three points.

    With ``alpha == 0`` this is the exact Newton interpolant of the flank;
    positive ``alpha`` only lowers the curvature term.
    """
    if side == "L":
        i1, i2, i3 = 2, 1, 0
    elif side == "R":
        i1, i2, i3 = 4, 5, 6
    else:
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    x = b.x
    c0, c1, c2 = flank_coeffs(x, b.fv, i1, i2, i3)
    return c0, c1, c2 - alpha * scaling_h(x), x[i1], x[i2]


def argmin_max_quadratics(
    ql: Model, qr: Model, left: float, right: float, centre: float
) -> tuple[float, Winner]:
    """Minimizer over [left, right] of the pointwise max of two flank
    models, and which kind of candidate it is.

    The minimum is attained at an intersection of the two (``"crossing"``),
    at the vertex of a convex one (``"vertex"``), or at an endpoint
    (``"endpoint"``); those are exactly the candidates scored here.
    ``"flat"`` means both models are one constant, so every point
    minimizes and the midpoint is returned.  Each candidate is scored where
    it is found, in this order: the left and the right endpoint, the
    in-range roots of ``ql - qr``, then the in-range vertices, the left
    model's first.  The first candidate with the smallest max value wins;
    ties go to the candidate nearest ``centre``, then leftward, so a point
    found as more than one kind is reported as the first of endpoint,
    crossing, vertex.  ``centre`` also anchors the shifted coordinates used
    for the root solve.
    """
    l0, l1, l2, lx1, lx2 = ql
    r0, r1, r2, rx1, rx2 = qr
    s = centre
    lo, hi = left - s, right - s

    if l1 == 0.0 and l2 == 0.0 and r1 == 0.0 and r2 == 0.0 and l0 == r0:
        return s + 0.5 * (lo + hi), "flat"

    # Keep the first candidate with the strictly smallest key (max value,
    # |u|, u), as min(key=...) over them in scoring order would; models
    # evaluate as model_value does, and "vr if vr > vl else vl" is
    # max(vl, vr), NaN included.
    x = s + lo
    vl = l0 + (x - lx1) * (l1 + l2 * (x - lx2))
    vr = r0 + (x - rx1) * (r1 + r2 * (x - rx2))
    bm, bu, kind = vr if vr > vl else vl, lo, "endpoint"
    x = s + hi
    vl = l0 + (x - lx1) * (l1 + l2 * (x - lx2))
    vr = r0 + (x - rx1) * (r1 + r2 * (x - rx2))
    m = vr if vr > vl else vl
    if m < bm or (m == bm and (abs(hi), hi) < (abs(lo), lo)):
        bm, bu = m, hi
    # ql - qr in monomial form in the shifted variable u = x - s
    a1l, a2l, a1r, a2r = lx1 - s, lx2 - s, rx1 - s, rx2 - s
    da = l2 - r2
    db = (l1 - l2 * (a1l + a2l)) - (r1 - r2 * (a1r + a2r))
    dc = (l0 - l1 * a1l + l2 * a1l * a2l) - (r0 - r1 * a1r + r2 * a1r * a2r)
    # its real roots u1, u2, cancellation-safe, NaN standing for no root so
    # that the range test skips it; a discriminant a few rounding units
    # below zero counts as zero, so a grazing intersection is kept
    u1 = u2 = _NAN
    if da == 0.0:
        if db != 0.0:
            u1 = -dc / db
    else:
        disc = db * db - 4.0 * da * dc
        if disc < 0.0 and disc >= -4.0 * _EPS * (db * db + abs(4.0 * da * dc)):
            disc = 0.0
        if disc < 0.0:
            pass  # no real root
        elif db == 0.0:
            r = _sqrt(disc) / (2.0 * abs(da))
            u1, u2 = (-r, r) if r != 0.0 else (0.0, _NAN)
        else:
            q = -0.5 * (db + _copysign(_sqrt(disc), db))
            # q is 0 only when db is subnormal and 4 da dc underflowed: dc as 0
            u1, u2 = (q / da, dc / q) if q != 0.0 else (0.0, -db / da)
    # each in-range root, then each in-range convex vertex, scored as above
    if lo <= u1 <= hi:
        x = s + u1
        vl = l0 + (x - lx1) * (l1 + l2 * (x - lx2))
        vr = r0 + (x - rx1) * (r1 + r2 * (x - rx2))
        m = vr if vr > vl else vl
        if m < bm or (m == bm and (abs(u1), u1) < (abs(bu), bu)):
            bm, bu, kind = m, u1, "crossing"
    if lo <= u2 <= hi:
        x = s + u2
        vl = l0 + (x - lx1) * (l1 + l2 * (x - lx2))
        vr = r0 + (x - rx1) * (r1 + r2 * (x - rx2))
        m = vr if vr > vl else vl
        if m < bm or (m == bm and (abs(u2), u2) < (abs(bu), bu)):
            bm, bu, kind = m, u2, "crossing"
    if l2 > 0.0:
        u = 0.5 * (lx1 + lx2) - l1 / (2.0 * l2) - s
        if lo <= u <= hi:
            x = s + u
            vl = l0 + (x - lx1) * (l1 + l2 * (x - lx2))
            vr = r0 + (x - rx1) * (r1 + r2 * (x - rx2))
            m = vr if vr > vl else vl
            if m < bm or (m == bm and (abs(u), u) < (abs(bu), bu)):
                bm, bu, kind = m, u, "vertex"
    if r2 > 0.0:
        u = 0.5 * (rx1 + rx2) - r1 / (2.0 * r2) - s
        if lo <= u <= hi:
            x = s + u
            vl = l0 + (x - lx1) * (l1 + l2 * (x - lx2))
            vr = r0 + (x - rx1) * (r1 + r2 * (x - rx2))
            m = vr if vr > vl else vl
            if m < bm or (m == bm and (abs(u), u) < (abs(bu), bu)):
                bm, bu, kind = m, u, "vertex"
    return s + bu, kind


class Flanks:
    """A seven-point bracket's flank data, carried across iterations by the
    fixed-constant and dynamic solvers.

    ``x``, ``fv`` are the bracket's points and values, ``h`` its
    :func:`scaling_h`; ``left`` and ``right`` are the :func:`flank_coeffs`
    of points 2, 1, 0 and 4, 5, 6, each flank's model before adjustment,
    anchored at its two inner points.  Nothing in it depends on the
    adjustment constant; :meth:`solve` applies one.
    """

    __slots__ = ("x", "fv", "h", "left", "right")

    def __init__(self, x: tuple[float, ...], fv: tuple[float, ...]):
        self.x, self.fv, self.h = x, fv, scaling_h(x)
        self.left = flank_coeffs(x, fv, 2, 1, 0)
        self.right = flank_coeffs(x, fv, 4, 5, 6)

    def advance(self, x: tuple[float, ...], fv: tuple[float, ...], branch: int) -> None:
        """Move the record in place to the bracket ``x, fv``, which update
        rule ``branch`` (numbered as :func:`~kinkline.brackets.apply_update`
        numbers them) made from the record's bracket.  Rules 1 and 3 keep
        the left flank's points and rules 2 and 4 the right's, so that
        flank's coefficients stay, exactly as recomputing them would give;
        the other flank and ``h`` are recomputed."""
        a, b = x[6] - x[2], x[4] - x[0]  # scaling_h(x)
        self.x, self.fv, self.h = x, fv, b if b > a else a
        if branch == 1 or branch == 3:
            self.right = flank_coeffs(x, fv, 4, 5, 6)
        else:
            self.left = flank_coeffs(x, fv, 2, 1, 0)

    def solve(self, alpha: float) -> tuple[Model, Model, float, Winner]:
        """Both flank models at ``alpha``, the tuples :func:`build_model`
        returns, and the minimizer of their max over the inner interval with
        its kind."""
        x, ah = self.x, alpha * self.h
        l0, l1, l2 = self.left
        r0, r1, r2 = self.right
        ql = (l0, l1, l2 - ah, x[2], x[1])
        qr = (r0, r1, r2 - ah, x[4], x[5])
        g, kind = argmin_max_quadratics(ql, qr, x[2], x[4], x[3])
        return ql, qr, g, kind
