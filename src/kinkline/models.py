"""Divided differences and the one-sided quadratic models.

Each flank of a seven-point bracket carries three points; through them we
put a quadratic in Newton form, then pull its curvature down by
``alpha * scaling_h(x)``.  With ``alpha`` large enough relative to the
curvature variation of the underlying smooth piece, the adjusted quadratic
underestimates that piece across the inner interval, which is what makes
the intersection of the two side models a safe next trial point.

A flank model is a tuple of floats ``(c0, c1, c2, x1, x2)``: the quadratic
``c0 + c1*(x - x1) + c2*(x - x1)*(x - x2)`` anchored at the flank's two
inner points, with the adjustment already taken off ``c2``.  It stays in
Newton form; expanding to monomials loses accuracy once the bracket is
tiny and far from zero.  A flank's unadjusted coefficients
(:func:`flank_coeffs`) depend on its own three points and values alone, so
a solver may carry them, bit for bit, across an update that leaves that
flank's points in place.
Each divided difference is one expression, computed in one call.
"""

from __future__ import annotations

from typing import Literal, Sequence

from .brackets import ExtendedBracket7

Side = Literal["L", "R"]
#: A flank model ``(c0, c1, c2, x1, x2)``, its curvature ``c2`` adjusted.
Model = tuple[float, float, float, float, float]


class CoincidentPointsError(ValueError):
    """Divided differences need pairwise distinct abscissae."""


def divided_diff2(fa: float, fb: float, fc: float, a: float, b: float, c: float) -> float:
    """Second divided difference; equals f''/2 exactly on quadratics.

    Symmetric in all three points.
    """
    if a == b or a == c or b == c:
        raise CoincidentPointsError(f"points not pairwise distinct: {a!r}, {b!r}, {c!r}")
    return ((fa - fb) / (a - b) - (fa - fc) / (a - c)) / (b - c)


def scaling_h(x: Sequence[float]) -> float:
    """Curvature-adjustment scale max(xr3 - xl1, xr1 - xl3) of the seven points ``x``.

    Positive, shrinks to zero with the bracket, and never exceeds the outer
    diameter, so the adjustment term vanishes as the bracket collapses.
    """
    return max(x[6] - x[2], x[4] - x[0])


def model_value(m: Model, x):
    """Value of the flank model ``m`` at ``x``, a float or a NumPy array."""
    c0, c1, c2, x1, x2 = m
    return c0 + (x - x1) * (c1 + c2 * (x - x2))


def flank_coeffs(x, fv, i1: int, i2: int, i3: int) -> tuple[float, float, float]:
    """Newton coefficients ``(c0, c1, c2)`` of the quadratic through points
    i1, i2, i3 (inner first) of the abscissae ``x`` and values ``fv``,
    before any curvature adjustment.  ``c2`` reuses the slope ``c1``: the
    same operations, in the same order, as :func:`divided_diff2`."""
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
