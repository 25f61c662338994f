"""Divided differences and the one-sided quadratic models.

Each flank of a seven-point bracket carries three points; through them we
put a quadratic in Newton form, then pull its curvature down by
``alpha * scaling_h(bracket)``.  With ``alpha`` large enough relative to the
curvature variation of the underlying smooth piece, the adjusted quadratic
underestimates that piece across the inner interval, which is what makes
the intersection of the two side models a safe next trial point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .brackets import ExtendedBracket7

Side = Literal["L", "R"]


class CoincidentPointsError(ValueError):
    """Divided differences need pairwise distinct abscissae."""


def divided_diff1(fa: float, fb: float, a: float, b: float) -> float:
    """First divided difference (f(a) - f(b)) / (a - b); slope estimate."""
    if a == b:
        raise CoincidentPointsError(f"a == b == {a!r}")
    return (fa - fb) / (a - b)


def divided_diff2(fa: float, fb: float, fc: float, a: float, b: float, c: float) -> float:
    """Second divided difference; equals f''/2 exactly on quadratics.

    Symmetric in all three points.
    """
    if a == b or a == c or b == c:
        raise CoincidentPointsError(f"points not pairwise distinct: {a!r}, {b!r}, {c!r}")
    return (divided_diff1(fa, fb, a, b) - divided_diff1(fa, fc, a, c)) / (b - c)


def scaling_h(b: ExtendedBracket7) -> float:
    """Curvature-adjustment scale max(xr3 - xl1, xr1 - xl3).

    Positive, shrinks to zero with the bracket, and never exceeds the outer
    diameter, so the adjustment term vanishes as the bracket collapses.
    """
    x = b.x
    return max(x[6] - x[2], x[4] - x[0])


@dataclass(frozen=True)
class QuadModel:
    """One side's quadratic in Newton form anchored at (x1, x2).

    ``q(x) = c0 + c1*(x - x1) + c2adj*(x - x1)*(x - x2)`` where c0, c1 are
    the value and slope divided difference at the two innermost side points
    and c2adj is the side's second divided difference minus the adjustment
    ``alpha * scaling_h``.  Kept in Newton form throughout; expanding to
    monomials loses accuracy once the bracket is tiny and far from zero.
    """

    c0: float
    c1: float
    c2adj: float
    x1: float
    x2: float
    side: Side

    def __call__(self, x):
        return self.c0 + (x - self.x1) * (self.c1 + self.c2adj * (x - self.x2))

    def derivative(self, x: float) -> float:
        return self.c1 + self.c2adj * (2.0 * x - self.x1 - self.x2)

    def vertex(self) -> float:
        """Stationary point; caller must ensure c2adj != 0."""
        return 0.5 * (self.x1 + self.x2) - self.c1 / (2.0 * self.c2adj)


def build_model(side: Side, b: ExtendedBracket7, alpha: float) -> QuadModel:
    """Adjusted quadratic through one flank's three points.

    With ``alpha == 0`` this is the exact Newton interpolant of the flank;
    positive ``alpha`` only lowers the curvature term.
    """
    x, fv = b.x, b.fv
    if side == "L":
        i1, i2, i3 = 2, 1, 0
    elif side == "R":
        i1, i2, i3 = 4, 5, 6
    else:
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    c1 = divided_diff1(fv[i1], fv[i2], x[i1], x[i2])
    c2 = divided_diff2(fv[i1], fv[i2], fv[i3], x[i1], x[i2], x[i3])
    return QuadModel(fv[i1], c1, c2 - alpha * scaling_h(b), x[i1], x[i2], side)

