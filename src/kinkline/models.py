"""Divided differences and the one-sided quadratic models.

Each flank of a seven-point bracket carries three points; through them we
put a quadratic in Newton form, then pull its curvature down by
``alpha * scaling_h(bracket)``.  With ``alpha`` large enough relative to the
curvature variation of the underlying smooth piece, the adjusted quadratic
underestimates that piece across the inner interval, which is what makes
the intersection of the two side models a safe next trial point.

A flank's unadjusted coefficients (:func:`flank_coeffs`) depend on its own
three points and values alone, so a solver may carry them, bit for bit,
across an update that leaves that flank's points in place.
"""

from __future__ import annotations

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


class QuadModel:
    """One side's quadratic in Newton form anchored at (x1, x2).

    ``q(x) = c0 + c1*(x - x1) + c2adj*(x - x1)*(x - x2)`` where c0, c1 are
    the value and slope divided difference at the two innermost side points
    and c2adj is the side's second divided difference minus the adjustment
    ``alpha * scaling_h``.  Kept in Newton form throughout; expanding to
    monomials loses accuracy once the bracket is tiny and far from zero.

    A ``__slots__`` record, equal field for field and not hashable.
    """

    __slots__ = ("c0", "c1", "c2adj", "x1", "x2", "side")

    def __init__(self, c0: float, c1: float, c2adj: float, x1: float, x2: float, side: Side):
        self.c0 = c0
        self.c1 = c1
        self.c2adj = c2adj
        self.x1 = x1
        self.x2 = x2
        self.side = side

    def _fields(self) -> tuple:
        return (self.c0, self.c1, self.c2adj, self.x1, self.x2, self.side)

    def __eq__(self, other):
        if not isinstance(other, QuadModel):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return f"QuadModel{self._fields()!r}"

    def __call__(self, x):
        return self.c0 + (x - self.x1) * (self.c1 + self.c2adj * (x - self.x2))

    def vertex(self) -> float:
        """Stationary point; caller must ensure c2adj != 0."""
        return 0.5 * (self.x1 + self.x2) - self.c1 / (2.0 * self.c2adj)


def flank_coeffs(x, fv, i1: int, i2: int, i3: int) -> tuple[float, float, float]:
    """Newton coefficients ``(c0, c1, c2)`` of the quadratic through points
    i1, i2, i3 (inner first) of the abscissae ``x`` and values ``fv``,
    before any curvature adjustment."""
    return (
        fv[i1],
        divided_diff1(fv[i1], fv[i2], x[i1], x[i2]),
        divided_diff2(fv[i1], fv[i2], fv[i3], x[i1], x[i2], x[i3]),
    )


def build_model(side: Side, b: ExtendedBracket7, alpha: float) -> QuadModel:
    """Adjusted quadratic through one flank's three points.

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
    return QuadModel(c0, c1, c2 - alpha * scaling_h(b), x[i1], x[i2], side)
