"""Bracket data types and their geometry.

A bracket is a short ascending tuple of abscissae whose centre point carries
the smallest known objective value, so a local minimum is pinned inside the
inner pair.  Three sizes are used: the plain three-point bracket for the
classic solvers, and five- and seven-point extended brackets that carry
enough side points to fit one quadratic model per side.

All bracket types cache the objective value at every point.  Solvers never
re-query the oracle at a point the bracket already holds; fresh oracle calls
happen only at new trial points.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

_EPS = sys.float_info.epsilon

#: Adjacent points closer than this multiple of machine epsilon times the
#: bracket diameter are rejected: divided differences divide by the gaps.
MIN_GAP_FACTOR = 16.0


class BracketError(ValueError):
    """Base class for bracket validation failures."""


class NotAscendingError(BracketError):
    """Point ``index`` does not lie strictly above its predecessor."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"points not strictly ascending at index {index}")


class NotABracketError(BracketError):
    """The centre point is not a minimum of the inner value triple."""


def _check_points(x: Sequence[float], min_gap: float) -> None:
    for i in range(1, len(x)):
        if not x[i] - x[i - 1] > min_gap:
            raise NotAscendingError(i)


def _check_centre(fv: Sequence[float], c: int) -> None:
    if not (fv[c - 1] >= fv[c] <= fv[c + 1]):
        raise NotABracketError(
            f"centre condition violated: f={fv[c - 1]!r}, {fv[c]!r}, {fv[c + 1]!r}"
        )


@dataclass(frozen=True)
class Bracket3:
    """Three points ``xl < xm < xr`` with ``f(xl) >= f(xm) <= f(xr)``.

    Guarantees a local minimum in ``(xl, xr)``.
    """

    xl: float
    xm: float
    xr: float
    fl: float
    fm: float
    fr: float

    def __post_init__(self):
        _check_points((self.xl, self.xm, self.xr), 0.0)
        _check_centre((self.fl, self.fm, self.fr), 1)

    @classmethod
    def unchecked(cls, xl, xm, xr, fl, fm, fr) -> "Bracket3":
        """Build without the centre-value check (ordering is still required).

        Interval solvers on multimodal objectives can legitimately end with
        an incumbent whose value exceeds a stale endpoint value; their final
        state is positional, not value-ordered.
        """
        obj = object.__new__(cls)
        _check_points((xl, xm, xr), 0.0)
        for name, v in zip(("xl", "xm", "xr", "fl", "fm", "fr"), (xl, xm, xr, fl, fm, fr)):
            object.__setattr__(obj, name, v)
        return obj


@dataclass(frozen=True)
class ExtendedBracket7:
    """Seven ascending points; the inner triple forms a :class:`Bracket3`.

    Layout is ``(xl3, xl2, xl1, xm, xr1, xr2, xr3)``: three side points on
    each flank of the incumbent, ordered left to right.
    """

    x: tuple[float, float, float, float, float, float, float]
    fv: tuple[float, float, float, float, float, float, float]

    _CENTRE = 3

    def __post_init__(self):
        if len(self.x) != 7 or len(self.fv) != 7:
            raise BracketError("need exactly 7 points and 7 values")
        span = self.x[-1] - self.x[0]
        _check_points(self.x, MIN_GAP_FACTOR * _EPS * span)
        _check_centre(self.fv, self._CENTRE)

    @property
    def xl1(self) -> float:
        return self.x[2]

    @property
    def xm(self) -> float:
        return self.x[3]

    @property
    def xr1(self) -> float:
        return self.x[4]

    @property
    def fm(self) -> float:
        return self.fv[3]


@dataclass(frozen=True)
class ExtendedBracket5:
    """Five ascending points ``(xl2, xl1, xm, xr1, xr2)`` with cached values.

    The outermost pair of a seven-point bracket is irrelevant to the
    closed-form extremal step, so this is the state it works on.
    """

    x: tuple[float, float, float, float, float]
    fv: tuple[float, float, float, float, float]

    _CENTRE = 2

    def __post_init__(self):
        if len(self.x) != 5 or len(self.fv) != 5:
            raise BracketError("need exactly 5 points and 5 values")
        span = self.x[-1] - self.x[0]
        _check_points(self.x, MIN_GAP_FACTOR * _EPS * span)
        _check_centre(self.fv, self._CENTRE)

    @property
    def xl1(self) -> float:
        return self.x[1]

    @property
    def xm(self) -> float:
        return self.x[2]

    @property
    def xr1(self) -> float:
        return self.x[3]

    @property
    def fm(self) -> float:
        return self.fv[2]


AnyBracket = Union[Bracket3, ExtendedBracket5, ExtendedBracket7]
ExtendedBracket = Union[ExtendedBracket5, ExtendedBracket7]


def make_extended7(points: Iterable[float], values: Iterable[float]) -> ExtendedBracket7:
    """Validate seven (point, value) pairs into an :class:`ExtendedBracket7`."""
    return ExtendedBracket7(tuple(points), tuple(values))


def make_extended5(points: Iterable[float], values: Iterable[float]) -> ExtendedBracket5:
    """Validate five (point, value) pairs into an :class:`ExtendedBracket5`."""
    return ExtendedBracket5(tuple(points), tuple(values))


def inner_length(b: AnyBracket) -> float:
    """Distance ``xr1 - xl1`` between the incumbent's nearest neighbours.

    This is the quantity solvers drive to zero; the termination test and the
    convergence-rate metric are both stated in terms of it.  For a
    three-point bracket it is the whole interval.
    """
    if isinstance(b, Bracket3):
        return b.xr - b.xl
    return b.xr1 - b.xl1


def outer_length(b: AnyBracket) -> float:
    """Diameter of the bracket's convex hull (first to last point)."""
    if isinstance(b, Bracket3):
        return b.xr - b.xl
    return b.x[-1] - b.x[0]


def inner5(b: ExtendedBracket7) -> ExtendedBracket5:
    """Drop the outermost pair of a seven-point bracket."""
    return ExtendedBracket5(b.x[1:6], b.fv[1:6])


def inner3(b: ExtendedBracket7 | ExtendedBracket5) -> Bracket3:
    """The inner value triple of an extended bracket."""
    c = b._CENTRE
    return Bracket3(b.x[c - 1], b.x[c], b.x[c + 1], b.fv[c - 1], b.fv[c], b.fv[c + 1])


def reflect(b: ExtendedBracket5) -> ExtendedBracket5:
    """Mirror a five-point bracket through the origin.

    Points are negated and reversed, values reversed: the result brackets
    ``x -> f(-x)`` wherever ``b`` brackets ``f``.  Applying it twice gives
    back the original bracket.
    """
    a, bb, c, d, e = b.x
    return ExtendedBracket5((-e, -d, -c, -bb, -a), b.fv[::-1])
