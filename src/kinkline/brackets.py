"""The bracket type and its geometry.

A bracket is an ascending tuple of abscissae whose centre point carries
the smallest value of the inner triple, so a local minimum is pinned
inside the incumbent's two neighbours.  One frozen type, :class:`Bracket`,
holds the points and their values, validates them and names the inner
triple; it comes in three sizes.  :class:`ExtendedBracket7` carries three
side points on each flank, enough to fit one quadratic model per side;
:class:`ExtendedBracket5` is its inner five, which the closed-form step
needs; :class:`Bracket3` is the inner triple that the classic solvers
move, with the names ``xl``, ``xr``, ``fl`` and ``fr`` for its ends.

Every bracket caches the objective value at each point.  Solvers never
re-query the oracle at a point the bracket already holds; fresh oracle calls
happen only at new trial points.

A validated :class:`Bracket` crosses the edges: solver inputs, results and
recorded brackets.  Inside the update-rule loop a bracket is its point and
value tuples, which :func:`apply_update`, the one update step, maps to the
next pair, checking only what its rule (it owns their numbering) can break.
Only that loop, handing out tuples :func:`apply_update` made, and golden
section, whose strictly ascending triples are positional only, may skip
validation through :func:`trusted_build`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

_EPS = sys.float_info.epsilon

#: Adjacent points of a five- or seven-point bracket closer than this
#: multiple of machine epsilon times the bracket diameter are rejected:
#: divided differences divide by the gaps.
MIN_GAP_FACTOR = 16.0


class BracketError(ValueError):
    """Base class for bracket validation failures."""


class NotAscendingError(BracketError):
    """Point ``index`` does not lie strictly above its predecessor."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"points not strictly ascending at index {index}")


class NotABracketError(BracketError):
    """The centre point is not a minimum of the inner value triple."""


class TrialAtCenterError(ValueError):
    """A trial point coincided with the incumbent; the separation rule
    should have prevented this."""


class InvariantBrokenError(RuntimeError):
    """A bracket update produced an invalid bracket, or a solver proposed a
    NaN trial point; either indicates a bug."""


def _check_points(x: Sequence[float], min_gap: float) -> None:
    for i in range(1, len(x)):
        if not x[i] - x[i - 1] > min_gap:
            raise NotAscendingError(i)


def _check_centre(fv: Sequence[float], c: int) -> None:
    if not (fv[c - 1] >= fv[c] <= fv[c + 1]):
        raise NotABracketError(
            f"centre condition violated: f={fv[c - 1]!r}, {fv[c]!r}, {fv[c + 1]!r}"
        )


def trusted_build(cls: type[Bracket], x: tuple[float, ...], fv: tuple[float, ...]) -> Bracket:
    """The trusted build: an unchecked ``cls`` of the tuples ``x`` and ``fv``,
    for the update-rule loop and golden section; see the module docstring."""
    b = object.__new__(cls)
    object.__setattr__(b, "x", x)
    object.__setattr__(b, "fv", fv)
    return b


@dataclass(frozen=True)
class Bracket:
    """Ascending points ``x`` with cached values ``fv``, centre at index
    ``len(x) // 2`` carrying the smallest of the inner value triple.
    ``x`` and ``fv`` may be any iterables; they are stored as tuples.

    A subclass sets the point count ``_N``, which fixes the centre index
    ``_CENTRE``; adjacent points must lie more than ``_GAP_FACTOR`` times
    machine epsilon times the bracket's span apart.  Instances are
    immutable, so one bracket can start many solvers.
    """

    x: tuple[float, ...]
    fv: tuple[float, ...]

    _N = 0
    _CENTRE = 0
    _GAP_FACTOR = MIN_GAP_FACTOR

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._CENTRE = cls._N // 2

    def __post_init__(self):
        x, fv, n = tuple(self.x), tuple(self.fv), self._N
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fv", fv)
        if len(x) != n or len(fv) != n:
            raise BracketError(f"need exactly {n} points and {n} values")
        _check_points(x, self._GAP_FACTOR * _EPS * (x[-1] - x[0]))
        _check_centre(fv, self._CENTRE)

    @property
    def xl1(self) -> float:
        return self.x[self._CENTRE - 1]

    @property
    def xm(self) -> float:
        return self.x[self._CENTRE]

    @property
    def xr1(self) -> float:
        return self.x[self._CENTRE + 1]

    @property
    def fm(self) -> float:
        return self.fv[self._CENTRE]


class Bracket3(Bracket):
    """Three points ``xl < xm < xr`` with ``f(xl) >= f(xm) <= f(xr)``.

    Guarantees a local minimum in ``(xl, xr)``.  Only coincident points
    are refused: the classic solvers divide by no gap.
    """

    _N = 3
    _GAP_FACTOR = 0.0

    def __init__(self, xl: float, xm: float, xr: float, fl: float, fm: float, fr: float):
        super().__init__((xl, xm, xr), (fl, fm, fr))

    xl = property(lambda self: self.x[0])
    xr = property(lambda self: self.x[2])
    fl = property(lambda self: self.fv[0])
    fr = property(lambda self: self.fv[2])


class ExtendedBracket7(Bracket):
    """Seven points ``(xl3, xl2, xl1, xm, xr1, xr2, xr3)``: three side
    points on each flank of the incumbent, enough for one quadratic model
    per flank."""

    _N = 7


class ExtendedBracket5(Bracket):
    """Five points ``(xl2, xl1, xm, xr1, xr2)``.

    The outermost pair of a seven-point bracket is irrelevant to the
    closed-form extremal step, so this is the state it works on.
    """

    _N = 5


def require(b: object, cls: type[Bracket]) -> None:
    """Refuse, with :class:`TypeError`, a solver's starting bracket ``b``
    that is not of the size ``cls`` the solver runs on."""
    if not isinstance(b, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(b).__name__}")


#: Per point count n and update rule 1-4: the picker keeping points s..k-1,
#: the trial (appended at index n), then k..n-2+s; and the trial's new index.
_PICKERS = {
    n: (None,) + tuple(
        (itemgetter(*range(s, k), n, *range(k, n - 1 + s)), k - s)
        for s, k in ((0, c), (1, c + 1), (0, c + 1), (1, c))
    )
    for n, c in ((5, 2), (7, 3))
}
_MIN_GAP = MIN_GAP_FACTOR * _EPS


def apply_update(xtrial: float, ftrial: float, x: tuple, fv: tuple) -> tuple[int, tuple, tuple]:
    """Insert a trial into the five- or seven-point bracket with points
    ``x`` and values ``fv`` by the update rule it calls for; return the
    rule and the new points and values.

    The rule is fixed by the trial's side of the incumbent and whether its
    value improves on the incumbent's: 1 left and improving, 2 right and
    improving, 3 right and not, 4 left and not.  A value tie counts as not
    improving, keeping the incumbent in place; a trial at the incumbent
    raises :class:`TrialAtCenterError`.  The trial slots in next to the
    incumbent and the far point on the opposite side drops off; every kept
    point and value is the same float object as before.

    Only what that can break is checked: the gaps on either side of the
    trial and the new centre triple.  The new ends are old points, so the
    span cannot grow (float subtraction is monotone) and every kept gap of
    a checked ``x`` still clears the minimum gap.  A refusal raises the
    full check's error, wrapped in :class:`InvariantBrokenError`.
    """
    n = len(x)
    c = n >> 1
    xm = x[c]
    if xtrial == xm:
        raise TrialAtCenterError(f"trial coincides with incumbent at {xtrial!r}")
    if xtrial < xm:
        rule = 1 if ftrial < fv[c] else 4
    else:
        rule = 2 if ftrial < fv[c] else 3
    pick, i = _PICKERS[n][rule]
    nx = pick(x + (xtrial,))
    nf = pick(fv + (ftrial,))
    gap = _MIN_GAP * (nx[-1] - nx[0])
    if nx[i] - nx[i - 1] > gap and nx[i + 1] - nx[i] > gap and nf[c - 1] >= nf[c] <= nf[c + 1]:
        return rule, nx, nf
    try:  # refused: the full check of the new points names the failure
        _check_points(nx, gap)
        _check_centre(nf, c)
    except BracketError as exc:
        raise InvariantBrokenError(
            f"update {rule} with trial {xtrial!r} broke the bracket: {exc}"
        ) from exc


def inner_length(b: Bracket) -> float:
    """Distance ``xr1 - xl1`` between the incumbent's nearest neighbours.

    This is the quantity solvers drive to zero; the termination test and the
    convergence-rate metric are both stated in terms of it.  For a
    three-point bracket it is the whole interval.
    """
    return b.xr1 - b.xl1


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
