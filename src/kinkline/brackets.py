"""The bracket type, its geometry and its arithmetic.

A bracket is an ascending tuple of abscissae whose centre point carries
the smallest value of the inner triple, so a local minimum is pinned
inside the incumbent's two neighbours.  One frozen type, :class:`Bracket`,
holds the points and their values as finite builtin floats, whatever
numbers it is built from, so no solver computes in NumPy scalars; it
validates them and names the inner triple, and comes in three sizes.
:class:`ExtendedBracket7` carries three side points on each flank, enough
to fit one quadratic model per side; :class:`ExtendedBracket5` is its
inner five, which the closed-form step needs; :class:`Bracket3` is the
inner triple that the classic solvers move, with the names ``xl``, ``xr``,
``fl`` and ``fr`` for its ends.

Every bracket caches the objective value at each point.  Solvers never
re-query the oracle at a point the bracket already holds; fresh oracle calls
happen only at new trial points.  Two tuples of builtin floats are kept as
they are; other numbers are converted by ``float(+e)``, which refuses a
string, bytes or None.  Validation refuses, in this order, a NaN or
infinite point or value; for five and seven points, a span whose square
overflows (above about 1.34e154), since the closed-form step multiplies
two gaps; a gap too small; and a centre that is not minimal.  Each rule is
stated once: the gap is :func:`min_gap` for five and seven points, and
zero for three, which refuse only coincident points.

A validated :class:`Bracket` crosses the edges: solver inputs, results and
recorded brackets.  Inside the update-rule loop a bracket is its point and
value tuples, which :func:`apply_update`, the one update step, maps to the
next pair, checking only what its rule (it owns their numbering) can break.
Only that loop, handing out tuples :func:`apply_update` made, and golden
section, whose strictly ascending triples are positional only, may skip
validation through :func:`trusted_build`.  The rule that admits a trial
sits beside the gap check it must clear: :func:`min_separation` keeps it
:func:`default_delta` away from the incumbent and the inner endpoints, more
than the :func:`min_gap` that :func:`apply_update` checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

_EPS = sys.float_info.epsilon
_INF = math.inf
_FLOAT = frozenset([float])

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


class NotFiniteError(BracketError):
    """A point or value is NaN or infinite; the message names its index."""


class TrialAtCenterError(ValueError):
    """A trial point coincided with the incumbent; the separation rule
    should have prevented this."""


class InvariantBrokenError(RuntimeError):
    """A bracket update produced an invalid bracket, or a solver proposed a
    NaN trial point; either indicates a bug."""


class BracketTooSmallError(RuntimeError):
    """No room left for a trial point respecting the minimum separation."""


def _check(x: tuple, fv: tuple, c: int, gap: float) -> None:
    """Refuse points ``x`` and values ``fv`` (centre ``c``) by the first rule they break."""
    span = x[-1] - x[0]
    a = x[0]
    for b in x[1:]:
        if not b - a > gap:
            break
        a = b
    else:  # ascending points with a finite squared span are finite, and a
        # finite sum says the values are; an overflow of either from finite
        # numbers falls through to the naming path, which decides it
        if span * span < _INF and math.isfinite(sum(fv)) and fv[c - 1] >= fv[c] <= fv[c + 1]:
            return
    for what, v in (("point", x), ("value", fv)):
        for i, e in enumerate(v):
            if not math.isfinite(e):
                raise NotFiniteError(f"{what} {i} is not finite: {e!r}")
    if len(x) > 3 and not span * span < _INF:
        raise BracketError(f"span {span!r} too wide: its square overflows")
    for i in range(1, len(x)):
        if not x[i] - x[i - 1] > gap:
            raise NotAscendingError(i)
    if not (fv[c - 1] >= fv[c] <= fv[c + 1]):
        raise NotABracketError(
            f"centre condition violated: f={fv[c - 1]!r}, {fv[c]!r}, {fv[c + 1]!r}"
        )


def trusted_build(cls: type[Bracket], x: tuple[float, ...], fv: tuple[float, ...]) -> Bracket:
    """The trusted build: an unchecked ``cls`` of the tuples ``x`` and ``fv``,
    for the update-rule loop and golden section; see the module docstring."""
    b = object.__new__(cls)
    d = b.__dict__
    d["x"], d["fv"] = x, fv
    return b


@dataclass(frozen=True, init=False)
class Bracket:
    """Ascending points ``x`` with cached values ``fv``, centre at index
    ``len(x) // 2`` carrying the smallest of the inner value triple.
    ``x`` and ``fv`` may be any iterables of finite real numbers, NumPy's
    included; they are stored as tuples of builtin floats.

    A subclass sets the point count ``_N``, which fixes the centre index
    ``_CENTRE``.  Five or seven points must span less than about 1.34e154,
    so that its square is finite, and adjacent ones must lie more than
    :func:`min_gap` apart.  Instances are immutable, so one bracket can
    start many solvers.
    """

    x: tuple[float, ...]
    fv: tuple[float, ...]

    _N = 0
    _CENTRE = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._CENTRE = cls._N // 2

    def __init__(self, x: Iterable[float], fv: Iterable[float]):
        if not (type(x) is type(fv) is tuple and _FLOAT.issuperset(map(type, x + fv))):
            x, fv = tuple([float(+e) for e in x]), tuple([float(+e) for e in fv])
        if not len(x) == len(fv) == self._N:
            raise BracketError(f"need exactly {self._N} points and {self._N} values")
        _check(x, fv, self._CENTRE, min_gap(x) if self._N > 3 else 0.0)
        d = self.__dict__  # frozen: the fields go straight into the instance dict
        d["x"], d["fv"] = x, fv

    xl1 = property(lambda self: self.x[self._CENTRE - 1])
    xm = property(lambda self: self.x[self._CENTRE])
    xr1 = property(lambda self: self.x[self._CENTRE + 1])
    fm = property(lambda self: self.fv[self._CENTRE])


class Bracket3(Bracket):
    """Three points ``xl < xm < xr`` with ``f(xl) >= f(xm) <= f(xr)``.

    Guarantees a local minimum in ``(xl, xr)``.  It refuses only
    coincident points, whatever its span: the classic solvers divide by no
    gap and multiply no two.
    """

    _N = 3

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


def min_gap(x: Sequence[float]) -> float:
    """The gap adjacent points of the five- or seven-point bracket with
    points ``x`` must exceed: :data:`MIN_GAP_FACTOR` epsilons of its span,
    the one spelling that the constructor, :func:`apply_update` and
    :func:`default_delta` share."""
    return _MIN_GAP * (x[-1] - x[0])


def default_delta(eps: float, x: Sequence[float]) -> float:
    """Separation floor on the five- or seven-point bracket with points
    ``x``: a quarter of the termination scale ``eps``, or, where coarser,
    its :func:`min_gap` plus one unit of the float grid at the larger inner
    endpoint.  The grid unit lands a trial on a distinct float; the gap,
    with half that unit to spare for the clip's rounding, keeps
    :func:`apply_update` from refusing the trial, whose new bracket spans
    no more.  Neither term grows as the bracket shrinks."""
    c = len(x) // 2
    return max(eps / 4.0, min_gap(x) + math.ulp(max(abs(x[c - 1]), abs(x[c + 1]))))


def min_separation(g: float, lo: float, mid: float, hi: float, delta: float) -> float:
    """Project the proposal ``g`` onto [lo+delta, hi-delta] minus the
    delta-ball at mid: the trial the update-rule loop evaluates.  Rounding
    may leave a clipped trial up to half an ulp of itself short of
    ``delta``.  When both side slots are open, the projection nearer ``g``
    wins, the left one on a tie, and ``mid - delta`` on an exact tie at the
    incumbent.  Raises :class:`BracketTooSmallError` when both side slots
    are empty, and else :class:`InvariantBrokenError` for a NaN ``g``."""
    # min, max, abs and the key (dq, q) < (dp, p) are spelt out as the
    # comparisons they make, faster than the calls and, NaN and signed
    # zeros included, giving what the calls give.
    lo_in, mid_lo, mid_hi, hi_in = lo + delta, mid - delta, mid + delta, hi - delta
    left_ok = mid_lo >= lo_in
    right_ok = hi_in >= mid_hi
    if not left_ok and not right_ok:
        raise BracketTooSmallError(
            f"no admissible trial point in ({lo}, {hi}) with separation {delta}"
        )
    if g != g:
        raise InvariantBrokenError(f"the solver proposed trial {g!r}")
    if g == mid:
        return mid_lo if left_ok else mid_hi
    if left_ok:
        p = lo_in if lo_in > g else g
        p = mid_lo if mid_lo < p else p
        if not right_ok:
            return p
    q = mid_hi if mid_hi > g else g
    q = hi_in if hi_in < q else q
    if not left_ok:
        return q
    dq = q - g if q > g else g - q
    dp = p - g if p > g else g - p
    return q if dq < dp or (dq == dp and q < p) else p


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
    full check's error, wrapped in :class:`InvariantBrokenError`.  It
    takes no infinite ``ftrial``, which the solver loop never passes.
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
    gap = min_gap(nx)
    if nx[i] - nx[i - 1] > gap and nx[i + 1] - nx[i] > gap and nf[c - 1] >= nf[c] <= nf[c + 1]:
        return rule, nx, nf
    try:  # refused: the full check of the new bracket names the failure
        _check(nx, nf, c, gap)
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
