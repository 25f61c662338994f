"""Static-constant solver: minimize the max of the two side quadratics.

Each iteration builds the left and right adjusted quadratics with a fixed
constant ``alpha``, takes the minimizer of their pointwise maximum over the
inner interval as the next trial point, evaluates the oracle there and
shuffles the seven-point bracket by one of four update rules depending on
which side the trial fell and whether it improved on the incumbent.  Each
rule keeps one flank's points, so the solver carries that flank's
coefficients over in a :class:`Flanks` record, which the dynamic solver
shares, and recomputes only the other's.

Every solver runs in one loop, :func:`run_solver`, which owns the stop
rule, the budget, the oracle-call count, the non-finite value check and
the trace; a solver supplies only its iterations, and refuses a bracket of
another size than its own (:func:`~kinkline.brackets.require`).  Those
that move a five- or seven-point bracket by the four update rules
(fixed-constant, extremal, dynamic and Mifflin-Strodiot) share
:func:`run_bracket_solver` and supply only a proposed trial point.  That
loop then keeps the trial a minimum separation ``delta`` away from the
incumbent and the inner endpoints, which guarantees the bracket strictly
shrinks even when the models misbehave: the solvers propose, the loop
clips.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator, Literal

from .brackets import (
    MIN_GAP_FACTOR,
    Bracket,
    ExtendedBracket7,
    InvariantBrokenError,
    apply_update,
    inner_length,
    require,
    trusted_build,
)
from .models import Model, flank_coeffs, scaling_h
from .result import SolverResult, Status

_EPS = sys.float_info.epsilon


class BracketTooSmallError(RuntimeError):
    """No room left for a trial point respecting the minimum separation."""


class NonFiniteValueError(ValueError):
    """The oracle returned NaN or an infinity at a trial point."""


class AdjustmentOverflowError(ValueError):
    """The adjustment ``alpha * h`` of the starting bracket is not finite."""


def default_delta(eps: float, x: tuple[float, ...]) -> float:
    """Separation floor on the five- or seven-point bracket with points
    ``x``: a quarter of the termination scale ``eps``, or, where coarser,
    the bracket's minimum gap between adjacent points plus one unit of the
    float grid at the larger inner endpoint.

    The grid unit lands a trial on a distinct float; the gap, with half
    that unit to spare for the clip's rounding, keeps the update from
    refusing the trial, whose new bracket spans no more.  Neither term
    grows as the bracket shrinks.
    """
    c = len(x) // 2
    gap = MIN_GAP_FACTOR * _EPS * (x[-1] - x[0])
    return max(eps / 4.0, gap + math.ulp(max(abs(x[c - 1]), abs(x[c + 1]))))


#: Kinds of candidate that can minimize the max of two quadratics.
Winner = Literal["endpoint", "crossing", "vertex", "flat"]


def argmin_max_quadratics(
    ql: Model, qr: Model, left: float, right: float, centre: float
) -> tuple[float, Winner]:
    """Minimizer over [left, right] of the pointwise max of two flank
    models (see :mod:`~kinkline.models`), and which kind of candidate it is.

    The minimum is attained at an intersection of the two (``"crossing"``),
    at the vertex of a convex one (``"vertex"``), or at an endpoint
    (``"endpoint"``); those are exactly the candidates scored here.
    ``"flat"`` means both models are one constant, so every point
    minimizes and the midpoint is returned.  Ties go to the candidate
    nearest ``centre``, then leftward; a point found as more than one kind
    is reported as the first of endpoint, crossing, vertex.  ``centre``
    also anchors the shifted coordinates used for the root solve.
    """
    l0, l1, l2, lx1, lx2 = ql
    r0, r1, r2, rx1, rx2 = qr
    s = centre
    lo, hi = left - s, right - s

    if l1 == 0.0 and l2 == 0.0 and r1 == 0.0 and r2 == 0.0 and l0 == r0:
        return s + 0.5 * (lo + hi), "flat"

    cands = [lo, hi]
    # ql - qr in monomial form in the shifted variable u = x - s
    a1l, a2l, a1r, a2r = lx1 - s, lx2 - s, rx1 - s, rx2 - s
    da = l2 - r2
    db = (l1 - l2 * (a1l + a2l)) - (r1 - r2 * (a1r + a2r))
    dc = (l0 - l1 * a1l + l2 * a1l * a2l) - (r0 - r1 * a1r + r2 * a1r * a2r)
    # its real roots, cancellation-safe; a discriminant a few rounding units
    # below zero counts as zero, so a grazing intersection is kept
    if da == 0.0:
        roots = (-dc / db,) if db != 0.0 else ()
    else:
        disc = db * db - 4.0 * da * dc
        if disc < 0.0 and disc >= -4.0 * _EPS * (db * db + abs(4.0 * da * dc)):
            disc = 0.0
        if disc < 0.0:
            roots = ()
        elif db == 0.0:
            r = math.sqrt(disc) / (2.0 * abs(da))
            roots = (-r, r) if r != 0.0 else (0.0,)
        else:
            q = -0.5 * (db + math.copysign(math.sqrt(disc), db))
            # q is 0 only when db is subnormal and 4 da dc underflowed: dc as 0
            roots = (q / da, dc / q) if q != 0.0 else (0.0, -db / da)
    for u in roots:
        if lo <= u <= hi:
            cands.append(u)
    n_cross = len(cands)
    for _, c1, c2, x1, x2 in (ql, qr):
        if c2 > 0.0:
            u = 0.5 * (x1 + x2) - c1 / (2.0 * c2) - s
            if lo <= u <= hi:
                cands.append(u)

    # Keep the first candidate with the strictly smallest key (max value,
    # |u|, u), as min(key=...) would; models evaluate as models.model_value
    # does, and "vr if vr > vl else vl" is max(vl, vr), NaN included.
    for i, u in enumerate(cands):
        x = s + u
        vl = l0 + (x - lx1) * (l1 + l2 * (x - lx2))
        vr = r0 + (x - rx1) * (r1 + r2 * (x - rx2))
        m = vr if vr > vl else vl
        if i == 0 or m < bm or (m == bm and (abs(u), u) < (abs(bu), bu)):
            bm, bu, ib = m, u, i
    return s + bu, "endpoint" if ib < 2 else "crossing" if ib < n_cross else "vertex"


def minimize_max_quadratics(
    ql: Model, qr: Model, left: float, right: float, centre: float
) -> float:
    """Minimizer over [left, right] of the pointwise max of two flank
    models; see :func:`argmin_max_quadratics`."""
    return argmin_max_quadratics(ql, qr, left, right, centre)[0]


def _min_separation(g: float, lo: float, mid: float, hi: float, delta: float) -> float:
    """Project ``g`` onto [lo+delta, hi-delta] minus the delta-ball at mid.

    A trial clipped to the float ``mid - delta`` or ``mid + delta`` can lie
    up to half an ulp of ``mid`` short of ``delta`` from ``mid``.  When
    both side slots are open, the projection nearer ``g`` wins, and the
    left one on a tie.  An exact tie at the incumbent resolves to the
    left, ``mid - delta``.  Raises :class:`BracketTooSmallError` when both
    side slots are empty.
    """
    # The builtins min, max and abs and the tuple key are spelt out as the
    # comparisons they make, which are faster than the calls: "a if a > g
    # else g" is max(g, a) and "b if b < p else p" is min(p, b), NaN and
    # signed zeros included; "q - g if q > g else g - q" is abs(q - g); and
    # "dq < dp or (dq == dp and q < p)" is (dq, q) < (dp, p).
    lo_in, mid_lo, mid_hi, hi_in = lo + delta, mid - delta, mid + delta, hi - delta
    left_ok = mid_lo >= lo_in
    right_ok = hi_in >= mid_hi
    if not left_ok and not right_ok:
        raise BracketTooSmallError(
            f"no admissible trial point in ({lo}, {hi}) with separation {delta}"
        )
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


class Flanks:
    """A seven-point bracket's flank data, carried across iterations by the
    fixed-constant and dynamic solvers.

    ``x``, ``fv`` are the bracket's points and values, ``h`` its
    :func:`~kinkline.models.scaling_h`; ``left`` and ``right`` are the
    :func:`~kinkline.models.flank_coeffs` of points 2, 1, 0 and 4, 5, 6,
    each flank's model before adjustment, anchored at its two inner points.
    Nothing in it depends on the adjustment constant; :meth:`solve` applies
    one.
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
        self.x, self.fv, self.h = x, fv, scaling_h(x)
        if branch == 1 or branch == 3:
            self.right = flank_coeffs(x, fv, 4, 5, 6)
        else:
            self.left = flank_coeffs(x, fv, 2, 1, 0)

    def solve(self, alpha: float) -> tuple[Model, Model, float, Winner]:
        """Both flank models at ``alpha``, the tuples
        :func:`~kinkline.models.build_model` returns, and the minimizer of
        their max over the inner interval with its kind."""
        x, ah = self.x, alpha * self.h
        l0, l1, l2 = self.left
        r0, r1, r2 = self.right
        ql = (l0, l1, l2 - ah, x[2], x[1])
        qr = (r0, r1, r2 - ah, x[4], x[5])
        return (ql, qr) + argmin_max_quadratics(ql, qr, x[2], x[4], x[3])


def supm_step(fl: Flanks, alpha: float) -> float:
    """Proposed trial point: the max-model minimizer at ``alpha`` over the
    inner interval of the record's bracket, before the loop's separation
    rule (see :func:`run_bracket_solver`)."""
    return fl.solve(alpha)[2]


def check_stop_rule(eps: float, budget: int) -> None:
    """Reject a stop rule no run could meet: ``eps`` must be finite and
    positive and ``budget`` at least one iteration."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be finite and > 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")


def run_solver(
    oracle: Callable[[float], float],
    b0: Bracket,
    eps: float,
    budget: int,
    iterate: Callable[[Callable[[float], float]], Iterator[tuple]],
    record_brackets: bool = False,
) -> SolverResult:
    """Run a solver from ``b0`` until the inner length reaches ``2 * eps``
    or ``budget`` iterations are spent.

    ``iterate(evaluate)`` is the solver: a generator that yields
    ``(inner length, incumbent value, snapshot)`` once for ``b0`` and once
    after each iteration, where ``snapshot()`` returns its current bracket.
    It calls the oracle only through ``evaluate``, which counts the calls
    and raises :class:`NonFiniteValueError` on a NaN or infinite value.  A
    :class:`BracketTooSmallError` from the generator ends the run as
    ``STALLED``.
    """
    check_stop_rule(eps, budget)
    calls = 0

    def evaluate(x: float) -> float:
        nonlocal calls
        calls += 1
        fx = oracle(x)
        if not math.isfinite(fx):
            raise NonFiniteValueError(f"oracle returned {fx!r} at x={x!r}")
        return fx

    steps = iterate(evaluate)
    d, fm, snapshot = next(steps)
    trace = [(0, d, fm)]
    hist = [b0] if record_brackets else None
    status = Status.CONVERGED
    while d > 2.0 * eps:
        if len(trace) > budget:
            status = Status.BUDGET_EXHAUSTED
            break
        try:
            d, fm, snapshot = next(steps)
        except BracketTooSmallError:
            status = Status.STALLED
            break
        trace.append((len(trace), d, fm))
        if hist is not None:
            hist.append(snapshot())
    return SolverResult(
        bracket=snapshot(),
        iterations=len(trace) - 1,
        evaluations=calls,
        trace=trace,
        status=status,
        bracket_trace=hist,
    )


def run_bracket_solver(
    oracle: Callable[[float], float],
    b0: Bracket,
    eps: float,
    budget: int,
    next_trial: Callable[[tuple[float, ...], tuple[float, ...], list[int]], float],
    record_brackets: bool = False,
) -> SolverResult:
    """Run a solver that moves a five- or seven-point bracket by the four
    update rules, through :func:`run_solver`.

    The loop carries the bracket as its point and value tuples ``x, fv``.
    Each iteration asks ``next_trial(x, fv, branches)`` for the solver's
    proposed trial point, where ``branches`` lists the update rules applied
    so far, oldest first, and keeps it ``delta`` (:func:`default_delta` of
    ``x``, which stays ``eps / 4`` once it gets there) away from the
    incumbent and the inner endpoints, or stalls if there is no room.  A
    NaN proposal raises :class:`~kinkline.brackets.InvariantBrokenError`
    before the oracle is called.  It evaluates the trial once and inserts it
    by :func:`~kinkline.brackets.apply_update`, which picks the update rule.
    Only a recorded row and the result get a bracket of ``b0``'s type, by
    the trusted build.  The applied rules are returned in ``branches``.
    """
    quarter = eps / 4.0
    branches: list[int] = []
    cls, c = type(b0), b0._CENTRE
    lo, hi = c - 1, c + 1

    def iterate(evaluate):
        x, fv = b0.x, b0.fv
        delta = default_delta(eps, x)
        snapshot = lambda: trusted_build(cls, x, fv)
        yield inner_length(b0), b0.fm, snapshot
        while True:
            xt = _min_separation(next_trial(x, fv, branches), x[lo], x[c], x[hi], delta)
            if xt != xt:
                raise InvariantBrokenError(f"the solver proposed trial {xt!r}")
            br, x, fv = apply_update(xt, evaluate(xt), x, fv)
            branches.append(br)
            if delta > quarter:
                delta = default_delta(eps, x)
            yield x[hi] - x[lo], fv[c], snapshot

    result = run_solver(oracle, b0, eps, budget, iterate, record_brackets)
    result.branches = branches
    return result


def supm_minimize(
    oracle: Callable[[float], float],
    b0: ExtendedBracket7,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
    *,
    alpha: float = 0.0,
) -> SolverResult:
    """Run the fixed-constant solver with adjustment constant ``alpha``
    from ``b0``; see :func:`run_bracket_solver`.

    Each trial is :func:`supm_step`'s, taken from one :class:`Flanks`
    record that each update advances, so only the flank the update changed
    is recomputed.

    With ``alpha > 0`` the solver is not scale-free, by design: the
    adjustment ``alpha * h`` comes off a curvature in the units of f, so
    ``alpha`` carries those units and scaling f changes the trials; with
    ``alpha == 0``, scaling f by a power of two changes no bit.

    An ``alpha`` whose adjustment overflows on ``b0`` is refused with
    :class:`AdjustmentOverflowError`; ``h`` only shrinks as the bracket
    does, so a finite start stays finite.
    """
    require(b0, ExtendedBracket7)
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and >= 0")
    fl = Flanks(b0.x, b0.fv)
    if not math.isfinite(alpha * fl.h):
        raise AdjustmentOverflowError(
            f"alpha {alpha!r} overflows: alpha * h is not finite on the starting "
            f"bracket (h = {fl.h!r})"
        )

    def next_trial(x, fv, branches):
        if branches:
            fl.advance(x, fv, branches[-1])
        return supm_step(fl, alpha)

    return run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
