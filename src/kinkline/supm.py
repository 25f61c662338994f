"""Static-constant solver: minimize the max of the two side quadratics.

Each iteration builds the left and right adjusted quadratics with a fixed
constant ``alpha``, takes the minimizer of their pointwise maximum over the
inner interval as the next trial point, evaluates the oracle there and
shuffles the seven-point bracket by one of four update rules depending on
which side the trial fell and whether it improved on the incumbent.

A minimum point separation ``delta`` keeps the trial away from the
incumbent and the inner endpoints, which guarantees the bracket strictly
shrinks even when the models misbehave.

Every solver runs in one loop, :func:`run_solver`, which owns the stop
rule, the budget, the oracle-call count, the non-finite value check and
the trace; a solver supplies only its iterations.  Those that move a five-
or seven-point bracket by the four update rules (fixed-constant,
extremal, dynamic and Mifflin-Strodiot) share :func:`run_bracket_solver`
and supply only their choice of trial point.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator, Literal

from .brackets import AnyBracket, ExtendedBracket, ExtendedBracket7, BracketError, inner_length
from .models import QuadModel, build_model
from .result import SolverResult, Status

_EPS = sys.float_info.epsilon


class BracketTooSmallError(RuntimeError):
    """No room left for a trial point respecting the minimum separation."""


class TrialAtCenterError(ValueError):
    """A trial point coincided with the incumbent; the separation rule
    should have prevented this."""


class InvariantBrokenError(RuntimeError):
    """A bracket update produced an invalid bracket; indicates a bug."""


class NonFiniteValueError(ValueError):
    """The oracle returned NaN or an infinity at a trial point."""


def default_delta(eps: float, xl1: float, xr1: float) -> float:
    """Separation floor: below the termination scale, above rounding noise."""
    return max(eps / 4.0, 64.0 * _EPS * (abs(xl1) + abs(xr1)))


def _difference_coeffs(ql: QuadModel, qr: QuadModel, shift: float):
    """Monomial coefficients of ql - qr in the shifted variable u = x - shift."""
    a1l, a2l = ql.x1 - shift, ql.x2 - shift
    a1r, a2r = qr.x1 - shift, qr.x2 - shift
    a = ql.c2adj - qr.c2adj
    b = (ql.c1 - ql.c2adj * (a1l + a2l)) - (qr.c1 - qr.c2adj * (a1r + a2r))
    c = (ql.c0 - ql.c1 * a1l + ql.c2adj * a1l * a2l) - (
        qr.c0 - qr.c1 * a1r + qr.c2adj * a1r * a2r
    )
    return a, b, c


def _real_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a*u^2 + b*u + c, via the cancellation-safe formula.

    A discriminant within a few rounding units of zero is treated as zero
    so grazing intersections are kept.
    """
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    scale = b * b + abs(4.0 * a * c)
    if disc < 0.0:
        if disc >= -4.0 * _EPS * scale:
            disc = 0.0
        else:
            return ()
    sq = math.sqrt(disc)
    if b == 0.0:
        r = sq / (2.0 * abs(a))
        return (-r, r) if r != 0.0 else (0.0,)
    q = -0.5 * (b + math.copysign(sq, b))
    return (q / a, c / q)


#: Kinds of candidate that can minimize the max of two quadratics.
Winner = Literal["endpoint", "crossing", "vertex", "flat"]


def argmin_max_quadratics(
    ql: QuadModel, qr: QuadModel, left: float, right: float, centre: float
) -> tuple[float, Winner]:
    """Minimizer over [left, right] of the pointwise max of two quadratics,
    and which kind of candidate it is.

    The minimum is attained at an intersection of the two (``"crossing"``),
    at the vertex of a convex one (``"vertex"``), or at an endpoint
    (``"endpoint"``); those are exactly the candidates scored here.
    ``"flat"`` means both models are one constant, so every point
    minimizes and the midpoint is returned.  Ties go to the candidate
    nearest ``centre``, then leftward; a point found as more than one kind
    is reported as the first of endpoint, crossing, vertex.  ``centre``
    also anchors the shifted coordinates used for the root solve.
    """
    s = centre
    lo, hi = left - s, right - s

    if (
        ql.c1 == 0.0
        and ql.c2adj == 0.0
        and qr.c1 == 0.0
        and qr.c2adj == 0.0
        and ql.c0 == qr.c0
    ):
        return s + 0.5 * (lo + hi), "flat"

    cands = [lo, hi]
    da, db, dc = _difference_coeffs(ql, qr, s)
    for u in _real_roots(da, db, dc):
        if lo <= u <= hi:
            cands.append(u)
    n_cross = len(cands)
    for q in (ql, qr):
        if q.c2adj > 0.0:
            u = q.vertex() - s
            if lo <= u <= hi:
                cands.append(u)

    best = min(cands, key=lambda u: (max(ql(s + u), qr(s + u)), abs(u), u))
    i = cands.index(best)
    return s + best, "endpoint" if i < 2 else "crossing" if i < n_cross else "vertex"


def minimize_max_quadratics(
    ql: QuadModel, qr: QuadModel, left: float, right: float, centre: float
) -> float:
    """Minimizer over [left, right] of the pointwise max of two quadratics;
    see :func:`argmin_max_quadratics`."""
    return argmin_max_quadratics(ql, qr, left, right, centre)[0]


def _raw_supm_step(b: ExtendedBracket7, alpha: float) -> float:
    """Max-model minimizer over the inner interval, before the separation
    projection."""
    ql = build_model("L", b, alpha)
    qr = build_model("R", b, alpha)
    return minimize_max_quadratics(ql, qr, b.xl1, b.xr1, b.xm)


def _min_separation(g: float, lo: float, mid: float, hi: float, delta: float) -> float:
    """Project ``g`` onto [lo+delta, hi-delta] minus the delta-ball at mid.

    An exact tie at the incumbent resolves to the left, ``mid - delta``.
    Raises :class:`BracketTooSmallError` when both side slots are empty.
    """
    left_ok = mid - delta >= lo + delta
    right_ok = hi - delta >= mid + delta
    if not left_ok and not right_ok:
        raise BracketTooSmallError(
            f"no admissible trial point in ({lo}, {hi}) with separation {delta}"
        )
    if g == mid:
        return mid - delta if left_ok else mid + delta
    proj = []
    if left_ok:
        proj.append(min(max(g, lo + delta), mid - delta))
    if right_ok:
        proj.append(min(max(g, mid + delta), hi - delta))
    return min(proj, key=lambda x: (abs(x - g), x))


def supm_step(b: ExtendedBracket7, alpha: float, delta: float) -> float:
    """Next trial point: the max-model minimizer, kept ``delta`` away from
    the incumbent and the inner endpoints."""
    g = _raw_supm_step(b, alpha)
    if delta == 0.0:
        return g
    return _min_separation(g, b.xl1, b.xm, b.xr1, delta)


def classify_branch(xtrial: float, ftrial: float, b) -> int:
    """Which of the four update rules applies to this trial.

    1: left of the incumbent and improving; 2: right, improving;
    3: right, not improving; 4: left, not improving.  A value tie counts
    as not improving, keeping the incumbent in place.
    """
    if xtrial == b.xm:
        raise TrialAtCenterError(f"trial coincides with incumbent at {xtrial!r}")
    if xtrial < b.xm:
        return 1 if ftrial < b.fm else 4
    return 2 if ftrial < b.fm else 3


def apply_update(branch: int, xtrial: float, ftrial: float, b):
    """Insert the trial into the bracket by update rule ``branch``.

    Works on both seven- and five-point brackets: the trial slots in next
    to the incumbent and the far point on the opposite side drops off.
    Cached values travel with their points; only the trial's value is new.
    The result is re-validated, so a rule inconsistent with the trial's
    position surfaces as :class:`InvariantBrokenError`.
    """
    x, fv = b.x, b.fv
    c = b._CENTRE
    n = len(x)
    t, ft = (xtrial,), (ftrial,)
    if branch == 1:
        nx, nf = x[:c] + t + x[c : n - 1], fv[:c] + ft + fv[c : n - 1]
    elif branch == 2:
        nx, nf = x[1 : c + 1] + t + x[c + 1 :], fv[1 : c + 1] + ft + fv[c + 1 :]
    elif branch == 3:
        nx, nf = x[: c + 1] + t + x[c + 1 : n - 1], fv[: c + 1] + ft + fv[c + 1 : n - 1]
    elif branch == 4:
        nx, nf = x[1:c] + t + x[c:], fv[1:c] + ft + fv[c:]
    else:
        raise ValueError(f"branch must be 1..4, got {branch!r}")
    try:
        return type(b)(nx, nf)
    except BracketError as exc:
        raise InvariantBrokenError(
            f"update {branch} with trial {xtrial!r} broke the bracket: {exc}"
        ) from exc


def check_stop_rule(eps: float, budget: int) -> None:
    """Reject a stop rule no run could meet: ``eps`` must be positive and
    ``budget`` at least one iteration."""
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")


def run_solver(
    oracle: Callable[[float], float],
    b0: AnyBracket,
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
    b0: ExtendedBracket,
    eps: float,
    budget: int,
    next_trial: Callable[[ExtendedBracket, list[int], float], float],
    record_brackets: bool = False,
) -> SolverResult:
    """Run a solver that moves a five- or seven-point bracket by the four
    update rules, through :func:`run_solver`.

    Each iteration asks ``next_trial(bracket, branches, delta)`` for a
    trial point kept ``delta`` (:func:`default_delta` at solve start) away
    from the incumbent and the inner endpoints, where ``branches`` lists the
    update rules applied so far, oldest first.  It evaluates the trial once
    and inserts it by :func:`classify_branch` and :func:`apply_update`.
    The applied rules are returned in ``branches``.
    """
    delta = default_delta(eps, b0.xl1, b0.xr1)
    branches: list[int] = []

    def iterate(evaluate):
        b = b0
        snapshot = lambda: b
        yield inner_length(b), b.fm, snapshot
        while True:
            xt = next_trial(b, branches, delta)
            ft = evaluate(xt)
            br = classify_branch(xt, ft, b)
            b = apply_update(br, xt, ft, b)
            branches.append(br)
            yield inner_length(b), b.fm, snapshot

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
    from ``b0``; see :func:`run_bracket_solver`."""
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")

    def next_trial(b, branches, delta):
        return supm_step(b, alpha, delta)

    return run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
