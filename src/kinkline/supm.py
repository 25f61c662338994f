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
the trace; a solver supplies only its iterations.  Those that move a five-
or seven-point bracket by the four update rules (fixed-constant,
extremal, dynamic and Mifflin-Strodiot) share :func:`run_bracket_solver`
and supply only a proposed trial point.  That loop then keeps the trial a
minimum separation ``delta`` away from the incumbent and the inner
endpoints, which guarantees the bracket strictly shrinks even when the
models misbehave: the solvers propose, the loop clips.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator, Literal

from .brackets import Bracket, BracketError, ExtendedBracket7, inner_length
from .models import Model, flank_coeffs, scaling_h
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
    # q is 0 only when b is subnormal and 4ac underflowed: take c as 0
    return (q / a, c / q) if q != 0.0 else (0.0, -b / a)


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
    for u in _real_roots(da, db, dc):
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
    left_ok = mid - delta >= lo + delta
    right_ok = hi - delta >= mid + delta
    if not left_ok and not right_ok:
        raise BracketTooSmallError(
            f"no admissible trial point in ({lo}, {hi}) with separation {delta}"
        )
    if g == mid:
        return mid - delta if left_ok else mid + delta
    if left_ok:
        p = min(max(g, lo + delta), mid - delta)
        if not right_ok:
            return p
    q = min(max(g, mid + delta), hi - delta)
    if not left_ok or (abs(q - g), q) < (abs(p - g), p):
        return q
    return p


class Flanks:
    """A seven-point bracket's flank data, carried across iterations by the
    fixed-constant and dynamic solvers.

    ``b`` is the bracket and ``h`` its :func:`~kinkline.models.scaling_h`;
    ``left`` and ``right`` are the :func:`~kinkline.models.flank_coeffs`
    of points 2, 1, 0 and 4, 5, 6, each flank's model before adjustment,
    anchored at the flank's two inner points of ``b``.  Nothing in it
    depends on the adjustment constant; :meth:`solve` applies one.
    """

    __slots__ = ("b", "h", "left", "right")

    def __init__(self, b: ExtendedBracket7):
        x, fv = b.x, b.fv
        self.b = b
        self.h = scaling_h(b)
        self.left = flank_coeffs(x, fv, 2, 1, 0)
        self.right = flank_coeffs(x, fv, 4, 5, 6)

    def advance(self, b: ExtendedBracket7, branch: int) -> None:
        """Move the record in place to ``b``, which update rule ``branch``
        made from the record's bracket.  Rules 1 and 3 keep the left flank's
        points and rules 2 and 4 the right's, so that flank's coefficients
        stay, exactly as recomputing them would give; the other flank and
        ``h`` are recomputed."""
        x, fv = b.x, b.fv
        self.b = b
        self.h = scaling_h(b)
        if branch == 1 or branch == 3:
            self.right = flank_coeffs(x, fv, 4, 5, 6)
        else:
            self.left = flank_coeffs(x, fv, 2, 1, 0)

    def solve(self, alpha: float) -> tuple[Model, Model, float, Winner]:
        """Both flank models at ``alpha``, the tuples
        :func:`~kinkline.models.build_model` returns, and the minimizer of
        their max over the inner interval with its kind."""
        x, ah = self.b.x, alpha * self.h
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


def classify_branch(xtrial: float, ftrial: float, b) -> int:
    """Which of the four update rules applies to this trial.

    1: left of the incumbent and improving; 2: right, improving;
    3: right, not improving; 4: left, not improving.  A value tie counts
    as not improving, keeping the incumbent in place.
    """
    xm = b.xm
    if xtrial == xm:
        raise TrialAtCenterError(f"trial coincides with incumbent at {xtrial!r}")
    if xtrial < xm:
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
    next_trial: Callable[[Bracket, list[int]], float],
    record_brackets: bool = False,
) -> SolverResult:
    """Run a solver that moves a five- or seven-point bracket by the four
    update rules, through :func:`run_solver`.

    Each iteration asks ``next_trial(bracket, branches)`` for the solver's
    proposed trial point, where ``branches`` lists the update rules applied
    so far, oldest first, and keeps it ``delta`` (:func:`default_delta` at
    solve start) away from the incumbent and the inner endpoints, or stalls
    if there is no room.  It evaluates the trial once and inserts it by
    :func:`classify_branch` and :func:`apply_update`.  The applied rules
    are returned in ``branches``.
    """
    delta = default_delta(eps, b0.xl1, b0.xr1)
    branches: list[int] = []
    c = b0._CENTRE
    lo, hi = c - 1, c + 1

    def iterate(evaluate):
        b = b0
        snapshot = lambda: b
        yield inner_length(b), b.fm, snapshot
        while True:
            x = b.x
            xt = _min_separation(next_trial(b, branches), x[lo], x[c], x[hi], delta)
            ft = evaluate(xt)
            br = classify_branch(xt, ft, b)
            b = apply_update(br, xt, ft, b)
            branches.append(br)
            yield b.x[hi] - b.x[lo], b.fv[c], snapshot

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
    """
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and >= 0")
    fl = Flanks(b0)

    def next_trial(b, branches):
        if branches:
            fl.advance(b, branches[-1])
        return supm_step(fl, alpha)

    return run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
