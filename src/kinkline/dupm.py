"""Dynamic solver: escalate the curvature adjustment as evidence arrives.

The fixed-constant solver needs its adjustment constant chosen in advance;
too small and the models stop underestimating, too large and every step
degrades to the slow closed-form limit.  This solver raises the constant on
the fly, never lowering it, using two triggers per iteration:

* a floor derived from the requirement that neither model may sit above
  the incumbent's value at the incumbent (a necessary condition for the
  models to underestimate their pieces), and
* enough to make the max-model minimizer an intersection of the two
  models, or an endpoint of the inner interval, rather than the interior
  vertex of a convex one, located by bisection between the current
  constant and the concavity threshold.  Above that threshold neither
  model is convex, so the condition always holds there.

Independently, if the same flank's inner point was replaced three
iterations running, the next trial is forced to the closed-form extremal
step, which guarantees both flanks keep moving.

The loop is :func:`~kinkline.supm.run_bracket_solver`; the flank history
is read from the update rules it has applied.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .brackets import ExtendedBracket7, inner5
from .eupm import eupm_step
from .models import build_model, divided_diff2, scaling_h
from .result import SolverResult
from .supm import _min_separation, argmin_max_quadratics, run_bracket_solver, supm_step

#: Relative tolerance for deciding that the two models agree at the step.
INTERSECTION_RTOL = 1e-10


class ChiConditionError(RuntimeError):
    """The intersection condition failed just above the concavity
    threshold.  No model is convex there, so no vertex can win and the
    condition holds for every bracket; this indicates a bug."""


def _side_dd2(b: ExtendedBracket7, side: str) -> float:
    x, fv = b.x, b.fv
    if side == "L":
        i1, i2, i3 = 2, 1, 0
    else:
        i1, i2, i3 = 4, 5, 6
    return divided_diff2(fv[i1], fv[i2], fv[i3], x[i1], x[i2], x[i3])


def _centre_dd2(b: ExtendedBracket7, side: str) -> float:
    x, fv = b.x, b.fv
    if side == "L":
        i1, i2 = 2, 1
    else:
        i1, i2 = 4, 5
    return divided_diff2(fv[3], fv[i1], fv[i2], x[3], x[i1], x[i2])


def alpha_floor(b: ExtendedBracket7) -> float:
    """Smallest constant keeping both models at or below the incumbent value.

    May be negative; the caller clamps with the running maximum.
    """
    h = scaling_h(b)
    return max(_side_dd2(b, k) - _centre_dd2(b, k) for k in ("L", "R")) / h


def alpha_plus(b: ExtendedBracket7) -> float:
    """Concavity threshold: above it both models curve downward, so the
    minimizer of their max over the inner interval is an intersection
    point or an endpoint of the interval, never a vertex."""
    return max(_side_dd2(b, "L"), _side_dd2(b, "R")) / scaling_h(b)


def intersection_condition(b: ExtendedBracket7, alpha: float) -> bool:
    """Is the max-model minimizer a crossing of the two models or an
    endpoint of the inner interval, rather than the vertex of a convex one?

    Which candidate won decides: a crossing or an endpoint meets the
    condition.  A winning vertex meets it only if the other model passes
    through it too, checked with a relative tolerance: the incumbent value
    sets the scale when both model values are near zero.
    """
    ql = build_model("L", b, alpha)
    qr = build_model("R", b, alpha)
    g, kind = argmin_max_quadratics(ql, qr, b.xl1, b.xr1, b.xm)
    if kind != "vertex":
        return True
    vl, vr = ql(g), qr(g)
    return abs(vl - vr) <= INTERSECTION_RTOL * (abs(vl) + abs(vr) + abs(b.fm))


def chi(b: ExtendedBracket7, alpha_lo: float, tol: float) -> float:
    """Bisect for the smallest constant granting the intersection condition.

    Returns ``alpha_lo`` unchanged when the condition already holds there.
    Otherwise searches (alpha_lo, threshold]; the returned value is the
    upper end of the final bisection interval, where the condition was
    checked to hold.  The search starts just above the threshold, where
    the condition always holds; :class:`ChiConditionError` reports the
    broken invariant if it does not.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if intersection_condition(b, alpha_lo):
        return alpha_lo
    ap = alpha_plus(b)
    hi = max(ap, alpha_lo) + max(tol, 1e-12 * max(1.0, abs(ap)))
    if not intersection_condition(b, hi):
        raise ChiConditionError(
            f"models fail to intersect even at alpha={hi!r} (threshold {ap!r})"
        )
    lo = alpha_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if intersection_condition(b, mid):
            hi = mid
        else:
            lo = mid
    return hi


def escalate_alpha(b: ExtendedBracket7, alpha: float) -> float:
    """Raise ``alpha`` to cover the necessary-condition floor and the
    intersection condition; never lowers it.  The bisection width is 1e-3
    relative to the concavity threshold."""
    alpha = max(alpha, alpha_floor(b))
    return chi(b, alpha, 1e-3 * max(1.0, abs(alpha_plus(b))))


def dupm_step(
    b: ExtendedBracket7, alpha: float, branches: Sequence[int], delta: float
) -> float:
    """Trial point: the closed-form step when the last three updates all
    replaced the same flank's inner point, otherwise the max-model step at
    ``alpha``, which must already be escalated for this iteration.

    ``branches`` lists the update rules applied so far, oldest first;
    updates 1 and 3 replace the right inner point, 2 and 4 the left one.
    """
    last = branches[-3:]
    if len(last) == 3 and len({br in (1, 3) for br in last}) == 1:
        return _min_separation(eupm_step(inner5(b)), b.xl1, b.xm, b.xr1, delta)
    return supm_step(b, alpha, delta)


def dupm_minimize(
    oracle: Callable[[float], float],
    b0: ExtendedBracket7,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
) -> SolverResult:
    """Run the dynamic solver from ``b0``; see
    :func:`~kinkline.supm.run_bracket_solver`.

    The adjustment constant starts at zero.  Each iteration escalates it by
    :func:`escalate_alpha`, then picks the trial point by
    :func:`dupm_step`.  The per-iteration constants are returned in
    ``alphas`` (one entry per completed iteration).
    """
    alpha = 0.0
    alphas: list[float] = []

    def next_trial(b, branches, delta):
        nonlocal alpha
        alpha = escalate_alpha(b, alpha)
        xt = dupm_step(b, alpha, branches, delta)
        alphas.append(alpha)
        return xt

    result = run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
    result.alphas = alphas
    return result
