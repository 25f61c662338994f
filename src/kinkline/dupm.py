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

Only the adjusted curvature depends on the constant, so the flank data
lives in one :class:`~kinkline.supm.Flanks` record, the one the
fixed-constant solver carries: the scale ``h`` and each flank's model
coefficients.  Each update advances it, recomputing only the flank whose
points changed.  The floor (with the two centre second divided
differences it computes), the threshold, every condition check and the
step read that record; a model at ``alpha`` takes ``alpha * h`` off the
stored curvature, as :func:`~kinkline.models.build_model` does.  A
condition check that holds keeps its max-model minimizer on the record,
and the step at the constant the escalation accepted takes it from there
instead of solving again.

The loop is :func:`~kinkline.supm.run_bracket_solver`; the flank history
is read from the update rules it has applied.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .brackets import ExtendedBracket7, inner5
from .eupm import eupm_step
from .models import divided_diff2
# Not called here (the models come from the carried Flanks record), but
# perfbench/test_perfbench.py checks that tracing restores this binding.
from .models import build_model  # noqa: F401
from .result import SolverResult
from .supm import Flanks, _as_flanks, _min_separation, run_bracket_solver

#: Relative tolerance for deciding that the two models agree at the step.
INTERSECTION_RTOL = 1e-10


class ChiConditionError(RuntimeError):
    """The intersection condition failed just above the concavity
    threshold.  No model is convex there, so no vertex can win and the
    condition holds for every bracket; this indicates a bug."""


def alpha_floor(b: ExtendedBracket7 | Flanks) -> float:
    """Smallest constant keeping both models at or below the incumbent value.

    May be negative; the caller clamps with the running maximum.  ``b`` is
    a bracket or its :class:`~kinkline.supm.Flanks`, as are the brackets
    taken by the functions below.  Each flank's curvature is compared with
    the centre second divided difference through the incumbent and the
    flank's two inner points.
    """
    fl = _as_flanks(b)
    x, fv = fl.b.x, fl.b.fv
    dl = divided_diff2(fv[3], fv[2], fv[1], x[3], x[2], x[1])
    dr = divided_diff2(fv[3], fv[4], fv[5], x[3], x[4], x[5])
    return max(fl.left[2] - dl, fl.right[2] - dr) / fl.h


def alpha_plus(b: ExtendedBracket7 | Flanks) -> float:
    """Concavity threshold: above it both models curve downward, so the
    minimizer of their max over the inner interval is an intersection
    point or an endpoint of the interval, never a vertex."""
    fl = _as_flanks(b)
    return max(fl.left[2], fl.right[2]) / fl.h


def intersection_condition(b: ExtendedBracket7 | Flanks, alpha: float) -> bool:
    """Is the max-model minimizer a crossing of the two models or an
    endpoint of the inner interval, rather than the vertex of a convex one?

    Which candidate won decides: a crossing or an endpoint meets the
    condition.  A winning vertex meets it only if the other model passes
    through it too, checked with a relative tolerance: the incumbent value
    sets the scale when both model values are near zero.  When the
    condition holds, the minimizer is kept as the record's ``accepted``.
    """
    fl = _as_flanks(b)
    ql, qr, g, kind = fl.solve(alpha)
    if kind == "vertex":
        vl, vr = ql(g), qr(g)
        if not abs(vl - vr) <= INTERSECTION_RTOL * (abs(vl) + abs(vr) + abs(fl.b.fm)):
            return False
    fl.accepted = (alpha, g)
    return True


def chi(b: ExtendedBracket7 | Flanks, alpha_lo: float, tol: float) -> float:
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
    fl = _as_flanks(b)
    if intersection_condition(fl, alpha_lo):
        return alpha_lo
    ap = alpha_plus(fl)
    hi = max(ap, alpha_lo) + max(tol, 1e-12 * max(1.0, abs(ap)))
    if not intersection_condition(fl, hi):
        raise ChiConditionError(
            f"models fail to intersect even at alpha={hi!r} (threshold {ap!r})"
        )
    lo = alpha_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if intersection_condition(fl, mid):
            hi = mid
        else:
            lo = mid
    return hi


def escalate_alpha(b: ExtendedBracket7 | Flanks, alpha: float) -> float:
    """Raise ``alpha`` to cover the necessary-condition floor and the
    intersection condition; never lowers it.  The bisection width is 1e-3
    relative to the concavity threshold.  The returned constant is the
    last one whose condition check held, so its minimizer is the record's
    ``accepted``."""
    fl = _as_flanks(b)
    alpha = max(alpha, alpha_floor(fl))
    return chi(fl, alpha, 1e-3 * max(1.0, abs(alpha_plus(fl))))


def dupm_step(
    b: ExtendedBracket7 | Flanks, alpha: float, branches: Sequence[int], delta: float
) -> float:
    """Trial point: the closed-form step when the last three updates all
    replaced the same flank's inner point, otherwise the max-model step at
    ``alpha``, which must already be escalated for this iteration.  Both
    are kept ``delta`` away from the incumbent and the inner endpoints.

    ``branches`` lists the update rules applied so far, oldest first;
    updates 1 and 3 replace the right inner point, 2 and 4 the left one.
    """
    fl = _as_flanks(b)
    b = fl.b
    last = branches[-3:]
    if len(last) == 3 and len({br in (1, 3) for br in last}) == 1:
        g = eupm_step(inner5(b))
    elif fl.accepted is not None and fl.accepted[0] == alpha:
        g = fl.accepted[1]
    else:
        g = fl.solve(alpha)[2]
    x = b.x
    return _min_separation(g, x[2], x[3], x[4], delta)


def dupm_minimize(
    oracle: Callable[[float], float],
    b0: ExtendedBracket7,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
) -> SolverResult:
    """Run the dynamic solver from ``b0``; see
    :func:`~kinkline.supm.run_bracket_solver`.

    The adjustment constant starts at zero.  Each iteration advances one
    :class:`~kinkline.supm.Flanks` record to the bracket, escalates the
    constant on it by :func:`escalate_alpha`, then picks the trial point by
    :func:`dupm_step`.  The per-iteration constants are returned in
    ``alphas`` (one entry per completed iteration).
    """
    alpha = 0.0
    alphas: list[float] = []
    fl = Flanks(b0)

    def next_trial(b, branches, delta):
        nonlocal alpha
        if branches:
            fl.advance(b, branches[-1])
        alpha = escalate_alpha(fl, alpha)
        xt = dupm_step(fl, alpha, branches, delta)
        alphas.append(alpha)
        return xt

    result = run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
    result.alphas = alphas
    return result
