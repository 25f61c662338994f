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

Only the adjusted curvature depends on the constant, so the floor, the
threshold and every condition check read the fixed-constant solver's
:class:`~kinkline.supm.Flanks` record, which each update advances; a
model at ``alpha`` is the tuple :func:`~kinkline.models.build_model`
returns.  The escalation returns its decision, the constant and the
max-model minimizer that the last condition check found there, and that
minimizer is the trial unless the closed-form override applies.

The loop is :func:`~kinkline.supm.run_bracket_solver`; the flank history
is read from the update rules it has applied, and the loop, not this
module, keeps each proposed trial point the minimum separation away.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .brackets import ExtendedBracket7, require
from .eupm import eupm_step
from .models import flank_coeffs, model_value
# Not called here (the models come from the carried Flanks record), but
# perfbench/test_perfbench.py checks that tracing restores this binding.
from .models import build_model  # noqa: F401
from .result import SolverResult
from .supm import Flanks, run_bracket_solver

#: Relative tolerance for deciding that the two models agree at the step.
INTERSECTION_RTOL = 1e-10


class ChiConditionError(RuntimeError):
    """The intersection condition failed just above the concavity
    threshold.  No model is convex there, so no vertex can win and the
    condition holds for every bracket; this indicates a bug."""


def alpha_floor(fl: Flanks) -> float:
    """Smallest constant keeping both models at or below the incumbent value.

    May be negative; the caller clamps with the running maximum.  ``fl``
    is a bracket's :class:`~kinkline.supm.Flanks`, as for the functions
    below.  Each flank's curvature is compared with the centre second
    divided difference through the incumbent and the flank's two inner
    points: the ``c2`` of :func:`~kinkline.models.flank_coeffs` on them.
    Only a difference the record does not carry is computed, and stored.
    """
    if fl.dl is None:
        fl.dl = flank_coeffs(fl.x, fl.fv, 3, 2, 1)[2]
    if fl.dr is None:
        fl.dr = flank_coeffs(fl.x, fl.fv, 3, 4, 5)[2]
    return max(fl.left[2] - fl.dl, fl.right[2] - fl.dr) / fl.h


def alpha_plus(fl: Flanks) -> float:
    """Concavity threshold: above it both models curve downward, so the
    minimizer of their max over the inner interval is an intersection
    point or an endpoint of the interval, never a vertex."""
    return max(fl.left[2], fl.right[2]) / fl.h


def intersection_condition(fl: Flanks, alpha: float) -> float | None:
    """The max-model minimizer at ``alpha`` if it is a crossing of the two
    models or an endpoint of the inner interval, and None if it is the
    vertex of a convex one.

    Which candidate won decides: a crossing or an endpoint meets the
    condition.  A winning vertex meets it only if the other model passes
    through it too, checked with a relative tolerance: the incumbent value
    sets the scale when both model values are near zero.
    """
    ql, qr, g, kind = fl.solve(alpha)
    if kind == "vertex":
        vl, vr = model_value(ql, g), model_value(qr, g)
        if not abs(vl - vr) <= INTERSECTION_RTOL * (abs(vl) + abs(vr) + abs(fl.fv[3])):
            return None
    return g


def chi(fl: Flanks, alpha_lo: float) -> tuple[float, float]:
    """Bisect for the smallest constant granting the intersection condition.

    Returns ``(alpha, g)``, where ``g`` is the max-model minimizer at
    ``alpha`` that the last check to hold found.  ``alpha`` is ``alpha_lo``
    when the condition holds there, and otherwise the upper end of the
    final bisection interval over (alpha_lo, threshold], of width 1e-3
    relative to the threshold.  The search starts just above the threshold,
    where the condition always holds; :class:`ChiConditionError` reports
    the broken invariant if it does not.
    """
    g = intersection_condition(fl, alpha_lo)
    if g is not None:
        return alpha_lo, g
    ap = alpha_plus(fl)
    tol = 1e-3 * max(1.0, abs(ap))
    lo, hi = alpha_lo, max(ap, alpha_lo) + tol
    g = intersection_condition(fl, hi)
    if g is None:
        raise ChiConditionError(
            f"models fail to intersect even at alpha={hi!r} (threshold {ap!r})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (gm := intersection_condition(fl, mid)) is None:
            lo = mid
        else:
            hi, g = mid, gm
    return hi, g


def escalate_alpha(fl: Flanks, alpha: float) -> tuple[float, float]:
    """Raise ``alpha`` to cover the necessary-condition floor and the
    intersection condition, never lowering it; returns :func:`chi`'s
    ``(alpha, minimizer)``."""
    return chi(fl, max(alpha, alpha_floor(fl)))


def dupm_step(x: Sequence[float], g: float, branches: Sequence[int]) -> float:
    """Proposed trial point: the closed-form step when the last three
    updates all replaced the same flank's inner point, otherwise ``g``,
    the max-model minimizer the escalation accepted on the seven points
    ``x``.  :func:`~kinkline.supm.run_bracket_solver` keeps it the minimum
    separation away from the incumbent and the inner endpoints.

    ``branches`` lists the update rules applied so far, oldest first;
    updates 1 and 3 replace the right inner point, 2 and 4 the left one,
    so a rule's parity names its flank.  The closed-form step reads only
    the inner five points, so it takes the seven points ``x`` as they are.
    """
    if len(branches) > 2 and branches[-1] % 2 == branches[-2] % 2 == branches[-3] % 2:
        return eupm_step(x)
    return g


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
    constant on it by :func:`escalate_alpha`, which also returns the
    max-model minimizer there, then picks the trial point by
    :func:`dupm_step`.  The per-iteration constants are returned in
    ``alphas`` (one entry per completed iteration).
    """
    require(b0, ExtendedBracket7)
    alpha = 0.0
    alphas: list[float] = []
    fl = Flanks(b0.x, b0.fv)

    def next_trial(x, fv, branches):
        nonlocal alpha
        if branches:
            fl.advance(x, fv, branches[-1])
        alpha, g = escalate_alpha(fl, alpha)
        alphas.append(alpha)
        return dupm_step(x, g, branches)

    result = run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
    # a proposal that found no room for its trial completed no iteration
    result.alphas = alphas[: result.iterations]
    return result
