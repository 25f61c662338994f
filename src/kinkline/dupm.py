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

Only the adjusted curvature depends on the constant, so each iteration
computes its bracket's flank data once, as a :class:`Flanks` record: the
scale ``h``, each flank's model coefficients and the two centre second
divided differences.  The floor, the threshold, every condition check and
the step read that record; a model at ``alpha`` takes ``alpha * h`` off
the stored curvature, as :func:`~kinkline.models.build_model` does.  A
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
from .models import QuadModel, divided_diff1, divided_diff2, scaling_h
# Not called here (Flanks repeats its arithmetic once per bracket), but
# perfbench/test_perfbench.py checks that tracing restores this binding.
from .models import build_model  # noqa: F401
from .result import SolverResult
from .supm import Winner, _min_separation, argmin_max_quadratics, run_bracket_solver

#: Relative tolerance for deciding that the two models agree at the step.
INTERSECTION_RTOL = 1e-10


class ChiConditionError(RuntimeError):
    """The intersection condition failed just above the concavity
    threshold.  No model is convex there, so no vertex can win and the
    condition holds for every bracket; this indicates a bug."""


def _flank(x, fv, i1: int, i2: int, i3: int):
    """Model coefficients of the flank through points i1, i2, i3 (inner
    first), in build_model's point order so the arithmetic is the same,
    and the centre second divided difference through 3, i1, i2."""
    c1 = divided_diff1(fv[i1], fv[i2], x[i1], x[i2])
    c2 = divided_diff2(fv[i1], fv[i2], fv[i3], x[i1], x[i2], x[i3])
    centre = divided_diff2(fv[3], fv[i1], fv[i2], x[3], x[i1], x[i2])
    return (fv[i1], c1, c2, x[i1], x[i2]), centre


class Flanks:
    """A bracket's flank data: the scale ``h``; per flank, ``left`` and
    ``right``, the coefficients ``(c0, c1, c2, x1, x2)`` of its
    :class:`~kinkline.models.QuadModel` before adjustment; the centre
    second divided differences ``dl`` and ``dr`` (incumbent and the
    flank's two inner points); and the concavity threshold ``plus``.
    ``accepted`` is ``(alpha, minimizer)`` from the last condition check
    on this record that held, or None.
    """

    __slots__ = ("b", "h", "left", "right", "dl", "dr", "plus", "accepted")

    def __init__(self, b: ExtendedBracket7):
        x, fv = b.x, b.fv
        self.b = b
        self.h = scaling_h(b)
        self.left, self.dl = _flank(x, fv, 2, 1, 0)
        self.right, self.dr = _flank(x, fv, 4, 5, 6)
        self.plus = max(self.left[2], self.right[2]) / self.h
        self.accepted: tuple[float, float] | None = None

    def solve(self, alpha: float) -> tuple[QuadModel, QuadModel, float, Winner]:
        """Both flank models at ``alpha``, equal field for field to
        :func:`~kinkline.models.build_model`'s, and the minimizer of their
        max over the inner interval with its kind."""
        ah = alpha * self.h
        (l0, l1, l2, lx1, lx2), (r0, r1, r2, rx1, rx2), b = self.left, self.right, self.b
        ql = QuadModel(l0, l1, l2 - ah, lx1, lx2, "L")
        qr = QuadModel(r0, r1, r2 - ah, rx1, rx2, "R")
        return (ql, qr) + argmin_max_quadratics(ql, qr, b.xl1, b.xr1, b.xm)


def _as_flanks(b: ExtendedBracket7 | Flanks) -> Flanks:
    return b if isinstance(b, Flanks) else Flanks(b)


def alpha_floor(b: ExtendedBracket7 | Flanks) -> float:
    """Smallest constant keeping both models at or below the incumbent value.

    May be negative; the caller clamps with the running maximum.  ``b`` is
    a bracket or its :class:`Flanks`, as are the brackets taken by the
    functions below.
    """
    fl = _as_flanks(b)
    return max(fl.left[2] - fl.dl, fl.right[2] - fl.dr) / fl.h


def alpha_plus(b: ExtendedBracket7 | Flanks) -> float:
    """Concavity threshold: above it both models curve downward, so the
    minimizer of their max over the inner interval is an intersection
    point or an endpoint of the interval, never a vertex."""
    return _as_flanks(b).plus


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
    return _min_separation(g, b.xl1, b.xm, b.xr1, delta)


def dupm_minimize(
    oracle: Callable[[float], float],
    b0: ExtendedBracket7,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
) -> SolverResult:
    """Run the dynamic solver from ``b0``; see
    :func:`~kinkline.supm.run_bracket_solver`.

    The adjustment constant starts at zero.  Each iteration builds the
    bracket's :class:`Flanks`, escalates the constant on it by
    :func:`escalate_alpha`, then picks the trial point by
    :func:`dupm_step`.  The per-iteration constants are returned in
    ``alphas`` (one entry per completed iteration).
    """
    alpha = 0.0
    alphas: list[float] = []

    def next_trial(b, branches, delta):
        nonlocal alpha
        fl = Flanks(b)
        alpha = escalate_alpha(fl, alpha)
        xt = dupm_step(fl, alpha, branches, delta)
        alphas.append(alpha)
        return xt

    result = run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
    result.alphas = alphas
    return result
