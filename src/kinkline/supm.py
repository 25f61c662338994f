"""The solver loop, and the fixed-constant solver that runs in it.

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
clips.  The clip, like the builtin floats brackets hold, is in
:mod:`~kinkline.brackets`.

The fixed-constant solver (:func:`supm_minimize`) takes as each trial the
minimizer of the max of the two flank models at one constant ``alpha``
over the inner interval.  The models, the :class:`~kinkline.models.Flanks`
record that carries them across updates and the max-model kernel are in
:mod:`~kinkline.models`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from .brackets import Bracket, BracketTooSmallError, ExtendedBracket7, apply_update, require
from .brackets import default_delta, inner_length, min_separation, trusted_build
from .models import Flanks, Model, argmin_max_quadratics
from .result import SolverResult, Status


class NonFiniteValueError(ValueError):
    """The oracle returned NaN or an infinity at a trial point."""


class AdjustmentOverflowError(ValueError):
    """The adjustment ``alpha * h`` of the starting bracket is not finite."""


def minimize_max_quadratics(
    ql: Model, qr: Model, left: float, right: float, centre: float
) -> float:
    """Minimizer over [left, right] of the pointwise max of two flank
    models; see :func:`~kinkline.models.argmin_max_quadratics`."""
    return argmin_max_quadratics(ql, qr, left, right, centre)[0]


def supm_step(fl: Flanks, alpha: float) -> float:
    """Proposed trial point: the max-model minimizer at ``alpha`` over the
    inner interval of the record's bracket, before the loop's separation
    rule (see :func:`run_bracket_solver`)."""
    return fl.solve(alpha)[2]


def check_stop_rule(eps: float, budget: int) -> None:
    """Reject a stop rule no run could meet: ``eps`` must be finite and
    positive and ``budget`` a whole number of iterations, at least one, not
    a bool.  A whole float such as ``500.0`` is a budget; NaN, an infinity
    or ``500.5`` is not, since the loop stops when its count equals it."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be finite and > 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if isinstance(budget, bool) or not budget % 1 == 0:  # NaN and the infinities included
        raise ValueError(f"budget must be a whole number, got {budget!r}")


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
    isfinite = math.isfinite

    def evaluate(x: float) -> float:
        nonlocal calls
        calls += 1
        fx = oracle(x)
        if not isfinite(fx):
            raise NonFiniteValueError(f"oracle returned {fx!r} at x={x!r}")
        return fx

    steps = iterate(evaluate)
    d, fm, snapshot = next(steps)
    trace = [(0, d, fm)]
    row = trace.append
    hist = [b0] if record_brackets else None
    status = Status.CONVERGED
    stop, k = 2.0 * eps, 0  # k: iterations done, trace rows less one
    while d > stop:
        if k == budget:
            status = Status.BUDGET_EXHAUSTED
            break
        try:
            d, fm, snapshot = next(steps)
        except BracketTooSmallError:
            status = Status.STALLED
            break
        k += 1
        row((k, d, fm))
        if hist is not None:
            hist.append(snapshot())
    return SolverResult(
        bracket=snapshot(),
        iterations=k,
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
    so far, oldest first.  The brackets module admits it: ``min_separation``
    clips it ``delta`` (``default_delta`` of ``x``, which stays ``eps / 4``
    once it gets there) away from the incumbent and the inner endpoints,
    stalls the run if there is no room, and refuses a NaN before the oracle
    is called.  The loop evaluates the trial once and inserts it by
    ``apply_update``, which picks the update rule.  Only a recorded row and
    the result get a bracket of ``b0``'s type, by the trusted build.  The
    applied rules are returned in ``branches``.
    """
    quarter = eps / 4.0
    branches: list[int] = []
    cls, c = type(b0), len(b0.x) // 2
    lo, hi = c - 1, c + 1

    def iterate(evaluate):
        x, fv = b0.x, b0.fv
        delta = default_delta(eps, x)
        applied = branches.append
        snapshot = lambda: trusted_build(cls, x, fv)
        yield inner_length(b0), b0.fm, snapshot
        while True:
            xt = min_separation(next_trial(x, fv, branches), x[lo], x[c], x[hi], delta)
            br, x, fv = apply_update(xt, evaluate(xt), x, fv)
            applied(br)
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

    Each trial is :func:`supm_step`'s, taken from one
    :class:`~kinkline.models.Flanks` record that each update advances, so
    only the flank the update changed is recomputed.

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
