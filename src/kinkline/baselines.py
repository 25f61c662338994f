"""Reference solvers: golden section, Brent's method, Mifflin-Strodiot.

These are the standards the underestimator solvers are measured against.
All three run in the same loop as those solvers,
:func:`~kinkline.supm.run_solver`: it stops them when the bracketing
interval's inner length reaches ``2 * eps``, counts their oracle calls and
keeps the per-iteration trace of interval length and incumbent value.
Golden section and Brent supply their iterations as generators that keep
their state in local variables; Mifflin-Strodiot moves a five-point
bracket by the same update rules as the underestimator solvers.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .brackets import Bracket3, ExtendedBracket5, require, trusted_build
from .result import SolverResult
from .supm import BracketTooSmallError, minimize_max_quadratics
from .supm import run_bracket_solver, run_solver

_EPS = sys.float_info.epsilon

#: (sqrt(5) - 1) / 2, the golden interval reduction ratio.
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: 1 - INVPHI, the golden fraction used for Brent's fallback steps.
CGOLD = 1.0 - INVPHI


def golden_section_minimize(
    oracle: Callable[[float], float],
    b0: Bracket3,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
) -> SolverResult:
    """Classic golden section search on the interval of ``b0``.

    The interior point of ``b0`` is discarded and two fresh probes are
    placed at the golden positions (two oracle calls up front), after which
    every iteration costs one call and multiplies the retained interval by
    INVPHI up to rounding.  The probe carried into the next interval is not
    placed afresh, so its rounding error stays while the interval shrinks:
    relative to the interval it can grow by a factor of up to 1/INVPHI per
    iteration, from about machine epsilon at the start to about 1e-10 by
    the time a unit interval is down to 1e-8.

    The incumbent value in the trace is the best value seen so far; on a
    multimodal objective the final interval need not contain it, so its
    brackets are positional only: strictly ascending, but not validated.
    The run stalls, in :func:`~kinkline.supm.run_solver`, before a fresh
    probe that would not lie strictly between the kept endpoint and the
    carried probe.
    """
    require(b0, Bracket3)

    def iterate(evaluate):
        a, b = b0.xl, b0.xr
        fa, fb = b0.fl, b0.fr
        x1 = b - INVPHI * (b - a)
        x2 = a + INVPHI * (b - a)
        if not a < x1 < x2 < b:
            yield b - a, b0.fm, lambda: b0
            raise BracketTooSmallError(f"no room for two probes in ({a!r}, {b!r})")
        f1 = evaluate(x1)
        f2 = evaluate(x2)
        best = min(b0.fm, f1, f2)

        def snapshot():
            if f1 <= f2:
                return trusted_build(Bracket3, (a, x1, b), (fa, f1, fb))
            return trusted_build(Bracket3, (a, x2, b), (fa, f2, fb))

        yield b - a, b0.fm, snapshot
        while True:
            if f1 < f2:
                x = x2 - INVPHI * (x2 - a)
                if not a < x < x1:
                    raise BracketTooSmallError(f"no room for a probe in ({a!r}, {x1!r})")
                b, fb = x2, f2
                x2, f2 = x1, f1
                x1, f1 = x, evaluate(x)
            else:
                x = x1 + INVPHI * (b - x1)
                if not x2 < x < b:
                    raise BracketTooSmallError(f"no room for a probe in ({x2!r}, {b!r})")
                a, fa = x1, f1
                x1, f1 = x2, f2
                x2, f2 = x, evaluate(x)
            best = min(best, f1, f2)
            yield b - a, best, snapshot

    return run_solver(oracle, b0, eps, budget, iterate, record_brackets)


def brent_minimize(
    oracle: Callable[[float], float],
    b0: Bracket3,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
) -> SolverResult:
    """Brent's parabolic-interpolation search with golden-section fallback.

    Seeded with the incumbent of ``b0`` as best, second-best and third-best
    point (its cached value is reused, so the first oracle call happens at
    the first probe).  A parabolic step is accepted only if it falls inside
    the interval and moves less than half the step taken two iterations
    ago; otherwise a golden step into the larger sub-interval is taken.
    A minimum spacing keeps the parabola denominators alive; a probe that
    spacing would put outside the open interval ends the run as stalled,
    before it is evaluated.  Runs in :func:`~kinkline.supm.run_solver`;
    its brackets are validated, as the incumbent's value never exceeds an
    end's.
    """
    require(b0, Bracket3)

    def iterate(evaluate):
        a, b = b0.xl, b0.xr
        fa, fb = b0.fl, b0.fr
        x = w = v = b0.xm
        fx = fw = fv = b0.fm
        d = e = 0.0
        snapshot = lambda: Bracket3(a, x, b, fa, fx, fb)
        yield b - a, fx, snapshot
        while True:
            mid = 0.5 * (a + b)
            tol1 = 0.25 * eps + 64.0 * _EPS * abs(x)
            use_golden = True
            if abs(e) > tol1:
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                if q > 0.0:
                    p = -p
                q = abs(q)
                etemp = e
                e = d
                if not (
                    abs(p) >= abs(0.5 * q * etemp)
                    or p <= q * (a - x)
                    or p >= q * (b - x)
                    or q == 0.0
                ):
                    d = p / q
                    u = x + d
                    if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                        d = tol1 if x < mid else -tol1
                    use_golden = False
            if use_golden:
                e = (b - x) if x < mid else (a - x)
                d = CGOLD * e
            u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0.0 else -tol1)
            if not a < u < b:
                raise BracketTooSmallError(f"probe {u!r} outside ({a!r}, {b!r})")
            fu = evaluate(u)
            if fu <= fx:
                if u >= x:
                    a, fa = x, fx
                else:
                    b, fb = x, fx
                v, fv = w, fw
                w, fw = x, fx
                x, fx = u, fu
            else:
                if u < x:
                    a, fa = u, fu
                else:
                    b, fb = u, fu
                if fu <= fw or w == x:
                    v, fv = w, fw
                    w, fw = u, fu
                elif fu <= fv or v == x or v == w:
                    v, fv = u, fu
            yield b - a, fx, snapshot

    return run_solver(oracle, b0, eps, budget, iterate, record_brackets)


def mifflin_strodiot_minimize(
    oracle: Callable[[float], float],
    b0: ExtendedBracket5,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
) -> SolverResult:
    """Five-point method stepping to the crossing of the flank secants.

    After the rapidly-convergent five-point scheme of Mifflin and Strodiot
    (1993): one secant line per flank through that flank's two points, the
    next trial at the minimizer of their pointwise max over the inner
    interval, and the bracket updated by the same four insertion rules the
    five-point extremal solver uses, in the same loop
    (:func:`~kinkline.supm.run_bracket_solver`).  The polyhedral model is
    exact for a max of affine pieces and superlinear when both pieces are
    convex, but a concave piece breaks the underestimation it relies on, so the method
    creeps at the minimum separation and exhausts its budget on non-convex
    (in particular multimodal) objectives.
    """
    require(b0, ExtendedBracket5)

    def next_trial(x, fv, branches):
        ql = (fv[1], (fv[1] - fv[0]) / (x[1] - x[0]), 0.0, x[1], x[0])
        qr = (fv[3], (fv[3] - fv[4]) / (x[3] - x[4]), 0.0, x[3], x[4])
        return minimize_max_quadratics(ql, qr, x[1], x[3], x[2])

    return run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)
