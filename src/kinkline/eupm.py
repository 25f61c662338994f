"""Extremal solver: the closed-form limit of the max-model step.

Pushing the curvature adjustment to infinity makes both side models
steeply concave, and their intersection tends to a point that depends only
on the four points flanking the incumbent:

    g = (xr1*xr2 - xl1*xl2) / (xr1 + xr2 - xl1 - xl2)

The step never consults the objective, so the whole iteration is driven by
one bit per step (did the trial improve on the incumbent?) plus the sign of
``g - xm``.  That makes exhaustive verification possible: this module also
provides an oracle-free engine that applies update sequences to brackets
expressed as gap vectors, used to check the five-step halving guarantee and
the per-sequence contraction ratios by direct enumeration.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .brackets import ExtendedBracket5, apply_update
from .result import SolverResult
from .supm import run_bracket_solver

#: Update sequences whose contraction ratios bound every realizable
#: five-step sequence (the remaining ones reduce to these by substring
#: containment or the left/right mirror symmetry).
MINIMAL_SEQUENCES = (
    (4, 4),
    (1, 1, 1),
    (1, 4, 3),
    (4, 2, 2),
    (4, 1, 4),
    (4, 3, 4),
    (1, 4, 1, 1),
    (1, 1, 4, 1),
    (1, 4, 2, 3),
    (4, 3, 2, 2),
    (4, 3, 1, 4),
    (4, 1, 1, 4),
)


def eupm_step(b: ExtendedBracket5) -> float:
    """Closed-form trial point; always strictly inside (xl1, xr1)."""
    return b.xm + bracket_check(b)


def bracket_check(b: ExtendedBracket5) -> float:
    """Signed offset of the trial from the incumbent.

    Negative means the next trial falls left of the incumbent (branch
    family {1, 4}), positive means right ({2, 3}).  Computed in
    incumbent-centred coordinates to dodge cancellation when the bracket
    sits far from zero.
    """
    x = b.x
    l2 = x[0] - x[2]
    l1 = x[1] - x[2]
    r1 = x[3] - x[2]
    r2 = x[4] - x[2]
    return (r1 * r2 - l1 * l2) / ((r1 + r2) - (l1 + l2))


def eupm_minimize(
    oracle: Callable[[float], float],
    b0: ExtendedBracket5,
    eps: float = 1e-8,
    budget: int = 500,
    record_brackets: bool = False,
) -> SolverResult:
    """Run the extremal solver on a five-point bracket.

    The proposed trial point is the closed-form step; the minimum
    separation, the run and its stop rule are
    :func:`~kinkline.supm.run_bracket_solver`'s.
    """

    def next_trial(b, branches):
        return eupm_step(b)

    return run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)


def apply_sequence(
    b: ExtendedBracket5, seq: Iterable[int]
) -> tuple[ExtendedBracket5, bool]:
    """Apply a sequence of update indices with the closed-form step.

    No oracle is involved: the step depends only on the points, and the
    improving / non-improving bit is implied by the branch index, so values
    at inserted points are synthesized one unit below or above the current
    incumbent value; a ``ValueError`` if the unit rounds away and the value
    reads back as another rule.  An element is feasible when its branch
    family matches the sign of :func:`bracket_check` at that moment (an
    exact zero counts as the left family; a trial that lands on the
    incumbent raises ``TrialAtCenterError``).  On the first infeasible
    element the walk stops and the bracket reached so far is returned with
    ``feasible = False``.

    No minimum-separation projection is applied here; the contraction
    algebra is verified unperturbed.
    """
    feasible = True
    for br in seq:
        if br not in (1, 2, 3, 4):
            raise ValueError(f"sequence elements must be in 1..4, got {br!r}")
        c = bracket_check(b)
        if (c <= 0.0) != (br in (1, 4)):
            feasible = False
            break
        ft = b.fm - 1.0 if br in (1, 2) else b.fm + 1.0
        rule, b = apply_update(b.xm + c, ft, b)
        if rule != br:
            raise ValueError(f"value {ft!r} made update {rule}, not {br}")
    return b, feasible


def all_branch_sequences(length: int) -> list[tuple[int, ...]]:
    """Every update-index sequence of the given length (4**length of them)."""
    return list(itertools.product((1, 2, 3, 4), repeat=length))


# ---------------------------------------------------------------------------
# Vectorized gap-coordinate engine.
#
# A five-point bracket modulo translation is its gap vector
# (p1, p2, p3, p4) = (xl1-xl2, xm-xl1, xr1-xm, xr2-xr1), and the step
# offset and all four updates are rational maps on it:
#
#     c  = (p3*(p3+p4) - p2*(p1+p2)) / (p1 + 2*(p2+p3) + p4)
#     U1 -> (p1, p2+c, -c, p3)        needs c < 0
#     U2 -> (p2, c, p3-c, p4)         needs c > 0
#     U3 -> (p1, p2, c, p3-c)         needs c > 0
#     U4 -> (p2+c, -c, p3, p4)        needs c < 0
#
# with inner length p2 + p3.  Applying a map outside its sign condition is
# meaningful as formal algebra (some gaps go negative); the enumeration
# masks those rows out, while the ratio-identity checks rely on the formal
# values.
# ---------------------------------------------------------------------------


def gap_check(p: np.ndarray) -> np.ndarray:
    """Step offset from the incumbent for an (n, 4) array of gap rows."""
    p1, p2, p3, p4 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    return (p3 * (p3 + p4) - p2 * (p1 + p2)) / (p1 + 2.0 * (p2 + p3) + p4)


def gap_apply(p: np.ndarray, branch: int, c: np.ndarray | None = None) -> np.ndarray:
    """Apply one update map to every gap row (formal, no sign enforcement)."""
    if c is None:
        c = gap_check(p)
    p1, p2, p3, p4 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    if branch == 1:
        cols = (p1, p2 + c, -c, p3)
    elif branch == 2:
        cols = (p2, c, p3 - c, p4)
    elif branch == 3:
        cols = (p1, p2, c, p3 - c)
    elif branch == 4:
        cols = (p2 + c, -c, p3, p4)
    else:
        raise ValueError(f"branch must be 1..4, got {branch!r}")
    return np.stack(cols, axis=1)


def gap_inner(p: np.ndarray) -> np.ndarray:
    return p[:, 1] + p[:, 2]


def gap_sequence_ratios(
    p: np.ndarray, seq: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Contraction ratios and feasibility mask of ``seq`` over gap rows.

    Ratios are computed for every row by formal application; the mask
    flags the rows on which the sequence is actually realizable (branch
    family matches the sign of the step offset at every stage, zero
    counting as left).
    """
    d0 = gap_inner(p)
    feasible = np.ones(len(p), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for br in seq:
            c = gap_check(p)
            if br in (1, 4):
                feasible &= c <= 0.0
            else:
                feasible &= c > 0.0
            p = gap_apply(p, br, c)
        ratios = gap_inner(p) / d0
    return ratios, feasible


def gap_apply_binary(p: np.ndarray, improving: bool) -> np.ndarray:
    """One oracle-free iteration for every gap row given the improving bit.

    The side is decided per row by the sign of the step offset; the bit
    selects between the improving updates (1 left, 2 right) and the
    non-improving ones (4 left, 3 right).
    """
    c = gap_check(p)
    left = (c <= 0.0)[:, None]
    if improving:
        out = np.where(left, gap_apply(p, 1, c), gap_apply(p, 2, c))
    else:
        out = np.where(left, gap_apply(p, 4, c), gap_apply(p, 3, c))
    return out
