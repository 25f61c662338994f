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
from typing import Callable, Sequence

import numpy as np

from .brackets import ExtendedBracket5, require
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


def eupm_step(x: Sequence[float]) -> float:
    """Closed-form trial point; always strictly inside (xl1, xr1).  The
    points ``x`` are read as :func:`bracket_check` reads them."""
    return x[len(x) // 2] + bracket_check(x)


def bracket_check(x: Sequence[float]) -> float:
    """Signed offset of the trial from the incumbent, on the points ``x``.

    Negative means the next trial falls left of the incumbent (branch
    family {1, 4}), positive means right ({2, 3}).  Computed in
    incumbent-centred coordinates to dodge cancellation when the bracket
    sits far from zero.  Points are read one and two places either side
    of the centre, so seven points give their inner five's bits.
    """
    c = len(x) // 2
    l2 = x[c - 2] - x[c]
    l1 = x[c - 1] - x[c]
    r1 = x[c + 1] - x[c]
    r2 = x[c + 2] - x[c]
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
    require(b0, ExtendedBracket5)
    next_trial = lambda x, fv, branches: eupm_step(x)
    return run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets)


def all_branch_sequences(length: int) -> list[tuple[int, ...]]:
    """Every update-index sequence of the given length (4**length of them)."""
    return list(itertools.product((1, 2, 3, 4), repeat=length))


# ---------------------------------------------------------------------------
# Vectorized gap-coordinate engine, in column form.
#
# A five-point bracket modulo translation is its gap vector
# (p1, p2, p3, p4) = (xl1-xl2, xm-xl1, xr1-xm, xr2-xr1).  The engine holds
# a batch of them as four 1-D columns, one entry per row, from start to
# finish; the step offset and all four updates are rational maps on them:
#
#     c  = (p3*(p3+p4) - p2*(p1+p2)) / (p1 + 2*(p2+p3) + p4)
#     U1 -> (p1, p2+c, -c, p3)        needs c <= 0
#     U2 -> (p2, c, p3-c, p4)         needs c > 0
#     U3 -> (p1, p2, c, p3-c)         needs c > 0
#     U4 -> (p2+c, -c, p3, p4)        needs c <= 0
#
# with inner length p2 + p3.  The contract is the operations of ``c`` as
# written and their order, operand for operand: ``gap_offset`` keeps them
# while working in place, so its bits equal the expression's, NaN
# payloads included.  An exact zero offset, a trial on the incumbent that
# the bracket form refuses, counts as the left family.
# A map builds only the columns it changes and passes the others through.
# Applying a map outside its sign condition is meaningful as formal
# algebra (some gaps go negative); the enumeration masks those rows out,
# while the ratio-identity checks rely on the formal values.
# ---------------------------------------------------------------------------


def gap_offset(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray) -> np.ndarray:
    """Step offset from the incumbent of every gap row, given as columns.

    The steps are those of ``(p3*(p3+p4) - p2*(p1+p2)) / (p1 + 2*(p2+p3) + p4)``,
    operand for operand, worked in place on three fresh temporaries; no
    input column is written.  The inputs are 1-D arrays of one length.
    """
    num = p3 + p4
    np.multiply(p3, num, num)
    t = p1 + p2
    np.multiply(p2, t, t)
    num -= t
    den = p2 + p3
    np.multiply(2.0, den, den)
    np.add(p1, den, den)
    den += p4
    num /= den
    return num


def gap_map(
    branch: int, c: np.ndarray, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four gap columns after update ``branch`` at step offset ``c``
    (formal, no sign enforcement)."""
    if branch == 1:
        return p1, p2 + c, -c, p3
    if branch == 2:
        return p2, c, p3 - c, p4
    if branch == 3:
        return p1, p2, c, p3 - c
    if branch == 4:
        return p2 + c, -c, p3, p4
    raise ValueError(f"branch must be 1..4, got {branch!r}")


def gap_sequence_ratios(
    p: np.ndarray, seq: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Contraction ratios and feasibility mask of ``seq`` over the rows of
    the (n, 4) gap array ``p``.

    Ratios are computed for every row by formal application; the mask
    flags the rows on which the sequence is actually realizable (branch
    family matches the sign of the step offset at every stage, zero
    counting as left).
    """
    cols = p.T
    d0 = cols[1] + cols[2]
    feasible = np.ones(len(p), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for br in seq:
            c = gap_offset(*cols)
            if br in (1, 4):
                feasible &= c <= 0.0
            else:
                feasible &= c > 0.0
            cols = gap_map(br, c, *cols)
        ratios = (cols[1] + cols[2]) / d0
    return ratios, feasible


def gap_apply_binary(
    p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, p4: np.ndarray, improving: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One oracle-free iteration of every gap row given the improving bit;
    four columns in, four columns out.

    The side is decided per row by the sign of the step offset, zero
    counting as left; the bit selects between the improving updates (1
    left, 2 right) and the non-improving ones (4 left, 3 right).  Both
    candidate maps share the one offset, and each output column picks
    between their columns row by row.
    """
    c = gap_offset(p1, p2, p3, p4)
    left = c <= 0.0
    lmap, rmap = (1, 2) if improving else (4, 3)
    return tuple(
        np.where(left, a, b)
        for a, b in zip(gap_map(lmap, c, p1, p2, p3, p4), gap_map(rmap, c, p1, p2, p3, p4))
    )
