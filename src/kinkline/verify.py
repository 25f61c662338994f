"""Oracle-free checks of the closed-form step: contraction and symmetry.

Each check returns what it measured; the caller chooses the random stream,
the sample sizes and the bound, and decides pass or fail.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .brackets import ExtendedBracket5, apply_update, reflect
from .eupm import (
    MINIMAL_SEQUENCES,
    all_branch_sequences,
    bracket_check,
    eupm_step,
    gap_sequence_ratios,
)
from .harness import sample_simplex

#: Draws per sequence after which :func:`minimal_sequence_ratios` stops
#: short of the requested feasible count.
MAX_DRAWS = 200


def minimal_sequence_ratios(
    rng: np.random.Generator, samples: int, draw: int
) -> dict[tuple[int, ...], tuple[int, float]]:
    """Largest contraction ratio of each minimal sequence over random gap
    vectors from which it is feasible.

    Gap vectors are drawn ``draw`` at a time from the unit simplex until
    ``samples`` feasible ones are seen or :data:`MAX_DRAWS` draws are
    made.  Maps each sequence to (feasible count, largest ratio), the
    ratio being ``-inf`` when no draw was feasible.
    """
    out = {}
    for seq in MINIMAL_SEQUENCES:
        got = 0
        worst = -math.inf
        for _ in range(MAX_DRAWS):
            if got >= samples:
                break
            ratios, feas = gap_sequence_ratios(sample_simplex(rng, draw), seq)
            if feas.any():
                worst = max(worst, float(np.max(ratios[feas])))
                got += int(feas.sum())
        out[seq] = (got, worst)
    return out


def five_step_contraction(
    rng: np.random.Generator, samples: int
) -> tuple[float, tuple[int, ...] | None, int]:
    """Largest inner-length ratio after five updates, over every update
    sequence of length five, each tried from ``samples`` fresh gap vectors.

    Returns the ratio, the sequence attaining it (``None`` when no pair was
    feasible) and the number of feasible (vector, sequence) pairs.
    """
    worst = -math.inf
    worst_seq = None
    feasible = 0
    for seq in all_branch_sequences(5):
        ratios, feas = gap_sequence_ratios(sample_simplex(rng, samples), seq)
        feasible += int(feas.sum())
        if feas.any():
            m = float(np.max(ratios[feas]))
            if m > worst:
                worst, worst_seq = m, seq
    return worst, worst_seq, feasible


def reflection_deviation(b: ExtendedBracket5) -> float:
    """Largest departure from the mirror identities at ``b``, in units of
    four rounding units of its outer length.

    The identities: reflecting twice gives ``b`` back, the closed-form step
    changes sign under reflection, and on the side the step falls update 1
    (4) of ``b`` mirrors update 2 (3) of its reflection.
    """
    tol = 4.0 * sys.float_info.epsilon * (b.x[-1] - b.x[0])
    rb = reflect(b)
    err = abs(eupm_step(rb.x) + eupm_step(b.x))
    err = max(err, max(abs(u - v) for u, v in zip(reflect(rb).x, b.x)))
    if bracket_check(b.x) > 0.0:
        b, rb = rb, b
    if bracket_check(b.x) < 0.0:
        # the synthesized value picks update 1 then 4 on b, 2 then 3 on rb
        for df in (-1.0, 1.0):
            _, direct, _ = apply_update(eupm_step(b.x), b.fm + df, b.x, b.fv)
            _, mx, mf = apply_update(eupm_step(rb.x), rb.fm + df, rb.x, rb.fv)
            mirror = reflect(ExtendedBracket5(mx, mf)).x
            err = max(err, max(abs(u - v) for u, v in zip(direct, mirror)))
    return err / tol
