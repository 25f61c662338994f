"""Oracle-free checks of the closed-form step: per-sequence ratios, the
five-step contraction and reflection symmetry.

Each check lives here whole: what it samples (:data:`MINIMAL_SEQUENCES`,
:func:`random_bracket5`), its loop and its bound.  It takes a random stream
and a sample size and returns what it measured; the caller compares that
with the bound and decides pass or fail.  The sample size is used as given
and must be an integer from 1 to :data:`~kinkline.harness.MAX_SAMPLES`,
checked by :func:`~kinkline.supm.check_count` before anything is drawn:
a check that drew nothing would read as a pass, and the bound keeps each
draw's arrays in memory.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .brackets import ExtendedBracket5, apply_update, reflect
from .eupm import all_branch_sequences, bracket_check, eupm_step, gap_sequence_ratios
from .harness import MAX_SAMPLES, sample_simplex
from .supm import check_count

#: Update sequences whose contraction ratios bound every realizable
#: five-step sequence (the remaining ones reduce to these by substring
#: containment or the left/right mirror symmetry), one length a line.
MINIMAL_SEQUENCES = (
    (4, 4),
    (1, 1, 1), (1, 4, 3), (4, 2, 2), (4, 1, 4), (4, 3, 4),
    (1, 4, 1, 1), (1, 1, 4, 1), (1, 4, 2, 3), (4, 3, 2, 2), (4, 3, 1, 4), (4, 1, 1, 4),
)

#: Each minimal sequence's largest ratio must be strictly below this.
SEQUENCE_BOUND = 0.5
#: The largest five-step ratio may reach this, one half and rounding.
CONTRACTION_BOUND = 0.5 + 1e-12
#: The worst reflection deviation may reach this, in units of tolerance.
REFLECTION_BOUND = 1.0

#: Draws per sequence after which :func:`minimal_sequence_ratios` stops
#: short of the requested feasible count.
MAX_DRAWS = 200


def _largest_feasible_ratio(rng: np.random.Generator, n: int, seq) -> tuple[float, int]:
    """Largest ratio of ``seq`` over ``n`` fresh gap vectors from which it
    is feasible (``-inf`` if none is), and the number of those."""
    ratios, feas = gap_sequence_ratios(sample_simplex(rng, n), seq)
    count = int(feas.sum())
    return (float(np.max(ratios[feas])) if count else -math.inf), count


def minimal_sequence_ratios(
    rng: np.random.Generator, samples: int
) -> dict[tuple[int, ...], tuple[int, float]]:
    """Largest contraction ratio of each minimal sequence over random gap
    vectors from which it is feasible.

    Gap vectors are drawn ``samples`` at a time from the unit simplex until
    ``samples`` feasible ones are seen or :data:`MAX_DRAWS` draws are
    made.  Maps each sequence to (feasible count, largest ratio), the
    ratio being ``-inf`` when no draw was feasible.
    """
    check_count("samples", samples, 1, MAX_SAMPLES)
    out = {}
    for seq in MINIMAL_SEQUENCES:
        got = 0
        worst = -math.inf
        for _ in range(MAX_DRAWS):
            if got >= samples:
                break
            ratio, count = _largest_feasible_ratio(rng, samples, seq)
            worst = max(worst, ratio)
            got += count
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
    check_count("samples", samples, 1, MAX_SAMPLES)
    worst = -math.inf
    worst_seq = None
    feasible = 0
    for seq in all_branch_sequences(5):
        ratio, count = _largest_feasible_ratio(rng, samples, seq)
        feasible += count
        if ratio > worst:
            worst, worst_seq = ratio, seq
    return worst, worst_seq, feasible


def random_bracket5(rng: np.random.Generator) -> ExtendedBracket5:
    """Five-point bracket of builtin floats with gaps uniform in [0.1, 2),
    the incumbent uniform in [-10, 10) and arbitrary cached values
    satisfying the centre condition."""
    g = rng.uniform(0.1, 2.0, 4)
    xm = rng.uniform(-10.0, 10.0)
    x = (xm - g[1] - g[0], xm - g[1], xm, xm + g[2], xm + g[2] + g[3])
    fm = rng.uniform(-1.0, 1.0)
    fv = (
        rng.uniform(-1.0, 1.0),
        fm + rng.uniform(0.0, 1.0),
        fm,
        fm + rng.uniform(0.0, 1.0),
        rng.uniform(-1.0, 1.0),
    )
    return ExtendedBracket5(x, fv)


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


def reflection_symmetry(rng: np.random.Generator, samples: int) -> float:
    """Worst :func:`reflection_deviation` over ``samples`` random brackets."""
    check_count("samples", samples, 1, MAX_SAMPLES)
    brackets = (random_bracket5(rng) for _ in range(samples))
    return max(map(reflection_deviation, brackets))
