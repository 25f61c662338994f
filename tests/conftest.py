"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from kinkline.brackets import BracketError, ExtendedBracket7, apply_update

# Property tests draw the same examples on every run, so a red run can be
# rerun as it was; pass --hypothesis-profile=default to explore afresh.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def bits(x):
    """A float's exact bits as hex text (other values as they are), so an
    equality also tells ``0.0`` from ``-0.0``."""
    return x.hex() if isinstance(x, float) else x


def update(xtrial, ftrial, b):
    """:func:`~kinkline.brackets.apply_update` on the bracket ``b``: the
    rule it applied and the new bracket, of ``b``'s type and validated."""
    rule, x, fv = apply_update(xtrial, ftrial, b.x, b.fv)
    return rule, type(b)(x, fv)


def kink_objective(rng: np.random.Generator):
    """Random max-of-two-quadratics with a kink minimum.

    Returns (f, f_left, f_right, kink, radius): within ``radius`` of the
    kink the left piece is active below it and the right piece above it,
    f decreases then increases, and both pieces have constant second
    derivative (so any positive curvature adjustment underestimates them).
    """
    k = rng.uniform(-0.3, 0.3)
    al, ar = rng.uniform(0.0, 2.0, 2)
    sl, sr = rng.uniform(0.2, 2.0, 2)

    def f_left(x):
        return al * (x - k) ** 2 - sl * (x - k)

    def f_right(x):
        return ar * (x - k) ** 2 + sr * (x - k)

    def f(x):
        return np.maximum(f_left(x), f_right(x))

    radius = min(1.0, 0.9 * (sl + sr) / (abs(al - ar) + 1e-9))
    return f, f_left, f_right, k, radius


def kink_bracket(rng: np.random.Generator, f, k: float, radius: float):
    """Seven-point bracket around the kink with flanks on their own pieces."""
    while True:
        lefts = np.sort(rng.uniform(k - radius, k - radius / 50.0, 3))
        rights = np.sort(rng.uniform(k + radius / 50.0, k + radius, 3))
        xm = rng.uniform(k - radius / 100.0, k + radius / 100.0)
        pts = (*lefts, xm, *rights)
        try:
            return ExtendedBracket7(pts, tuple(float(f(p)) for p in pts))
        except BracketError:
            continue


def outer_length(b) -> float:
    """Diameter of the bracket's convex hull (first to last point)."""
    return b.x[-1] - b.x[0]


def random_bracket7(
    rng: np.random.Generator,
    gap_range: tuple[float, float] = (0.1, 2.0),
    centre_range: tuple[float, float] = (-10.0, 10.0),
):
    """Seven-point bracket of builtin floats with uniform gaps and uniform
    cached values, centre value pushed below its neighbours."""
    g = rng.uniform(*gap_range, 6)
    xm = rng.uniform(*centre_range)
    x = (
        xm - g[2] - g[1] - g[0],
        xm - g[2] - g[1],
        xm - g[2],
        xm,
        xm + g[3],
        xm + g[3] + g[4],
        xm + g[3] + g[4] + g[5],
    )
    fv = list(rng.uniform(0.0, 1.0, 7))
    fv[3] = min(fv[2], fv[4]) - rng.uniform(0.0, 0.5)
    return ExtendedBracket7(map(float, x), map(float, fv))
