import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, kink_bracket, kink_objective
from kinkline.brackets import ExtendedBracket7
from kinkline.models import (
    CoincidentPointsError,
    build_model,
    divided_diff2,
    flank_coeffs,
    model_value,
    scaling_h,
)
from kinkline.supm import Flanks, supm_step

EPS = sys.float_info.epsilon


class TestDividedDifferences:
    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPointsError):
            divided_diff2(1.0, 2.0, 3.0, 0.0, 1.0, 0.0)

    def test_square_curvature(self):
        assert divided_diff2(0.0, 1.0, 4.0, 0.0, 1.0, 2.0) == 1.0

    def test_affine_curvature_zero(self):
        f = lambda x: 3.0 * x - 2.0
        assert divided_diff2(f(0.3), f(1.7), f(-2.0), 0.3, 1.7, -2.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_cubic_curvature(self):
        f = lambda x: x**3
        assert divided_diff2(f(0.0), f(1.0), f(2.0), 0.0, 1.0, 2.0) == pytest.approx(3.0)

    @given(st.permutations([0.4, 1.3, -2.2]))
    @settings(max_examples=20, deadline=None)
    def test_full_symmetry_second(self, pts):
        f = lambda x: math.sin(x)
        a, b, c = pts
        ref = divided_diff2(f(0.4), f(1.3), f(-2.2), 0.4, 1.3, -2.2)
        got = divided_diff2(f(a), f(b), f(c), a, b, c)
        assert got == pytest.approx(ref, rel=1e-12)


def _ref_divided_diff2(fa, fb, fc, a, b, c):
    """The difference of two first divided differences, each written out."""
    if a == b or a == c or b == c:
        raise CoincidentPointsError(f"points not pairwise distinct: {a!r}, {b!r}, {c!r}")
    return ((fa - fb) / (a - b) - (fa - fc) / (a - c)) / (b - c)


def _ref_flank_coeffs(x, fv, i1, i2, i3):
    """The slope and both of the curvature's slopes computed afresh; the
    curvature first, so coincident points are refused before a division."""
    c2 = _ref_divided_diff2(fv[i1], fv[i2], fv[i3], x[i1], x[i2], x[i3])
    return fv[i1], (fv[i1] - fv[i2]) / (x[i1] - x[i2]), c2


# small integers make coincident points, and exact ties, common
_finite = st.one_of(
    st.integers(-3, 3).map(float), st.floats(allow_nan=False, allow_infinity=False)
)
_triples = st.tuples(_finite, _finite, _finite)


class TestOneCallForms:
    """divided_diff2 and flank_coeffs are one expression each: the same
    operations in the same order as the reference forms, which compute
    every first difference afresh, so the same bits, and the same refusal
    of coincident points."""

    @settings(max_examples=1000, deadline=None)
    @given(x=_triples, fv=_triples, order=st.permutations([0, 1, 2]))
    # 0.0 and -0.0 coincide
    @example(x=(0.0, -0.0, 1.0), fv=(1.0, 2.0, 3.0), order=[0, 2, 1])
    # overflowing differences: inf - inf in the curvature
    @example(x=(-1e308, 1e308, 0.0), fv=(1e308, -1e308, 1.0), order=[2, 0, 1])
    # subnormal gaps
    @example(x=(0.0, 5e-324, 1e-323), fv=(1.0, 0.0, 1.0), order=[1, 0, 2])
    def test_bits_match_the_reference_forms(self, x, fv, order):
        i1, i2, i3 = order
        args = (fv[i1], fv[i2], fv[i3], x[i1], x[i2], x[i3])
        try:
            want2 = _ref_divided_diff2(*args)
            want = _ref_flank_coeffs(x, fv, i1, i2, i3)
        except CoincidentPointsError:
            with pytest.raises(CoincidentPointsError):
                divided_diff2(*args)
            with pytest.raises(CoincidentPointsError):
                flank_coeffs(x, fv, i1, i2, i3)
            return
        assert bits(divided_diff2(*args)) == bits(want2)
        assert [bits(v) for v in flank_coeffs(x, fv, i1, i2, i3)] == [bits(v) for v in want]

    def test_coincident_points_refused_at_every_pair(self):
        for x in ((1.0, 1.0, 2.0), (1.0, 2.0, 1.0), (2.0, 1.0, 1.0), (0.0, -0.0, 1.0)):
            with pytest.raises(CoincidentPointsError):
                divided_diff2(1.0, 2.0, 3.0, *x)
            with pytest.raises(CoincidentPointsError):
                flank_coeffs(x, (1.0, 2.0, 3.0), 0, 1, 2)


class TestScaling:
    def test_symmetric(self):
        b = ExtendedBracket7(
            (-3, -2, -1, 0, 1, 2, 3), tuple(v * v for v in (-3, -2, -1, 0, 1, 2, 3))
        )
        assert scaling_h(b.x) == 4.0

    def test_uneven(self):
        b = ExtendedBracket7((-1, -0.9, -0.75, 0, 0.6, 0.8, 0.95), (1, 1, 1, 0, 1, 1, 1))
        assert scaling_h(b.x) == pytest.approx(1.7, abs=0)

    def test_bounded_by_outer_length(self):
        from conftest import outer_length, random_bracket7

        rng = np.random.default_rng(5)
        for _ in range(300):
            b = random_bracket7(rng)
            assert scaling_h(b.x) <= outer_length(b)


def fig1_bracket():
    # piecewise sine/cosine objective with a kink minimum at the origin;
    # the printed example's sign works out so that the decreasing piece is
    # -sin(pi x/2) (see the figure-1 sign entry in CHANGES.md)
    f = lambda x: max(-math.sin(0.5 * math.pi * x), 1.0 - math.cos(0.5 * math.pi * x))
    pts = (-1.0, -0.9, -0.75, 0.0, 0.6, 0.8, 0.95)
    return ExtendedBracket7(pts, tuple(f(p) for p in pts)), f


class TestModels:
    def test_exact_interpolation_at_all_side_points(self):
        b, f = fig1_bracket()
        for side, idx in (("L", (0, 1, 2)), ("R", (4, 5, 6))):
            m = build_model(side, b, 0.0)
            for i in idx:
                got = model_value(m, b.x[i])
                assert abs(got - b.fv[i]) <= 8.0 * EPS * max(1.0, abs(b.fv[i]))

    def test_fig1_models_cross_near_half_percent(self):
        b, _ = fig1_bracket()
        g = supm_step(Flanks(b.x, b.fv), 0.0)
        assert abs(g - 0.005) <= 1e-3

    def test_unknown_side_refused(self):
        b, _ = fig1_bracket()
        with pytest.raises(ValueError, match="^side must be 'L' or 'R', got 'M'$"):
            build_model("M", b, 0.0)

    def test_large_alpha_makes_models_concave(self):
        b, _ = fig1_bracket()
        for side in ("L", "R"):
            assert build_model(side, b, 100.0)[2] < 0.0

    def test_eval_at_anchors(self):
        b, _ = fig1_bracket()
        m = build_model("L", b, 0.7)
        c0, c1, _, x1, x2 = m
        assert model_value(m, x1) == c0
        assert model_value(m, x2) == pytest.approx(c0 + c1 * (x2 - x1), rel=1e-14)

    def test_zero_curvature_is_affine(self):
        m = (1.0, 2.0, 0.0, 0.5, 1.5)
        # affine through (x1, c0) with slope c1, checked away from anchors
        assert model_value(m, 10.0) == pytest.approx(1.0 + 2.0 * 9.5)


class TestUnderestimation:
    def test_adjusted_models_sit_below_their_pieces(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f, fl, fr, k, radius = kink_objective(rng)
            b = kink_bracket(rng, f, k, radius)
            alpha = 0.5  # both pieces quadratic: second derivatives constant
            ql = build_model("L", b, alpha)
            qr = build_model("R", b, alpha)
            # right model strictly below the right piece on [xl1, xr1)
            xs = b.xl1 + (b.xr1 - b.xl1) * np.arange(200) / 200.0
            assert np.all(model_value(qr, xs) < fr(xs))
            # left model strictly below the left piece on (xl1, xr1]
            xs = b.xl1 + (b.xr1 - b.xl1) * np.arange(1, 201) / 200.0
            assert np.all(model_value(ql, xs) < fl(xs))
