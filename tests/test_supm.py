import math

import numpy as np
import pytest

from kinkline.brackets import inner5, inner_length, make_extended7
from kinkline.eupm import eupm_step
from kinkline.harness import PAPER_ALGORITHMS, random_bracket7, run_algorithm
from kinkline.result import Status
from kinkline.supm import (
    BracketTooSmallError,
    InvariantBrokenError,
    NonFiniteValueError,
    TrialAtCenterError,
    apply_update,
    classify_branch,
    default_delta,
    supm_minimize,
    supm_step,
)


def with_values(points, f):
    return make_extended7(points, tuple(f(p) for p in points))


class TestStep:
    def test_affine_kink_lands_on_the_kink(self):
        b = with_values((-3, -2, -1, 0.25, 1, 2, 3), lambda x: max(-x, 2 * x))
        assert supm_step(b, 0.0, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_exact_centre_tie_resolves_left(self):
        b = with_values((-3, -2, -1, 0, 1, 2, 3), abs)
        delta = 1e-9
        assert supm_step(b, 0.0, delta) == -delta

    def test_large_alpha_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            b = random_bracket7(rng, gap_range=(2.0, 4.0), centre_range=(-5.0, 5.0))
            g = supm_step(b, 1e8, 0.0)
            ge = eupm_step(inner5(b))
            assert abs(g - ge) <= 1e-8 * inner_length(b)

    def test_step_respects_separation(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            b = random_bracket7(rng)
            delta = 1e-6
            x = supm_step(b, 1.0, delta)
            assert b.xl1 + delta <= x <= b.xr1 - delta
            assert abs(x - b.xm) >= delta * (1.0 - 1e-12)

    def test_no_room_raises(self):
        b = with_values((-3, -2, -1e-7, 0, 1e-7, 2, 3), lambda x: x * x)
        with pytest.raises(BracketTooSmallError):
            supm_step(b, 0.0, 9e-8)


class TestClassification:
    def setup_method(self):
        self.b = with_values((1, 2, 3, 4, 5, 6, 7), lambda x: (x - 4.0) ** 2)

    def test_left_improving(self):
        assert classify_branch(3.5, -1.0, self.b) == 1

    def test_right_improving(self):
        assert classify_branch(4.5, -1.0, self.b) == 2

    def test_right_non_improving(self):
        assert classify_branch(4.5, 1.0, self.b) == 3

    def test_left_non_improving(self):
        assert classify_branch(3.5, 1.0, self.b) == 4

    def test_value_tie_counts_as_non_improving(self):
        assert classify_branch(4.5, self.b.fm, self.b) == 3
        assert classify_branch(3.5, self.b.fm, self.b) == 4

    def test_trial_at_centre_rejected(self):
        with pytest.raises(TrialAtCenterError):
            classify_branch(4.0, 0.0, self.b)


class TestUpdates:
    def setup_method(self):
        self.b = make_extended7((1, 2, 3, 4, 5, 6, 7), (9, 4, 1, 0, 1, 4, 9))

    def test_branch1_layout(self):
        nb = apply_update(1, 3.5, -1.0, self.b)
        assert nb.x == (1, 2, 3, 3.5, 4, 5, 6)
        assert nb.fv == (9, 4, 1, -1.0, 0, 1, 4)

    def test_branch2_layout(self):
        nb = apply_update(2, 4.5, -1.0, self.b)
        assert nb.x == (2, 3, 4, 4.5, 5, 6, 7)

    def test_branch3_layout(self):
        nb = apply_update(3, 4.5, 0.5, self.b)
        assert nb.x == (1, 2, 3, 4, 4.5, 5, 6)

    def test_branch4_layout(self):
        nb = apply_update(4, 3.5, 0.5, self.b)
        assert nb.x == (2, 3, 3.5, 4, 5, 6, 7)

    def test_inner_length_strictly_decreases(self):
        for br, xt, ft in ((1, 3.5, -1.0), (2, 4.5, -1.0), (3, 4.5, 0.5), (4, 3.5, 0.5)):
            nb = apply_update(br, xt, ft, self.b)
            assert inner_length(nb) < inner_length(self.b)

    def test_inconsistent_branch_breaks_invariant(self):
        with pytest.raises(InvariantBrokenError):
            apply_update(1, 4.5, -1.0, self.b)  # right-side trial, left-side rule

    def test_values_carried_over(self):
        nb = apply_update(3, 4.5, 0.5, self.b)
        assert nb.fv == (9, 4, 1, 0, 0.5, 1, 4)


class TestSolver:
    def test_smooth_convex_converges(self):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        res = supm_minimize(lambda x: x * x, b, alpha=1.0)
        assert res.status is Status.CONVERGED
        assert inner_length(res.bracket) <= 2e-8

    def test_huge_eps_converges_immediately(self):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        res = supm_minimize(lambda x: x * x, b, eps=10.0, alpha=1.0)
        assert res.status is Status.CONVERGED and res.iterations == 0
        assert res.evaluations == 0

    def test_trace_monotone(self):
        from conftest import kink_bracket, kink_objective

        rng = np.random.default_rng(9)
        for _ in range(20):
            f, _, _, k, radius = kink_objective(rng)
            b = kink_bracket(rng, f, k, radius)
            g = lambda x: float(f(x))
            res = supm_minimize(g, b, budget=200, alpha=1.0)
            ds = [row[1] for row in res.trace]
            fs = [row[2] for row in res.trace]
            assert all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))
            assert all(f2 <= f1 for f1, f2 in zip(fs, fs[1:]))

    def test_brackets_stay_valid(self):
        f = lambda x: abs(x - 0.1) + 0.05 * (x - 0.1) ** 2
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), f)
        res = supm_minimize(f, b, record_brackets=True, alpha=2.0)
        assert res.status is Status.CONVERGED
        for br in res.bracket_trace:
            assert all(u < v for u, v in zip(br.x, br.x[1:]))
            assert br.fv[2] >= br.fv[3] <= br.fv[4]

    def test_evaluations_match_iterations(self):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        res = supm_minimize(lambda x: x * x, b, alpha=1.0)
        assert res.evaluations == res.iterations

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    @pytest.mark.parametrize(
        "spec", ["supm:1", "eupm", "dupm", "mifflin", "brent", "golden"]
    )
    def test_non_finite_oracle_value_is_named(self, spec, value):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        with pytest.raises(NonFiniteValueError, match=f"oracle returned {value!r} at x=") as exc:
            run_algorithm(spec, lambda x: value, b, 1e-8, 500)
        assert b.xl1 < float(str(exc.value).split("x=")[1]) < b.xr1


class TestConfig:
    @pytest.mark.parametrize("spec", PAPER_ALGORITHMS + ("golden",))
    def test_rejects_bad_settings(self, spec):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)

        def oracle(x):
            raise AssertionError("evaluated before the settings were checked")

        for eps, budget in ((0.0, 500), (-1e-8, 500), (1e-8, 0), (1e-8, -3)):
            with pytest.raises(ValueError, match="eps must be > 0|budget must be >= 1"):
                run_algorithm(spec, oracle, b, eps, budget)
        if spec.startswith("supm"):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                run_algorithm("supm:-1", oracle, b, 1e-8, 500)

    def test_default_delta_scales(self):
        assert default_delta(1e-8, 0.0, 1.0) == pytest.approx(2.5e-9)
        assert default_delta(1e-8, 1e8, 1.00001e8) > 1e-8 / 4
