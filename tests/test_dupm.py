import math
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import kink_bracket, kink_objective, random_bracket7, update
from kinkline.brackets import ExtendedBracket7, inner5, inner_length
from kinkline.dupm import (
    ChiConditionError,
    alpha_floor,
    alpha_plus,
    chi,
    dupm_minimize,
    dupm_step,
    escalate_alpha,
    intersection_condition,
)
from kinkline.eupm import eupm_step
from kinkline.harness import generate_bracket
from kinkline.models import build_model, flank_coeffs, scaling_h
from kinkline.result import Status
from kinkline.supm import Flanks, argmin_max_quadratics, supm_step
from kinkline.testfuncs import get_function, oracle_for


def with_values(points, f):
    return ExtendedBracket7(points, tuple(f(p) for p in points))


def polyfit_dd2(xs, fs):
    """Independent second divided difference: leading coefficient of the
    interpolating parabola."""
    return float(np.polyfit(np.asarray(xs, float), np.asarray(fs, float), 2)[0])


class TestAlphaFloor:
    def test_zero_for_global_quadratic(self):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: 2 * x * x + x - 1)
        assert alpha_floor(Flanks(b.x, b.fv)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_for_piecewise_affine_sides(self):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: max(-x, 2 * x))
        assert alpha_floor(Flanks(b.x, b.fv)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            b = random_bracket7(rng)
            x, fv = b.x, b.fv
            want = (
                max(
                    polyfit_dd2(x[:3], fv[:3]) - polyfit_dd2((x[3], x[2], x[1]), (fv[3], fv[2], fv[1])),
                    polyfit_dd2(x[4:], fv[4:]) - polyfit_dd2((x[3], x[4], x[5]), (fv[3], fv[4], fv[5])),
                )
                / scaling_h(b.x)
            )
            assert alpha_floor(Flanks(b.x, b.fv)) == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestAlphaPlus:
    def test_negative_when_both_sides_concave(self):
        b = with_values((-3, -2, -1, 0.0, 1, 2, 3), lambda x: -(x * x) + 9.5 * abs(x))
        assert alpha_plus(Flanks(b.x, b.fv)) < 0.0

    def test_square_data(self):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        assert alpha_plus(Flanks(b.x, b.fv)) == pytest.approx(1.0 / scaling_h(b.x), rel=1e-12)

    def test_chi_never_exceeds_alpha_plus_by_much(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(100):
            b = random_bracket7(rng)
            ap = alpha_plus(Flanks(b.x, b.fv))
            tol = 1e-3 * max(1.0, abs(ap))
            got, _ = chi(Flanks(b.x, b.fv), 0.0)
            assert got <= max(0.0, ap) + 2.0 * tol
            checked += 1
        assert checked == 100


class TestIntersectionCondition:
    def test_true_when_both_models_concave(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            b = random_bracket7(rng)
            alpha = max(0.0, alpha_plus(Flanks(b.x, b.fv))) + 1.0
            assert intersection_condition(Flanks(b.x, b.fv), alpha) is not None

    def test_false_when_a_convex_vertex_wins(self):
        # right side strongly convex with an interior vertex far below the
        # left model: the max-model minimizer is that vertex, not a crossing
        f = lambda x: 5.0 * (x - 0.8) ** 2 if x > 0 else 4.0 - 6.0 * x
        # xm off the mirror point of xr1 about 0.8, so f(xm) < f(xr1)
        b = with_values((-3.0, -2.0, -1.0, 0.5, 1.2, 2.0, 3.0), f)
        assert intersection_condition(Flanks(b.x, b.fv), 0.0) is None

    def test_true_when_an_endpoint_wins(self):
        # left line 10 - x stays above the convex right model on most of
        # [-1, 1] and keeps falling, so the max-model minimum is at xr1 = 1
        # even though the right model's vertex (at 3) makes it convex
        b = ExtendedBracket7((-3, -2, -1, 0.5, 1, 2, 3), (13, 12, 11, 0, 4, 1, 0))
        ql, qr = build_model("L", b, 0.0), build_model("R", b, 0.0)
        assert qr[2] > 0.0
        assert argmin_max_quadratics(ql, qr, b.xl1, b.xr1, b.xm) == (1.0, "endpoint")
        assert intersection_condition(Flanks(b.x, b.fv), 0.0) == 1.0
        assert chi(Flanks(b.x, b.fv), 0.0) == (0.0, 1.0)

    def test_true_above_threshold_on_ill_scaled_brackets(self):
        # centre near 1e8 with gaps of tens of ulps: the models' values at a
        # computed crossing can differ by more than INTERSECTION_RTOL, so
        # which candidate won has to decide, not the values
        rng = np.random.default_rng(31)
        for _ in range(100):
            b = random_bracket7(rng, gap_range=(1e-7, 1e-6), centre_range=(1e8 - 1.0, 1e8 + 1.0))
            alpha = max(0.0, alpha_plus(Flanks(b.x, b.fv))) + 1.0
            assert intersection_condition(Flanks(b.x, b.fv), alpha) is not None


class TestChi:
    def test_returns_lo_when_condition_already_holds(self):
        b = with_values((-3, -2, -1, 0.0, 1, 2, 3), lambda x: -(x * x) + 9.5 * abs(x))
        assert chi(Flanks(b.x, b.fv), 0.0)[0] == 0.0

    def test_bisection_matches_linear_scan(self):
        rng = np.random.default_rng(24)
        checked = 0
        # most draws meet the condition at alpha=0 (an endpoint wins), so
        # many are needed to find enough that bisect
        for _ in range(2000):
            if checked >= 20:
                break
            b = random_bracket7(rng)
            fl = Flanks(b.x, b.fv)
            tol = 1e-3 * max(1.0, abs(alpha_plus(fl)))
            if intersection_condition(fl, 0.0) is not None:
                continue
            got, _ = chi(fl, 0.0)
            # scan at a tenth of the bisection tolerance for the flip point
            alphas = np.arange(0.0, got + 2 * tol, tol / 10.0)
            held = [intersection_condition(fl, float(a)) is not None for a in alphas]
            assert any(held), "scan never saw the condition hold"
            first = held.index(True)
            if not all(held[first:]):
                continue  # non-monotone flip pattern: bisection contract void
            assert abs(got - float(alphas[first])) <= tol + tol / 10.0
            checked += 1
        assert checked >= 10

    def test_broken_condition_is_raised_not_absorbed(self, monkeypatch):
        # the condition holds above the threshold for every bracket; were it
        # ever to fail there, escalation reports it instead of guessing
        import kinkline.dupm

        monkeypatch.setattr(kinkline.dupm, "intersection_condition", lambda b, alpha: None)
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        with pytest.raises(ChiConditionError):
            escalate_alpha(Flanks(b.x, b.fv), 0.0)


class TestStepAndUpdate:
    def test_same_flank_streak_forces_closed_form(self):
        b = ExtendedBracket7((-1, 0, 1, 1.5, 3, 4, 5), (9, 5, 2, 0, 3, 9, 11))
        got = dupm_step(b.x, supm_step(Flanks(b.x, b.fv), 0.0), [1, 3, 1])  # right, right, right
        assert got == eupm_step(inner5(b).x)

    def test_mixed_history_takes_adjusted_step(self):
        b = ExtendedBracket7((-1, 0, 1, 1.5, 3, 4, 5), (9, 5, 2, 0, 3, 9, 11))
        adjusted = supm_step(Flanks(b.x, b.fv), 0.7)
        assert dupm_step(b.x, adjusted, [4, 3, 2, 1]) == adjusted

    def test_update_flags(self):
        # updates 1 and 3 replace the right inner point, 2 and 4 the left
        b = ExtendedBracket7((-1, 0, 1, 1.5, 3, 4, 5), (9, 5, 2, 0, 3, 9, 11))
        closed = eupm_step(inner5(b).x)
        adjusted = supm_step(Flanks(b.x, b.fv), 0.7)
        for last in ((1, 3, 3), (3, 1, 1), (2, 4, 4), (4, 2, 2)):
            assert dupm_step(b.x, adjusted, [2, *last]) == closed
        for last in ((1, 2, 1), (3, 4, 3), (2, 3, 2), (4, 1, 4)):
            assert dupm_step(b.x, adjusted, [2, *last]) == adjusted

    def test_two_updates_decide_alike_on_either_flank(self):
        # a left/right mirror must not change the decision: no streak is
        # complete before three real updates, on either flank
        b = ExtendedBracket7((-1, 0, 1, 1.5, 3, 4, 5), (9, 5, 2, 0, 3, 9, 11))
        adjusted = supm_step(Flanks(b.x, b.fv), 0.7)
        assert adjusted != eupm_step(inner5(b).x)
        for two in ([2, 4], [4, 2], [1, 3], [3, 1]):
            assert dupm_step(b.x, adjusted, two) == adjusted

    def test_fewer_than_three_updates_take_the_adjusted_step(self):
        b = ExtendedBracket7((-1, 0, 1, 1.5, 3, 4, 5), (9, 5, 2, 0, 3, 9, 11))
        adjusted = supm_step(Flanks(b.x, b.fv), 0.7)
        for history in ([], [1], [2], [3], [4], [1, 1], [4, 2], [3, 1], [2, 3]):
            assert dupm_step(b.x, adjusted, history) is adjusted

    def test_override_takes_the_seven_point_bracket(self, monkeypatch):
        # the closed-form step reads the seven points themselves, through
        # the module's own eupm_step binding, with no inner five built for it
        import kinkline.dupm

        seen = []
        monkeypatch.setattr(kinkline.dupm, "eupm_step", lambda b: seen.append(b) or 0.25)
        b = ExtendedBracket7((-1, 0, 1, 1.5, 3, 4, 5), (9, 5, 2, 0, 3, 9, 11))
        assert dupm_step(b.x, 2.0, [2, 4, 2]) == 0.25
        assert len(seen) == 1 and seen[0] is b.x
        assert not hasattr(kinkline.dupm, "inner5")

    def test_three_same_side_updates_then_closed_form(self):
        b = ExtendedBracket7((1, 2, 3, 4, 5, 6, 7), (9, 4, 1, 0, 1, 4, 9))
        branches = []
        for xt, ft in ((4.5, 0.5), (4.3, 0.4), (4.2, 0.3)):
            br, b = update(xt, ft, b)
            assert br == 3  # right of the incumbent, not improving
            branches.append(br)
            adjusted = supm_step(Flanks(b.x, b.fv), 0.0)
            if len(branches) < 3:
                assert dupm_step(b.x, adjusted, branches) == adjusted
        assert dupm_step(b.x, adjusted, branches) == eupm_step(inner5(b).x)


class TestFlanks:
    def test_models_and_winner_equal_build_model(self):
        # the record's models at any constant are build_model's, field for
        # field, and its minimizer is the one argmin_max_quadratics finds
        rng = np.random.default_rng(33)
        brackets = [random_bracket7(rng) for _ in range(100)]
        for t, fid in enumerate(("SU1", "NU1", "NU2", "NU3", "NU4", "NU5", "SM1")):
            func = get_function(fid)
            brackets += [generate_bracket(func, np.random.default_rng([33, t, k])) for k in range(20)]
        for b in brackets:
            ap = alpha_plus(Flanks(b.x, b.fv))
            zero_l, zero_r = build_model("L", b, 0.0), build_model("R", b, 0.0)
            assert ap == max(zero_l[2], zero_r[2]) / scaling_h(b.x)
            tol = 1e-3 * max(1.0, abs(ap))
            for alpha in (0.0, alpha_floor(Flanks(b.x, b.fv)), ap, ap + tol, 1e8):
                ql, qr, g, kind = Flanks(b.x, b.fv).solve(alpha)
                want_l, want_r = build_model("L", b, alpha), build_model("R", b, alpha)
                assert (ql, qr) == (want_l, want_r)
                assert (g, kind) == argmin_max_quadratics(want_l, want_r, b.xl1, b.xr1, b.xm)

    def test_step_takes_the_winner_escalation_accepted(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            b = random_bracket7(rng)
            fl = Flanks(b.x, b.fv)
            alpha, g = escalate_alpha(fl, 0.0)
            assert g == supm_step(fl, alpha) == intersection_condition(fl, alpha)

    def test_carried_centre_differences_equal_fresh_ones(self):
        # rules 3 and 4 keep the incumbent and one flank, so the record
        # carries that centre difference; after any rule the floor and both
        # differences equal those of a record built on the new bracket
        rng = np.random.default_rng(36)
        for _ in range(100):
            b = random_bracket7(rng)
            for branch in (1, 2, 3, 4):
                on_left = branch in (1, 4)
                xt = float(rng.uniform(b.x[2], b.x[3]) if on_left else rng.uniform(b.x[3], b.x[4]))
                rule, nb = update(xt, b.fm - 0.5 if branch in (1, 2) else b.fm + 0.5, b)
                assert rule == branch
                fl = Flanks(b.x, b.fv)
                alpha_floor(fl)
                fl.advance(nb.x, nb.fv, branch)
                assert (fl.dl is None, fl.dr is None) == (branch != 3, branch != 4)
                fresh = Flanks(nb.x, nb.fv)
                assert alpha_floor(fl) == alpha_floor(fresh)
                assert (fl.dl, fl.dr) == (fresh.dl, fresh.dr)

    def test_flank_data_is_computed_once_per_iteration(self, monkeypatch):
        # per iteration: the flank the update changed (both on a run's
        # first) and the two centre second divided differences, all three
        # by flank_coeffs, less the centre difference that rules 3 and 4
        # carry, since they keep the incumbent and one flank; one max-model
        # minimization per condition check, none left for the step; the
        # concavity threshold only when the first check fails
        counts = Counter()
        targets = {
            "flank_coeffs": flank_coeffs,
            "argmin_max_quadratics": argmin_max_quadratics,
            "intersection_condition": intersection_condition,
            "escalate_alpha": escalate_alpha,
            "alpha_plus": alpha_plus,
        }

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                checks = counts["intersection_condition"]
                out = fn(*args, **kwargs)
                if name == "escalate_alpha" and counts["intersection_condition"] > checks + 1:
                    counts["escalations with more than one check"] += 1
                return out

            return wrapped

        for modname, mod in list(sys.modules.items()):
            if modname == "kinkline" or modname.startswith("kinkline."):
                for key, value in list(vars(mod).items()):
                    for name, fn in targets.items():
                        if value is fn:
                            monkeypatch.setattr(mod, key, counting(name, fn))
        iterations = runs = carried = 0
        for fid in ("NU1", "NU2", "NU3", "NU4", "NU5"):
            func = get_function(fid)
            for t in range(20):
                b = generate_bracket(func, np.random.default_rng([35, t]))
                res = dupm_minimize(oracle_for(func), b)
                assert res.converged
                iterations += res.iterations
                runs += 1
                carried += sum(r in (3, 4) for r in res.branches[:-1])
        assert counts["escalate_alpha"] == iterations > 0
        assert counts["flank_coeffs"] == 3 * iterations + runs - carried
        assert carried > 0
        assert counts["argmin_max_quadratics"] == counts["intersection_condition"]
        assert counts["alpha_plus"] == counts["escalations with more than one check"] > 0


class TestSolver:
    def test_square_beats_golden_rate(self):
        from kinkline.harness import convergence_rate

        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        res = dupm_minimize(lambda x: x * x, b)
        assert res.status is Status.CONVERGED
        assert convergence_rate(res) < 0.618

    def test_huge_eps_converges_immediately(self):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        res = dupm_minimize(lambda x: x * x, b, eps=10.0)
        assert res.iterations == 0 and res.converged

    def test_alpha_never_decreases_and_stays_escalated(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            f, _, _, k, radius = kink_objective(rng)
            g = lambda x: float(f(x))
            b = kink_bracket(rng, f, k, radius)
            res = dupm_minimize(g, b, budget=200, record_brackets=True)
            assert res.converged
            assert all(a2 >= a1 for a1, a2 in zip(res.alphas, res.alphas[1:]))
            # after escalation, the floor is covered at every iteration
            for br, a in zip(res.bracket_trace[:-1], res.alphas):
                assert alpha_floor(Flanks(br.x, br.fv)) <= a + 1e-9 * max(1.0, abs(a))

    def test_nonsmooth_unimodal_never_exhausts(self):
        for fid in ("NU1", "NU2", "NU3", "NU4", "NU5"):
            func = get_function(fid)
            for t in range(100):
                rng = np.random.default_rng([27, t])
                b = generate_bracket(func, rng)
                res = dupm_minimize(oracle_for(func), b)
                assert res.status is Status.CONVERGED, (fid, t)

    def test_streaks_emit_closed_form_trials(self):
        # whenever the flank history is uniform and no clamp interferes, the
        # emitted trial is exactly the closed-form step
        func = get_function("NU3")
        rng = np.random.default_rng(28)
        b = generate_bracket(func, rng)
        res = dupm_minimize(oracle_for(func), b, record_brackets=True)
        flanks = []
        for i, br in enumerate(res.branches):
            bracket = res.bracket_trace[i]
            if len(flanks) >= 3 and len(set(flanks[-3:])) == 1:
                g = eupm_step(inner5(bracket).x)
                delta = 2.5e-9
                if (
                    abs(g - bracket.xm) >= delta
                    and bracket.xl1 + delta <= g <= bracket.xr1 - delta
                ):
                    adjusted = supm_step(Flanks(bracket.x, bracket.fv), res.alphas[i])
                    assert dupm_step(bracket.x, adjusted, res.branches[:i]) == g
            flanks.append("R" if br in (1, 3) else "L")


class TestConfig:
    def test_escalate_clamps_negative_floor(self):
        b = with_values((-3, -2, -1, 0.0, 1, 2, 3), lambda x: -(x * x) + 9.5 * abs(x))
        assert alpha_floor(Flanks(b.x, b.fv)) <= 0.0
        assert escalate_alpha(Flanks(b.x, b.fv), 0.3)[0] >= 0.3
