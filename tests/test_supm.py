import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinkline.brackets import inner5, inner_length, make_extended7
from kinkline.dupm import dupm_step
from kinkline.eupm import eupm_step
from kinkline.harness import PAPER_ALGORITHMS, generate_bracket, random_bracket7, run_algorithm
from kinkline.models import QuadModel, divided_diff2
from kinkline.result import Status
from kinkline.supm import (
    BracketTooSmallError,
    Flanks,
    InvariantBrokenError,
    NonFiniteValueError,
    TrialAtCenterError,
    _min_separation,
    _real_roots,
    apply_update,
    argmin_max_quadratics,
    classify_branch,
    default_delta,
    supm_minimize,
    supm_step,
)
from kinkline.testfuncs import list_functions, oracle_for


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


def _ref_difference_coeffs(ql, qr, shift):
    a1l, a2l = ql.x1 - shift, ql.x2 - shift
    a1r, a2r = qr.x1 - shift, qr.x2 - shift
    a = ql.c2adj - qr.c2adj
    b = (ql.c1 - ql.c2adj * (a1l + a2l)) - (qr.c1 - qr.c2adj * (a1r + a2r))
    c = (ql.c0 - ql.c1 * a1l + ql.c2adj * a1l * a2l) - (
        qr.c0 - qr.c1 * a1r + qr.c2adj * a1r * a2r
    )
    return a, b, c


def _ref_argmin_max_quadratics(ql, qr, left, right, centre):
    """Reference: argmin_max_quadratics as it was with attribute reads and
    min(key=lambda), before the one-pass scoring loop."""
    s = centre
    lo, hi = left - s, right - s
    if ql.c1 == 0.0 and ql.c2adj == 0.0 and qr.c1 == 0.0 and qr.c2adj == 0.0 and ql.c0 == qr.c0:
        return s + 0.5 * (lo + hi), "flat"
    cands = [lo, hi]
    da, db, dc = _ref_difference_coeffs(ql, qr, s)
    for u in _real_roots(da, db, dc):
        if lo <= u <= hi:
            cands.append(u)
    n_cross = len(cands)
    for q in (ql, qr):
        if q.c2adj > 0.0:
            u = q.vertex() - s
            if lo <= u <= hi:
                cands.append(u)
    best = min(cands, key=lambda u: (max(ql(s + u), qr(s + u)), abs(u), u))
    i = cands.index(best)
    return s + best, "endpoint" if i < 2 else "crossing" if i < n_cross else "vertex"


def _ref_min_separation(g, lo, mid, hi, delta):
    """Reference: the list-and-lambda projection _min_separation replaced."""
    left_ok = mid - delta >= lo + delta
    right_ok = hi - delta >= mid + delta
    if not left_ok and not right_ok:
        raise BracketTooSmallError("no room")
    if g == mid:
        return mid - delta if left_ok else mid + delta
    proj = []
    if left_ok:
        proj.append(min(max(g, lo + delta), mid - delta))
    if right_ok:
        proj.append(min(max(g, mid + delta), hi - delta))
    return min(proj, key=lambda x: (abs(x - g), x))


# small integers make exact ties between candidates common
_num = st.one_of(st.integers(-3, 3).map(float), st.floats(-8.0, 8.0))
_models = st.builds(QuadModel, _num, _num, _num, _num, _num, st.just("L"))


def _bits(x):
    return x.hex() if isinstance(x, float) else x


class TestScoringMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(ql=_models, qr=_models, ends=st.lists(_num, min_size=3, max_size=3, unique=True))
    # flat models: the midpoint
    @example(QuadModel(1.0, 0.0, 0.0, 0.0, 1.0, "L"), QuadModel(1.0, 0.0, 0.0, 2.0, 3.0, "R"),
             [-1.0, 0.0, 2.0])
    # the crossing x = 0 is the left endpoint: reported as an endpoint
    @example(QuadModel(0.0, -1.0, 0.0, 0.0, 1.0, "L"), QuadModel(0.0, 1.0, 0.0, 0.0, 1.0, "R"),
             [0.0, 1.0, 2.0])
    # equal-valued endpoints of one concave model: the left one
    @example(QuadModel(0.0, 0.0, -1.0, 0.0, 0.0, "L"), QuadModel(-5.0, 0.0, 0.0, 0.0, 1.0, "R"),
             [-1.0, 0.0, 1.0])
    # both convex vertices, at -0.5 and 0.5, inside the interval
    @example(QuadModel(0.0, 0.0, 1.0, -0.5, -0.5, "L"), QuadModel(0.0, 0.0, 1.0, 0.5, 0.5, "R"),
             [-2.0, 0.0, 2.0])
    def test_argmin_max_quadratics(self, ql, qr, ends):
        left, centre, right = sorted(ends)
        got = argmin_max_quadratics(ql, qr, left, right, centre)
        want = _ref_argmin_max_quadratics(ql, qr, left, right, centre)
        assert (_bits(got[0]), got[1]) == (_bits(want[0]), want[1])

    @pytest.mark.parametrize(
        "ql, qr, ends, want",
        [
            ((1.0, 0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (0.5, "flat")),
            ((0.0, -1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 2.0), (0.0, "endpoint")),
            ((0.0, 0.0, -1.0, 0.0, 0.0), (-5.0, 0.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (-1.0, "endpoint")),
            ((0.0, 0.0, 1.0, -0.5, -0.5), (0.0, 0.0, 1.0, 0.5, 0.5), (-2.0, 0.0, 2.0), (0.0, "crossing")),
            ((-10.0, 0.0, 1.0, -0.5, -0.5), (0.0, 0.0, 1.0, 0.5, 0.5), (-2.0, 0.0, 2.0), (0.5, "vertex")),
        ],
    )
    def test_tie_rules(self, ql, qr, ends, want):
        left, centre, right = ends
        got = argmin_max_quadratics(QuadModel(*ql, "L"), QuadModel(*qr, "R"), left, right, centre)
        assert got == want

    @settings(max_examples=500, deadline=None)
    @given(args=st.lists(_num, min_size=4, max_size=4), delta=st.floats(0.0, 4.0))
    # g equidistant, after rounding, from mid - 1 and mid + 1: the smaller wins
    @example([1e-20, -4.0, 0.0, 4.0], 1.0)
    # g at the incumbent
    @example([0.0, -4.0, 0.0, 4.0], 1.0)
    @example([0.0, -1.5, 0.0, 4.0], 1.0)
    def test_min_separation(self, args, delta):
        g, lo, mid, hi = args
        try:
            want = _bits(_ref_min_separation(g, lo, mid, hi, delta))
        except BracketTooSmallError:
            with pytest.raises(BracketTooSmallError):
                _min_separation(g, lo, mid, hi, delta)
        else:
            assert _bits(_min_separation(g, lo, mid, hi, delta)) == want

    def test_min_separation_ties(self):
        assert _min_separation(1e-20, -4.0, 0.0, 4.0, 1.0) == -1.0
        assert _min_separation(0.0, -4.0, 0.0, 4.0, 1.0) == -1.0
        assert _min_separation(0.0, -1.5, 0.0, 4.0, 1.0) == 1.0


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

    @pytest.mark.parametrize("spec", ["supm:0", "supm:1", "dupm"])
    def test_carried_flanks_give_the_fresh_step(self, spec):
        # every trial equals the step recomputed from the bracket it was
        # chosen on, with no flank data carried
        for func in list_functions():
            for t in range(2):
                b = generate_bracket(func, np.random.default_rng([61, t]))
                oracle = oracle_for(func)
                trials = []

                def recording(x):
                    trials.append(x)
                    return oracle(x)

                res = run_algorithm(spec, recording, b, 1e-8, 500, record_brackets=True)
                delta = default_delta(1e-8, b.xl1, b.xr1)
                assert len(trials) == res.iterations > 0
                for i, (br, xt) in enumerate(zip(res.bracket_trace, trials)):
                    if spec == "dupm":
                        assert xt == dupm_step(br, res.alphas[i], res.branches[:i], delta)
                    else:
                        assert xt == supm_step(br, float(spec.split(":")[1]), delta)

    def test_one_flank_is_recomputed_per_iteration(self, monkeypatch):
        # the first iteration computes both flanks' second divided
        # differences; each later one only the flank its update changed
        calls = Counter()

        def counting(*args):
            calls["divided_diff2"] += 1
            return divided_diff2(*args)

        for modname, mod in list(sys.modules.items()):
            if modname == "kinkline" or modname.startswith("kinkline."):
                for key, value in list(vars(mod).items()):
                    if value is divided_diff2:
                        monkeypatch.setattr(mod, key, counting)
        for func in list_functions():
            b = generate_bracket(func, np.random.default_rng([62, 0]))
            calls.clear()
            res = supm_minimize(oracle_for(func), b, alpha=1.0)
            trials = res.iterations + (res.status is Status.STALLED)
            assert res.iterations > 1
            assert calls["divided_diff2"] <= trials + 1

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    @pytest.mark.parametrize(
        "spec", ["supm:1", "eupm", "dupm", "mifflin", "brent", "golden"]
    )
    def test_non_finite_oracle_value_is_named(self, spec, value):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        with pytest.raises(NonFiniteValueError, match=f"oracle returned {value!r} at x=") as exc:
            run_algorithm(spec, lambda x: value, b, 1e-8, 500)
        assert b.xl1 < float(str(exc.value).split("x=")[1]) < b.xr1


class TestFlanks:
    def test_advance_equals_a_fresh_record(self):
        # each update rule keeps one flank's points; the advanced record
        # carries that flank's coefficients and matches a record built from
        # the new bracket field for field, with no stale accepted minimizer
        rng = np.random.default_rng(63)
        for _ in range(100):
            b = random_bracket7(rng)
            x, fv, fm = b.x, b.fv, b.fm
            for branch in (1, 2, 3, 4):
                on_left = branch in (1, 4)
                xt = float(rng.uniform(x[2], x[3]) if on_left else rng.uniform(x[3], x[4]))
                ft = fm - 0.5 if branch in (1, 2) else fm + 0.5
                assert classify_branch(xt, ft, b) == branch
                nb = apply_update(branch, xt, ft, b)
                fl = Flanks(b)
                fl.accepted = (0.0, xt)
                kept = fl.left if branch in (1, 3) else fl.right
                fl.advance(nb, branch)
                fresh = Flanks(nb)
                assert fl.accepted is None
                assert [getattr(fl, f) for f in Flanks.__slots__] == [
                    getattr(fresh, f) for f in Flanks.__slots__
                ]
                assert kept is (fl.left if branch in (1, 3) else fl.right)


class TestConfig:
    @pytest.mark.parametrize("spec", PAPER_ALGORITHMS + ("golden",))
    def test_rejects_bad_settings(self, spec):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)

        def oracle(x):
            raise AssertionError("evaluated before the settings were checked")

        bad = ((0.0, 500), (-1e-8, 500), (math.inf, 500), (1e-8, 0), (1e-8, -3))
        for eps, budget in bad:
            with pytest.raises(ValueError, match="eps must be finite and > 0|budget must be >= 1"):
                run_algorithm(spec, oracle, b, eps, budget)
        if spec.startswith("supm"):
            for bad in ("-1", "nan", "inf"):
                with pytest.raises(ValueError, match="expected a finite alpha >= 0"):
                    run_algorithm(f"supm:{bad}", oracle, b, 1e-8, 500)
                with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
                    supm_minimize(oracle, b, alpha=float(bad))

    def test_default_delta_scales(self):
        assert default_delta(1e-8, 0.0, 1.0) == pytest.approx(2.5e-9)
        assert default_delta(1e-8, 1e8, 1.00001e8) > 1e-8 / 4
