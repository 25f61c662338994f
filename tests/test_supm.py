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
from kinkline.models import divided_diff2, model_value
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


def recording(oracle, trials):
    def record(x):
        trials.append(x)
        return oracle(x)

    return record


class TestStep:
    def test_affine_kink_lands_on_the_kink(self):
        b = with_values((-3, -2, -1, 0.25, 1, 2, 3), lambda x: max(-x, 2 * x))
        assert supm_step(Flanks(b), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_centre_tie_resolves_left(self):
        # the proposal is the incumbent itself; the loop moves it left
        b = with_values((-3, -2, -1, 0, 1, 2, 3), abs)
        assert supm_step(Flanks(b), 0.0) == 0.0
        trials = []
        run_algorithm("supm:0", recording(abs, trials), b, 1e-8, 500)
        assert trials[0] == -default_delta(1e-8, b.xl1, b.xr1)

    def test_large_alpha_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            b = random_bracket7(rng, gap_range=(2.0, 4.0), centre_range=(-5.0, 5.0))
            g = supm_step(Flanks(b), 1e8)
            ge = eupm_step(inner5(b))
            assert abs(g - ge) <= 1e-8 * inner_length(b)

    @pytest.mark.parametrize("spec", ["supm:0", "supm:1", "eupm", "dupm", "mifflin"])
    def test_step_respects_separation(self, spec):
        # every trial keeps delta from the incumbent and the inner
        # endpoints of the bracket it was chosen on, compared in the float
        # expressions the rule computes: xm - delta may round half an ulp
        # of xm towards xm, which is more than 1e-12 of a delta of 2.5e-9
        for func in list_functions():
            for t in range(2):
                b = generate_bracket(func, np.random.default_rng([63, t]))
                trials = []
                res = run_algorithm(
                    spec, recording(oracle_for(func), trials), b, 1e-8, 500, record_brackets=True
                )
                delta = default_delta(1e-8, b.xl1, b.xr1)
                assert len(trials) == res.iterations > 0
                for br, x in zip(res.bracket_trace, trials):
                    assert br.xl1 + delta <= x <= br.xr1 - delta
                    assert x <= br.xm - delta or x >= br.xm + delta

    def test_no_room_raises(self):
        # both inner gaps are below 2 * delta: the loop's separation rule
        # raises BracketTooSmallError before any oracle call, and the run
        # ends as a stall
        pts = tuple(1e8 + d for d in (-3, -2, -1e-6, 0, 1e-6, 2, 3))
        f = lambda x: (x - 1e8) ** 2
        b = with_values(pts, f)
        assert 2.0 * default_delta(1e-9, b.xl1, b.xr1) > b.xr1 - b.xm
        res = supm_minimize(f, b, 1e-9)
        assert res.status is Status.STALLED
        assert res.iterations == res.evaluations == 0


def _ref_difference_coeffs(ql, qr, shift):
    l0, l1, l2, lx1, lx2 = ql
    r0, r1, r2, rx1, rx2 = qr
    a1l, a2l = lx1 - shift, lx2 - shift
    a1r, a2r = rx1 - shift, rx2 - shift
    a = l2 - r2
    b = (l1 - l2 * (a1l + a2l)) - (r1 - r2 * (a1r + a2r))
    c = (l0 - l1 * a1l + l2 * a1l * a2l) - (r0 - r1 * a1r + r2 * a1r * a2r)
    return a, b, c


def _ref_vertex(q):
    """Stationary point of the flank model ``q``, whose curvature is
    nonzero."""
    _, c1, c2, x1, x2 = q
    return 0.5 * (x1 + x2) - c1 / (2.0 * c2)


def _ref_argmin_max_quadratics(ql, qr, left, right, centre):
    """Reference: argmin_max_quadratics before the one-pass scoring loop,
    with a vertex and an evaluation per model and min(key=lambda)."""
    s = centre
    lo, hi = left - s, right - s
    if ql[1] == 0.0 and ql[2] == 0.0 and qr[1] == 0.0 and qr[2] == 0.0 and ql[0] == qr[0]:
        return s + 0.5 * (lo + hi), "flat"
    cands = [lo, hi]
    da, db, dc = _ref_difference_coeffs(ql, qr, s)
    for u in _real_roots(da, db, dc):
        if lo <= u <= hi:
            cands.append(u)
    n_cross = len(cands)
    for q in (ql, qr):
        if q[2] > 0.0:
            u = _ref_vertex(q) - s
            if lo <= u <= hi:
                cands.append(u)
    value = lambda u: max(model_value(ql, s + u), model_value(qr, s + u))
    best = min(cands, key=lambda u: (value(u), abs(u), u))
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
_models = st.tuples(_num, _num, _num, _num, _num)


def _bits(x):
    return x.hex() if isinstance(x, float) else x


class TestScoringMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(ql=_models, qr=_models, ends=st.lists(_num, min_size=3, max_size=3, unique=True))
    # flat models: the midpoint
    @example((1.0, 0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0, 3.0), [-1.0, 0.0, 2.0])
    # the crossing x = 0 is the left endpoint: reported as an endpoint
    @example((0.0, -1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0, 1.0), [0.0, 1.0, 2.0])
    # equal-valued endpoints of one concave model: the left one
    @example((0.0, 0.0, -1.0, 0.0, 0.0), (-5.0, 0.0, 0.0, 0.0, 1.0), [-1.0, 0.0, 1.0])
    # both convex vertices, at -0.5 and 0.5, inside the interval
    @example((0.0, 0.0, 1.0, -0.5, -0.5), (0.0, 0.0, 1.0, 0.5, 0.5), [-2.0, 0.0, 2.0])
    # a subnormal linear coefficient: halving it in the root solve gives 0
    @example((1.0, 0.0, 0.0, 0.0, 0.0), (1.0, 5e-324, 1.0, 0.0, 0.0), [0.0, 1.0, -1.0])
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
        got = argmin_max_quadratics(ql, qr, left, right, centre)
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

    @pytest.mark.parametrize(
        "eps, budget, status",
        [
            (1e-9, 500, Status.STALLED),
            (1e-9, 2, Status.BUDGET_EXHAUSTED),
            (1e-3, 500, Status.CONVERGED),
        ],
        ids=["stalled", "budget", "converged"],
    )
    @pytest.mark.parametrize("spec", ["supm:0", "supm:1", "eupm", "dupm", "mifflin"])
    def test_one_list_entry_per_completed_iteration(self, spec, eps, budget, status):
        # near 1e8 the separation floor outgrows the bracket after a few
        # iterations, so the stalled run ends on a proposal with no room
        pts = tuple(1e8 + d for d in (-3, -2, -1, 0.25, 1, 2, 3))
        f = lambda x: abs(x - 1e8 - 0.1)
        res = run_algorithm(spec, f, with_values(pts, f), eps, budget)
        assert res.status is status
        assert len(res.branches) == res.iterations > 0
        if spec == "dupm":
            assert len(res.alphas) == res.iterations

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
                res = run_algorithm(
                    spec, recording(oracle, trials), b, 1e-8, 500, record_brackets=True
                )
                delta = default_delta(1e-8, b.xl1, b.xr1)
                assert len(trials) == res.iterations > 0
                for i, (br, xt) in enumerate(zip(res.bracket_trace, trials)):
                    if spec == "dupm":
                        g = dupm_step(br, supm_step(Flanks(br), res.alphas[i]), res.branches[:i])
                    else:
                        g = supm_step(Flanks(br), float(spec.split(":")[1]))
                    assert xt == _min_separation(g, br.xl1, br.xm, br.xr1, delta)

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

    @pytest.mark.parametrize(
        "spec",
        [
            "supm:0",
            "eupm",
            "brent",
            "golden",
            "mifflin",
            pytest.param(
                "dupm",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="chi's bisection width 1e-3*max(1, |alpha_plus|) has an "
                    "absolute floor, so DUPM's constant depends on the units of f",
                ),
            ),
        ],
    )
    def test_scaling_f_changes_no_decision(self, spec):
        # multiplying f by 4 is exact in floats, so a solver whose decisions
        # compare values of f only relatively makes the same moves, bit for
        # bit, on 4 f from the bracket with values times 4
        for func in list_functions():
            for t in range(3):
                b = generate_bracket(func, np.random.default_rng([64, t]))
                scaled = make_extended7(b.x, tuple(4.0 * v for v in b.fv))
                oracle = oracle_for(func)
                res = run_algorithm(spec, oracle, b, 1e-8, 500, record_brackets=True)
                res4 = run_algorithm(
                    spec, lambda x: 4.0 * oracle(x), scaled, 1e-8, 500, record_brackets=True
                )
                assert res4.status is res.status, (func.fid, t)
                assert [(br.x, tuple(4.0 * v for v in br.fv)) for br in res.bracket_trace] == [
                    (br.x, br.fv) for br in res4.bracket_trace
                ], (func.fid, t)

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
        # the new bracket field for field
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
                kept = fl.left if branch in (1, 3) else fl.right
                fl.advance(nb, branch)
                fresh = Flanks(nb)
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
