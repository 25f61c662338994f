import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, random_bracket7, update
from kinkline import supm
from kinkline.brackets import (
    BracketError,
    BracketTooSmallError,
    ExtendedBracket5,
    ExtendedBracket7,
    MIN_GAP_FACTOR,
    InvariantBrokenError,
    TrialAtCenterError,
    apply_update,
    default_delta,
    inner5,
    inner_length,
    min_gap,
    min_separation,
)
from kinkline.dupm import dupm_step
from kinkline.eupm import eupm_step
from kinkline.harness import PAPER_ALGORITHMS, generate_bracket, run_algorithm
from kinkline.models import flank_coeffs, model_value
from kinkline.result import Status
from kinkline.supm import (
    AdjustmentOverflowError,
    Flanks,
    NonFiniteValueError,
    argmin_max_quadratics,
    run_bracket_solver,
    run_solver,
    supm_minimize,
    supm_step,
)
from kinkline.testfuncs import get_function, list_functions, oracle_for


def with_values(points, f):
    return ExtendedBracket7(points, tuple(f(p) for p in points))


def recording(oracle, trials):
    def record(x):
        trials.append(x)
        return oracle(x)

    return record


class TestStep:
    def test_affine_kink_lands_on_the_kink(self):
        b = with_values((-3, -2, -1, 0.25, 1, 2, 3), lambda x: max(-x, 2 * x))
        assert supm_step(Flanks(b.x, b.fv), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_centre_tie_resolves_left(self):
        # the proposal is the incumbent itself; the loop moves it left
        b = with_values((-3, -2, -1, 0, 1, 2, 3), abs)
        assert supm_step(Flanks(b.x, b.fv), 0.0) == 0.0
        trials = []
        run_algorithm("supm:0", recording(abs, trials), b, 1e-8, 500)
        assert trials[0] == -default_delta(1e-8, b.x)

    def test_large_alpha_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            b = random_bracket7(rng, gap_range=(2.0, 4.0), centre_range=(-5.0, 5.0))
            g = supm_step(Flanks(b.x, b.fv), 1e8)
            ge = eupm_step(inner5(b).x)
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
                assert len(trials) == res.iterations > 0
                for br, x in zip(res.bracket_trace, trials):
                    delta = default_delta(1e-8, br.x)
                    assert br.xl1 + delta <= x <= br.xr1 - delta
                    assert x <= br.xm - delta or x >= br.xm + delta

    def test_no_room_raises(self):
        # both inner gaps are one ulp of 1e8, below 2 * delta: the loop's
        # separation rule raises BracketTooSmallError before any oracle
        # call, and the run ends as a stall
        inner = (math.nextafter(1e8, -math.inf), 1e8, math.nextafter(1e8, math.inf))
        pts = (1e8 - 3, 1e8 - 2, *inner, 1e8 + 2, 1e8 + 3)
        f = lambda x: (x - 1e8) ** 2
        b = with_values(pts, f)
        assert 2.0 * default_delta(1e-9, b.x) > b.xr1 - b.xm
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


def _real_roots(a, b, c):
    """Reference: the real roots of a*u^2 + b*u + c, by the
    cancellation-safe formula, as the kernel solved them in a helper of its
    own.  A discriminant within a few rounding units of zero counts as
    zero, so grazing intersections are kept."""
    eps = sys.float_info.epsilon
    if a == 0.0:
        if b == 0.0:
            return ()
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    scale = b * b + abs(4.0 * a * c)
    if disc < 0.0:
        if disc >= -4.0 * eps * scale:
            disc = 0.0
        else:
            return ()
    sq = math.sqrt(disc)
    if b == 0.0:
        r = sq / (2.0 * abs(a))
        return (-r, r) if r != 0.0 else (0.0,)
    q = -0.5 * (b + math.copysign(sq, b))
    # q is 0 only when b is subnormal and 4ac underflowed: take c as 0
    return (q / a, c / q) if q != 0.0 else (0.0, -b / a)


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
    """Reference: the list-and-lambda projection min_separation replaced."""
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
        assert (bits(got[0]), got[1]) == (bits(want[0]), want[1])

    def test_solver_calls_match_the_reference(self, monkeypatch):
        # every kernel call the model-based solvers make from each registry
        # function's seed-0 bracket, replayed through the reference
        calls = []

        def recording_kernel(*args):
            got = argmin_max_quadratics(*args)
            calls.append((args, got))
            return got

        monkeypatch.setattr(supm, "argmin_max_quadratics", recording_kernel)
        kinds = Counter()
        for func in list_functions():
            b = generate_bracket(func, np.random.default_rng(0))
            for spec in ("supm:0", "supm:1", "dupm", "mifflin"):
                calls.clear()
                run_algorithm(spec, oracle_for(func), b, 1e-8, 500)
                assert calls, (func.fid, spec)
                for args, got in calls:
                    want = _ref_argmin_max_quadratics(*args)
                    assert (bits(got[0]), got[1]) == (bits(want[0]), want[1]), (func.fid, spec)
                    kinds[got[1]] += 1
        assert {"endpoint", "crossing", "vertex"} <= set(kinds)

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
    @given(
        g=st.one_of(_num, st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
        bounds=st.lists(st.one_of(_num, st.sampled_from([0.0, -0.0])), min_size=3, max_size=3),
        delta=st.one_of(st.floats(0.0, 4.0), st.just(-0.0)),
    )
    # g equidistant, after rounding, from mid - 1 and mid + 1: the smaller wins
    @example(1e-20, [-4.0, 0.0, 4.0], 1.0)
    # g at the incumbent
    @example(0.0, [-4.0, 0.0, 4.0], 1.0)
    @example(0.0, [-1.5, 0.0, 4.0], 1.0)
    @example(-0.0, [-4.0, 0.0, 4.0], 1.0)
    # g exactly at each end of the two side slots
    @example(-4.0 + 0.1, [-4.0, 0.0, 4.0], 0.1)
    @example(0.0 - 0.1, [-4.0, 0.0, 4.0], 0.1)
    @example(0.0 + 0.1, [-4.0, 0.0, 4.0], 0.1)
    @example(4.0 - 0.1, [-4.0, 0.0, 4.0], 0.1)
    # a NaN or infinite proposal, and signed-zero bounds
    @example(math.nan, [-4.0, 0.0, 4.0], 1.0)
    @example(math.nan, [-1.5, 0.0, 4.0], 1.0)
    @example(math.inf, [-4.0, 0.0, 4.0], 1.0)
    @example(-math.inf, [-4.0, 0.0, 4.0], 1.0)
    @example(0.0, [-0.0, 0.0, -0.0], 0.0)
    @example(-0.0, [0.0, -0.0, 0.0], 0.0)
    # both slots at distance 1 from g, at -0.0 and 0.0: the left one
    @example(-1.0, [-0.0, 0.0, 4.0], -0.0)
    # g = -0.0 at the left slot's end 0.0: the max keeps g, so -0.0
    @example(-0.0, [0.0, 1.0, 4.0], 0.0)
    def test_min_separation(self, g, bounds, delta):
        lo, mid, hi = bounds
        try:
            want = bits(_ref_min_separation(g, lo, mid, hi, delta))
        except BracketTooSmallError:
            with pytest.raises(BracketTooSmallError):
                min_separation(g, lo, mid, hi, delta)
        else:
            if g != g:  # the reference passes a NaN on; the clip refuses it
                with pytest.raises(InvariantBrokenError, match="proposed trial nan"):
                    min_separation(g, lo, mid, hi, delta)
            else:
                assert bits(min_separation(g, lo, mid, hi, delta)) == want

    def test_min_separation_ties(self):
        assert min_separation(1e-20, -4.0, 0.0, 4.0, 1.0) == -1.0
        assert min_separation(0.0, -4.0, 0.0, 4.0, 1.0) == -1.0
        assert min_separation(0.0, -1.5, 0.0, 4.0, 1.0) == 1.0

    def test_real_roots_keeps_a_grazing_intersection(self):
        # (u - 1)^2 lifted by 2 ulps: the discriminant is -8 eps, rounding
        # noise, so the touching point is kept as a double root
        eps = sys.float_info.epsilon
        roots = _real_roots(1.0, -2.0, 1.0 + 2.0 * eps)
        assert len(roots) == 2
        assert all(abs(u - 1.0) <= 4.0 * eps for u in roots)
        # the same difference through the kernel: ql - qr is that quadratic
        # in u = x, so the grazing point is a crossing; without the kept
        # root, ql's vertex at the same point would win as a "vertex"
        ql = (1.0 + 2.0 * eps, -2.0, 1.0, 0.0, 0.0)
        qr = (0.0, 0.0, 0.0, 0.0, 0.0)
        assert argmin_max_quadratics(ql, qr, -1.0, 3.0, 0.0) == (1.0, "crossing")


def _ref_rule(xtrial, ftrial, b):
    """Reference: the update rule a trial that is not the incumbent calls
    for, by its side of the incumbent and whether it improves."""
    if xtrial < b.xm:
        return 1 if ftrial < b.fm else 4
    return 2 if ftrial < b.fm else 3


def _ref_layout(branch, xtrial, ftrial, b):
    """Reference: the points and values update rule ``branch`` makes."""
    x, fv, c, n = b.x, b.fv, b._CENTRE, len(b.x)
    t, ft = (xtrial,), (ftrial,)
    if branch == 1:
        return x[:c] + t + x[c : n - 1], fv[:c] + ft + fv[c : n - 1]
    if branch == 2:
        return x[1 : c + 1] + t + x[c + 1 :], fv[1 : c + 1] + ft + fv[c + 1 :]
    if branch == 3:
        return x[: c + 1] + t + x[c + 1 : n - 1], fv[: c + 1] + ft + fv[c + 1 : n - 1]
    return x[1:c] + t + x[c:], fv[1:c] + ft + fv[c:]


@st.composite
def _update_cases(draw):
    """A five- or seven-point bracket, valid by construction, and a trial:
    on either side of the incumbent, at or one ulp beside an inner point,
    outside the inner interval, anywhere in the bracket, or NaN; with a
    value that often ties one of the bracket's."""
    cls = draw(st.sampled_from([ExtendedBracket5, ExtendedBracket7]))
    n, c = cls._N, cls._CENTRE
    # tiny scales make a one-ulp step wider than the minimum gap
    base = draw(st.one_of(st.integers(-3, 3).map(float), st.floats(-8.0, 8.0)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-13, 1e-15]))
    # gaps of one to six units.  A unit is at least two ulps of every
    # point, so rounding leaves each gap above half a unit, and that clears
    # the minimum gap, 16 eps times a span of at most 36 units
    unit = max(scale, 2.0 * math.ulp(abs(base) + 1.0))
    ks = [draw(st.integers(-20, 0))]
    for _ in range(n - 1):
        ks.append(ks[-1] + draw(st.integers(1, 6)))
    x = [base + unit * k for k in ks]
    # an outer point far out: dropping it shrinks the span, and the minimum
    # gap, by orders of magnitude.  Only at the two wide scales, where a
    # unit clears the far point's minimum gap (16 eps * 1e9, about 3.6e-6)
    far = draw(st.sampled_from([None, 0, n - 1])) if scale >= 1e-3 else None
    if far is not None:
        x[far] += 1e9 if far else -1e9
    x = tuple(x)
    fv = list(draw(st.lists(_num, min_size=n, max_size=n)))
    fv[c] = min(fv[c - 1 : c + 2])
    b = cls(x, tuple(fv))
    inner = [x[c - 1], x[c], x[c + 1]]
    inf = math.inf
    trials = [t for p in inner for t in (p, math.nextafter(p, -inf), math.nextafter(p, inf))]
    trials += [x[0], x[-1], x[0] - 1.0, x[-1] + 1.0, 0.5 * (x[c - 2] + x[c - 1]), math.nan]
    trials += [0.5 * (x[c - 1] + x[c]), 0.5 * (x[c] + x[c + 1])]
    side = draw(st.sampled_from([(x[c - 1], x[c]), (x[c], x[c + 1])]))
    xt = draw(st.one_of(st.floats(*side), st.sampled_from(trials), st.floats(x[0], x[-1])))
    ties = [fv[c], fv[c - 1], fv[c + 1], fv[c] - 1.0, math.nan]
    ft = draw(st.one_of(st.sampled_from(ties), _num))
    return b, xt, ft


_SQUARE7 = ExtendedBracket7((1, 2, 3, 4, 5, 6, 7), (9, 4, 1, 0, 1, 4, 9))
_TIGHT7 = ExtendedBracket7([1.0 + k * 1e-15 for k in range(7)], (3, 2, 1, 0, 1, 2, 3))
_FAR7 = ExtendedBracket7((-1e9, 2, 3, 4, 5, 6, 7), (9, 4, 1, 0, 1, 4, 9))


class TestLocalValidation:
    """apply_update picks the rule a trial calls for, checks only what that
    rule changed, and must refuse exactly what the full constructor
    refuses, with the same message, for every trial value but an infinite
    one, which the solver loop never passes it."""

    @settings(max_examples=1000, deadline=None)
    @given(case=_update_cases())
    # the trial one ulp right of the incumbent, wider than the minimum gap
    @example((_TIGHT7, math.nextafter(_TIGHT7.xm, 2.0), -1.0))
    # the trial 1e-6 right of the incumbent: wide enough only once the far
    # left point drops, so the gaps must be checked against the new span
    @example((_FAR7, 4.000001, -1.0))
    # one ulp beside the incumbent of a wide bracket: the gap is too small
    @example((_SQUARE7, math.nextafter(4.0, 5.0), 0.5))
    # a trial outside the inner interval, then a NaN or infinite trial and a
    # NaN value, these four refused as not finite
    @example((_SQUARE7, 5.5, 0.5))
    @example((_SQUARE7, math.nan, -1.0))
    @example((_SQUARE7, math.inf, -1.0))
    @example((_SQUARE7, -math.inf, 0.5))
    @example((_SQUARE7, 3.5, math.nan))
    # a value tie with the incumbent on either side holds the centre
    @example((_SQUARE7, 3.5, 0.0))
    @example((_SQUARE7, 4.5, 0.0))
    # the trial at the incumbent
    @example((_SQUARE7, 4.0, -1.0))
    def test_refuses_exactly_what_the_constructor_refuses(self, case):
        b, xt, ft = case
        if xt == b.xm:
            with pytest.raises(TrialAtCenterError):
                apply_update(xt, ft, b.x, b.fv)
            return
        rule = _ref_rule(xt, ft, b)
        nx, nf = _ref_layout(rule, xt, ft, b)
        try:
            want = type(b)(nx, nf)
        except BracketError as exc:
            with pytest.raises(InvariantBrokenError) as info:
                apply_update(xt, ft, b.x, b.fv)
            assert str(info.value) == f"update {rule} with trial {xt!r} broke the bracket: {exc}"
            assert type(info.value.__cause__) is type(exc)
            assert getattr(info.value.__cause__, "index", None) == getattr(exc, "index", None)
        else:
            got_rule, gx, gf = apply_update(xt, ft, b.x, b.fv)
            assert got_rule == rule
            assert type(gx) is type(gf) is tuple
            assert [bits(v) for v in gx + gf] == [bits(v) for v in want.x + want.fv]
            assert type(b)(gx, gf) == want


class TestClassification:
    def setup_method(self):
        self.b = with_values((1, 2, 3, 4, 5, 6, 7), lambda x: (x - 4.0) ** 2)

    def test_left_improving(self):
        assert update(3.5, -1.0, self.b)[0] == 1

    def test_right_improving(self):
        assert update(4.5, -1.0, self.b)[0] == 2

    def test_right_non_improving(self):
        assert update(4.5, 1.0, self.b)[0] == 3

    def test_left_non_improving(self):
        assert update(3.5, 1.0, self.b)[0] == 4

    def test_value_tie_counts_as_non_improving(self):
        assert update(4.5, self.b.fm, self.b)[0] == 3
        assert update(3.5, self.b.fm, self.b)[0] == 4

    def test_trial_at_centre_rejected(self):
        with pytest.raises(TrialAtCenterError):
            update(4.0, 0.0, self.b)


class TestUpdates:
    def setup_method(self):
        self.b = ExtendedBracket7((1, 2, 3, 4, 5, 6, 7), (9, 4, 1, 0, 1, 4, 9))

    def test_branch1_layout(self):
        nb = update(3.5, -1.0, self.b)[1]
        assert nb.x == (1, 2, 3, 3.5, 4, 5, 6)
        assert nb.fv == (9, 4, 1, -1.0, 0, 1, 4)

    def test_branch2_layout(self):
        nb = update(4.5, -1.0, self.b)[1]
        assert nb.x == (2, 3, 4, 4.5, 5, 6, 7)

    def test_branch3_layout(self):
        nb = update(4.5, 0.5, self.b)[1]
        assert nb.x == (1, 2, 3, 4, 4.5, 5, 6)

    def test_branch4_layout(self):
        nb = update(3.5, 0.5, self.b)[1]
        assert nb.x == (2, 3, 3.5, 4, 5, 6, 7)

    def test_inner_length_strictly_decreases(self):
        for xt, ft in ((3.5, -1.0), (4.5, -1.0), (4.5, 0.5), (3.5, 0.5)):
            nb = update(xt, ft, self.b)[1]
            assert inner_length(nb) < inner_length(self.b)

    def test_values_carried_over(self):
        nb = update(4.5, 0.5, self.b)[1]
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

    @pytest.mark.parametrize("spec", PAPER_ALGORITHMS + ("golden",))
    def test_budget_of_exactly_the_iterations_needed(self, spec):
        # a run that converges in n iterations still converges with budget
        # n, and with budget n - 1 stops after the same n - 1 iterations
        func = get_function("SU2")
        b = generate_bracket(func, np.random.default_rng(0))
        full = run_algorithm(spec, oracle_for(func), b, 1e-8, 500)
        n = full.iterations
        assert full.status is Status.CONVERGED and n > 1
        res = run_algorithm(spec, oracle_for(func), b, 1e-8, n)
        assert (res.status, res.iterations, res.trace) == (Status.CONVERGED, n, full.trace)
        res = run_algorithm(spec, oracle_for(func), b, 1e-8, n - 1)
        assert (res.status, res.iterations) == (Status.BUDGET_EXHAUSTED, n - 1)
        assert res.trace == full.trace[:n] and res.evaluations == full.evaluations - 1

    @pytest.mark.parametrize("spec", ["supm:0", "supm:1", "eupm", "dupm", "mifflin"])
    def test_wide_bracket_far_from_zero_ends_cleanly(self, spec):
        # the minimum gap, 16 eps of a span of 2e7, is far coarser than the
        # grid at the incumbent; an exact quadratic proposes the incumbent,
        # and the separation floor keeps each clipped trial clear of the
        # minimum gap of the bracket it was chosen on
        pts = (1e7, 1.2e7, 1.9e7, 2e7, 2.1e7, 2.8e7, 3e7)
        f = lambda x: (x - 2e7) ** 2
        trials = []
        res = run_algorithm(
            spec, recording(f, trials), with_values(pts, f), 1e-8, 100, record_brackets=True
        )
        assert res.status in (Status.CONVERGED, Status.BUDGET_EXHAUSTED, Status.STALLED)
        assert len(trials) == res.iterations > 0
        for br, x in zip(res.bracket_trace, trials):
            assert min(x - br.xl1, abs(x - br.xm), br.xr1 - x) > min_gap(br.x)

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
                assert len(trials) == res.iterations > 0
                for i, (br, xt) in enumerate(zip(res.bracket_trace, trials)):
                    fl = Flanks(br.x, br.fv)
                    if spec == "dupm":
                        g = dupm_step(br.x, supm_step(fl, res.alphas[i]), res.branches[:i])
                    else:
                        g = supm_step(fl, float(spec.split(":")[1]))
                    delta = default_delta(1e-8, br.x)
                    assert xt == min_separation(g, br.xl1, br.xm, br.xr1, delta)

    def test_one_flank_is_recomputed_per_iteration(self, monkeypatch):
        # the first iteration computes both flanks' coefficients; each later
        # one only the flank its update changed
        calls = Counter()

        def counting(*args):
            calls["flank_coeffs"] += 1
            return flank_coeffs(*args)

        for modname, mod in list(sys.modules.items()):
            if modname == "kinkline" or modname.startswith("kinkline."):
                for key, value in list(vars(mod).items()):
                    if value is flank_coeffs:
                        monkeypatch.setattr(mod, key, counting)
        for func in list_functions():
            b = generate_bracket(func, np.random.default_rng([62, 0]))
            calls.clear()
            res = supm_minimize(oracle_for(func), b, alpha=1.0)
            trials = res.iterations + (res.status is Status.STALLED)
            assert res.iterations > 1
            assert calls["flank_coeffs"] == trials + 1

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
                scaled = ExtendedBracket7(b.x, tuple(4.0 * v for v in b.fv))
                oracle = oracle_for(func)
                res = run_algorithm(spec, oracle, b, 1e-8, 500, record_brackets=True)
                res4 = run_algorithm(
                    spec, lambda x: 4.0 * oracle(x), scaled, 1e-8, 500, record_brackets=True
                )
                assert res4.status is res.status, (func.fid, t)
                assert [(br.x, tuple(4.0 * v for v in br.fv)) for br in res.bracket_trace] == [
                    (br.x, br.fv) for br in res4.bracket_trace
                ], (func.fid, t)

    # +inf included: apply_update, which the update-rule solvers call next,
    # takes no infinite trial value
    @pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize(
        "spec", ["supm:1", "eupm", "dupm", "mifflin", "brent", "golden"]
    )
    def test_non_finite_oracle_value_is_named(self, spec, value):
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        with pytest.raises(NonFiniteValueError, match=f"oracle returned {value!r} at x=") as exc:
            run_algorithm(spec, lambda x: value, b, 1e-8, 500)
        assert b.xl1 < float(str(exc.value).split("x=")[1]) < b.xr1

    def test_nan_proposal_is_refused_before_the_oracle(self):
        # the separation rule names a NaN proposal rather than letting the
        # loop hand it to the oracle
        b = with_values((-3, -2, -1, 0.5, 1, 2, 3), lambda x: x * x)
        trials = []
        with pytest.raises(InvariantBrokenError, match="proposed trial nan"):
            run_bracket_solver(
                recording(lambda x: x * x, trials), b, 1e-8, 500, lambda x, fv, br: math.nan
            )
        assert trials == []


def _ref_run_bracket_solver(oracle, b0, eps, budget, next_trial, record_brackets=False):
    """Reference: run_bracket_solver as it was, carrying a bracket that the
    slice-form update (_ref_rule, _ref_layout) rebuilds, validated, on
    every iteration; only the proposal contract is the current one."""
    quarter = eps / 4.0
    branches = []
    c = b0._CENTRE

    def iterate(evaluate):
        b = b0
        delta = default_delta(eps, b.x)
        yield inner_length(b), b.fm, lambda: b
        while True:
            x = b.x
            g = next_trial(x, b.fv, branches)
            xt = min_separation(g, x[c - 1], x[c], x[c + 1], delta)
            ft = evaluate(xt)
            if xt == b.xm:
                raise TrialAtCenterError(f"trial coincides with incumbent at {xt!r}")
            br = _ref_rule(xt, ft, b)
            b = type(b)(*_ref_layout(br, xt, ft, b))
            branches.append(br)
            if delta > quarter:
                delta = default_delta(eps, b.x)
            yield inner_length(b), b.fm, lambda: b

    result = run_solver(oracle, b0, eps, budget, iterate, record_brackets)
    result.branches = branches
    return result


def _ill_scaled_problem(rng):
    """A seven-point bracket centred within 1 of 1e8 with gaps of 1e-6 to
    1e-3, from tens to tens of thousands of ulps, on a kinked objective
    whose minimum is near the incumbent."""
    while True:
        x = random_bracket7(rng, gap_range=(1e-6, 1e-3), centre_range=(1e8 - 1.0, 1e8 + 1.0)).x
        m = x[3] + float(rng.uniform(-0.25, 0.25)) * min(x[3] - x[2], x[4] - x[3])
        a, b = (float(v) for v in rng.uniform(0.2, 2.0, 2))
        f = lambda t, m=m, a=a, b=b: max(-a * (t - m), b * (t - m)) + (t - m) ** 2
        try:
            return ExtendedBracket7(x, [f(t) for t in x]), f
        except BracketError:
            continue


def _loop_problems():
    """Two seeded bench draws per registry function, ten ill-scaled draws
    near 1e8 and the wide bracket far from zero of
    test_wide_bracket_far_from_zero_ends_cleanly: (label, bracket, oracle
    factory)."""
    for func in list_functions():
        for t in range(2):
            b = generate_bracket(func, np.random.default_rng([65, t]))
            yield f"{func.fid}/{t}", b, lambda func=func: oracle_for(func)
    rng = np.random.default_rng(66)
    for t in range(10):
        b, f = _ill_scaled_problem(rng)
        yield f"1e8/{t}", b, lambda f=f: f
    pts = (1e7, 1.2e7, 1.9e7, 2e7, 2.1e7, 2.8e7, 3e7)
    f = lambda x: (x - 2e7) ** 2
    yield "wide", with_values(pts, f), lambda: f


class TestLoopMatchesReference:
    @pytest.mark.parametrize(
        "spec", ["supm:0", "supm:0.1", "supm:1", "supm:10", "eupm", "dupm", "mifflin"]
    )
    def test_tuple_loop_equals_the_bracket_loop(self, spec, monkeypatch):
        # the loop on point and value tuples makes every decision of the
        # loop that rebuilt a bracket per iteration, bit for bit
        real = run_bracket_solver
        runs = []
        for label, b, oracle in _loop_problems():
            got = run_algorithm(spec, oracle(), b, 1e-8, 500, record_brackets=True)
            with monkeypatch.context() as m:
                for modname, mod in list(sys.modules.items()):
                    if modname == "kinkline" or modname.startswith("kinkline."):
                        for key, value in list(vars(mod).items()):
                            if value is real:
                                m.setattr(mod, key, _ref_run_bracket_solver)
                want = run_algorithm(spec, oracle(), b, 1e-8, 500, record_brackets=True)
            runs.append(got.iterations)
            assert (got.status, got.iterations, got.evaluations) == (
                want.status, want.iterations, want.evaluations
            ), label
            assert [tuple(map(bits, row)) for row in got.trace] == [
                tuple(map(bits, row)) for row in want.trace
            ], label
            assert got.branches == want.branches, label
            assert [bits(a) for a in got.alphas or []] == [bits(a) for a in want.alphas or []]
            assert len(got.bracket_trace) == len(want.bracket_trace), label
            pairs = zip(got.bracket_trace + [got.bracket], want.bracket_trace + [want.bracket])
            for gb, wb in pairs:
                assert type(gb) is type(wb), label
                assert [bits(v) for v in gb.x + gb.fv] == [bits(v) for v in wb.x + wb.fv], label
        assert sum(runs) > 500

    @pytest.mark.parametrize("spec", ["supm:0", "supm:1", "eupm", "dupm", "mifflin"])
    def test_recorded_rows_keep_the_kept_floats(self, spec):
        # write_trace_csv reuses a row's text by identity: each update keeps
        # all but one of the previous row's points and values as the same
        # objects, in order, with one end dropped
        for func in list_functions():
            b = generate_bracket(func, np.random.default_rng([67, 0]))
            res = run_algorithm(spec, oracle_for(func), b, 1e-8, 500, record_brackets=True)
            rows = res.bracket_trace
            assert len(rows) == res.iterations + 1 > 1
            for prev, row in zip(rows, rows[1:]):
                for old, new in ((prev.x, row.x), (prev.fv, row.fv)):
                    kept = [v for v in new if any(v is u for u in old)]
                    assert len(kept) == len(new) - 1
                    assert any(all(v is u for v, u in zip(kept, old[s:])) for s in (0, 1))


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
                rule, nb = update(xt, ft, b)
                assert rule == branch
                fl = Flanks(b.x, b.fv)
                kept = fl.left if branch in (1, 3) else fl.right
                fl.advance(nb.x, nb.fv, branch)
                fresh = Flanks(nb.x, nb.fv)
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
            # finite, but alpha * h overflows on this bracket (h = xr3 - xl1 = 4,
            # a float: the bracket stores its integer points as floats)
            message = (
                r"^alpha 1e\+308 overflows: alpha \* h is not finite on the starting "
                r"bracket \(h = 4\.0\)$"
            )
            with pytest.raises(AdjustmentOverflowError, match=message):
                run_algorithm("supm:1e308", oracle, b, 1e-8, 500)
            with pytest.raises(ValueError, match=message):
                supm_minimize(oracle, b, alpha=1e308)

    def test_default_delta_scales(self):
        # a quarter of eps near zero; far from zero, the minimum gap plus
        # one grid unit at the larger inner endpoint
        near = with_values((-3, -2, -1, 0, 1, 2, 3), abs)
        assert default_delta(1e-8, near.x) == 2.5e-9
        far = with_values(tuple(1e8 + d for d in (-3, -2, -1, 0, 1, 2, 3)), lambda x: abs(x - 1e8))
        gap = MIN_GAP_FACTOR * sys.float_info.epsilon * 6.0
        assert default_delta(1e-8, far.x) == gap + math.ulp(1e8 + 1)
        pts = (1e7, 1.2e7, 1.9e7, 2e7, 2.1e7, 2.8e7, 3e7)
        wide = with_values(pts, lambda x: abs(x - 2e7))
        gap = MIN_GAP_FACTOR * sys.float_info.epsilon * 2e7
        assert default_delta(1e-8, wide.x) == gap + math.ulp(2.1e7) > 1e-8 / 4
