import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, outer_length, random_bracket7
from kinkline.brackets import (
    Bracket,
    Bracket3,
    BracketError,
    BracketTooSmallError,
    ExtendedBracket5,
    ExtendedBracket7,
    InvariantBrokenError,
    NotABracketError,
    NotAscendingError,
    NotFiniteError,
    apply_update,
    default_delta,
    inner3,
    inner5,
    inner_length,
    min_gap,
    min_separation,
    reflect,
)
from kinkline.harness import SOLVERS, generate_bracket, run_algorithm
from kinkline.result import Status
from kinkline.testfuncs import list_functions
from kinkline.verify import random_bracket5

SEVEN = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


def quad7():
    return ExtendedBracket7(SEVEN, tuple(v * v for v in SEVEN))


gaps5 = st.tuples(*(st.floats(0.01, 10.0) for _ in range(4)))
centres = st.floats(-100.0, 100.0)


def bracket5_from(gaps, xm):
    p1, p2, p3, p4 = gaps
    x = (xm - p2 - p1, xm - p2, xm, xm + p3, xm + p3 + p4)
    return ExtendedBracket5(x, (0.3, 1.0, 0.0, 2.0, 0.7))


class TestConstruction:
    def test_convex_symmetric_valid(self):
        b = quad7()
        assert b.xm == 0.0 and b.fm == 0.0

    def test_monotone_values_rejected(self):
        with pytest.raises(NotABracketError):
            ExtendedBracket7(SEVEN, SEVEN)

    def test_disorder_reports_index(self):
        with pytest.raises(NotAscendingError) as exc:
            ExtendedBracket7((0, 2, 1, 3, 4, 5, 6), (9, 4, 1, 0, 1, 4, 9))
        assert exc.value.index == 2

    def test_near_coincident_points_rejected(self):
        pts = (-3.0, -2.0, -1.0, -1.0 + 1e-17, 1.0, 2.0, 3.0)
        with pytest.raises(NotAscendingError):
            ExtendedBracket7(pts, (9, 4, 1, 0, 1, 4, 9))

    def test_bracket3_centre_condition(self):
        with pytest.raises(NotABracketError):
            Bracket3(0.0, 1.0, 2.0, 0.0, 1.0, 2.0)


SIZES = [(Bracket3, 3), (ExtendedBracket5, 5), (ExtendedBracket7, 7)]


def build(cls, x, fv):
    """A bracket of any size through its public constructor."""
    return cls(*x, *fv) if cls is Bracket3 else cls(tuple(x), tuple(fv))


def parabola(n):
    """Points -c..c of an n-point bracket and their squares."""
    x = [float(i - n // 2) for i in range(n)]
    return x, [v * v for v in x]


@pytest.mark.parametrize("cls, n", SIZES)
class TestOneBracketType:
    def test_valid_bracket_names_its_inner_triple(self, cls, n):
        x, fv = parabola(n)
        b = build(cls, x, fv)
        assert (b.xl1, b.xm, b.xr1, b.fm) == (-1.0, 0.0, 1.0, 0.0)
        assert b.x == tuple(x) and b.fv == tuple(fv)

    def test_wrong_point_count_is_named(self, cls, n):
        x, fv = parabola(n + 2)
        with pytest.raises(BracketError, match=f"need exactly {n} points and {n} values"):
            Bracket.__init__(object.__new__(cls), tuple(x), tuple(fv))

    def test_points_out_of_order_give_the_index(self, cls, n):
        x, fv = parabola(n)
        x[-2], x[-1] = x[-1], x[-2]
        with pytest.raises(NotAscendingError) as exc:
            build(cls, x, fv)
        assert exc.value.index == n - 1

    def test_gap_rule_depends_on_the_size(self, cls, n):
        x, fv = parabola(n)
        x[-1] = x[-2] + 4.0 * sys.float_info.epsilon * (x[-2] - x[0])
        assert 0.0 < x[-1] - x[-2] < 16.0 * sys.float_info.epsilon * (x[-1] - x[0])
        if cls is Bracket3:
            assert build(cls, x, fv).xr == x[-1]
        else:
            with pytest.raises(NotAscendingError) as exc:
                build(cls, x, fv)
            assert exc.value.index == n - 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_number_is_refused_by_its_index(self, cls, n, bad):
        # every point and every value, with the gap check (which a
        # non-finite point fails at another index) made to fail too
        for what in ("point", "value"):
            for i in range(n):
                for gap_ok in (True, False):
                    x, fv = parabola(n)
                    (x if what == "point" else fv)[i] = bad
                    if not gap_ok:  # the last point other than i onto the first
                        others = [j for j in range(n) if j != i]
                        x[others[-1]] = x[others[0]]
                    with pytest.raises(NotFiniteError) as exc:
                        build(cls, x, fv)
                    assert str(exc.value) == f"{what} {i} is not finite: {bad!r}"

    def test_finite_values_whose_sum_overflows_are_accepted(self, cls, n):
        x, fv = parabola(n)
        fv = [v and 1e308 for v in fv]  # 0.0 at the centre, 1e308 elsewhere
        assert build(cls, x, fv).fv == tuple(fv)

    def test_immutable(self, cls, n):
        b = build(cls, *parabola(n))
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.x = (0.0,) * n
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.fv = b.fv


@pytest.mark.parametrize("cls, n", SIZES[1:])
def test_any_sequences_are_stored_as_tuples(cls, n):
    x, fv = parabola(n)
    for px, pf in ((x, fv), (iter(x), (v for v in fv)), (tuple(x), tuple(fv))):
        b = cls(px, pf)
        assert type(b.x) is tuple and type(b.fv) is tuple
        assert b.x == tuple(x) and b.fv == tuple(fv)
    # a tuple is kept as it is, so every point and value keeps its identity
    tx, tf = tuple(x), tuple(fv)
    b = cls(tx, tf)
    assert b.x is tx and b.fv is tf


class TestNumberType:
    """A bracket holds builtin floats, whatever numbers it is built from."""

    X = np.linspace(-3.0, 3.0, 7)

    @staticmethod
    def f(x):
        return abs(x - 0.1) + 0.05 * (x - 0.1) ** 2

    def test_numpy_input_is_stored_as_builtin_floats(self):
        b = ExtendedBracket7(self.X, np.array([self.f(v) for v in self.X]))
        assert all(type(v) is float for v in b.x + b.fv)
        assert b == ExtendedBracket7(self.X.tolist(), [self.f(v) for v in self.X.tolist()])
        t = Bracket3(*self.X[2:5], *map(self.f, self.X[2:5]))
        assert all(type(v) is float for v in t.x + t.fv)

    @pytest.mark.parametrize("kind", sorted(SOLVERS))
    def test_every_solver_computes_in_builtin_floats(self, kind):
        # the same run, bit for bit, from a bracket of NumPy scalars as from
        # one of builtin floats, and every number it reports a builtin float
        x = self.X.copy()
        x[3] = 0.25
        runs = [
            run_algorithm(kind, self.f, ExtendedBracket7(pts, vals), 1e-8, 200, True)
            for pts, vals in (
                (x, np.array([self.f(v) for v in x])),
                (x.tolist(), [self.f(v) for v in x.tolist()]),
            )
        ]
        numbers = []
        for res in runs:
            brackets = [res.bracket, *res.bracket_trace]
            numbers.append([v for _, d, fm in res.trace for v in (d, fm)])
            numbers[-1] += [v for br in brackets for v in br.x + br.fv]
            assert all(type(v) is float for v in numbers[-1]), kind
        assert runs[0].iterations == runs[1].iterations > 0
        assert list(map(bits, numbers[0])) == list(map(bits, numbers[1]))

    @pytest.mark.parametrize("bad", ["0.0", None, b"0.0"])
    def test_a_point_that_is_no_number_is_refused(self, bad):
        x, fv = list(SEVEN), [v * v for v in SEVEN]
        x[3] = bad
        with pytest.raises(TypeError):
            ExtendedBracket7(x, fv)
        with pytest.raises(TypeError):
            Bracket3(-1.0, bad, 1.0, 1.0, 0.0, 1.0)


#: The wide bracket far from zero on which every update-rule spec once
#: raised: its minimum gap is far coarser than the float grid at 2e7.
_WIDE = ExtendedBracket7(
    (1e7, 1.2e7, 1.9e7, 2e7, 2.1e7, 2.8e7, 3e7),
    [(v - 2e7) ** 2 for v in (1e7, 1.2e7, 1.9e7, 2e7, 2.1e7, 2.8e7, 3e7)],
)

_seeds = st.integers(0, 2**32 - 1)
_admission_brackets = st.one_of(
    st.builds(
        lambda f, s: generate_bracket(f, np.random.default_rng(s)),
        st.sampled_from(list_functions()),
        _seeds,
    ),
    _seeds.map(lambda s: random_bracket7(np.random.default_rng(s))),
    # ill-scaled: gaps of 1e-6 to 1e-3 on an incumbent of 1e7 to 1e8
    _seeds.map(
        lambda s: random_bracket7(
            np.random.default_rng(s), gap_range=(1e-6, 1e-3), centre_range=(1e7, 1e8)
        )
    ),
)
#: Where a proposal lies: a named point of the bracket, an infinity, or a
#: fraction of the way from the left inner endpoint to the right one.
_proposals = st.one_of(
    st.sampled_from(["xl1", "xm", "xr1", math.inf, -math.inf]), st.floats(-0.5, 1.5)
)


@settings(max_examples=300, deadline=None)
@given(
    b=_admission_brackets,
    five=st.booleans(),
    where=_proposals,
    eps=st.sampled_from([1e-8, 1e-3, 1e-14]),
)
@example(b=_WIDE, five=False, where="xm", eps=1e-8)
@example(b=_WIDE, five=True, where="xm", eps=1e-8)
@example(b=_WIDE, five=False, where=0.5, eps=1e-8)
def test_admitted_trial_clears_the_gap_check(b, five, where, eps):
    # the trial-admission rule: a clipped trial lies delta from the
    # incumbent and the inner endpoints, short by at most half an ulp of
    # the trial, and the update inserting it accepts it, improving or not
    if five:
        b = inner5(b)
    x, fv, c = b.x, b.fv, b._CENTRE
    lo, mid, hi = x[c - 1], x[c], x[c + 1]
    if isinstance(where, str):
        g = getattr(b, where)
    else:
        g = where if math.isinf(where) else lo + where * (hi - lo)
    delta = default_delta(eps, x)
    try:
        xt = min_separation(g, lo, mid, hi, delta)
    except BracketTooSmallError:  # no room on either side, up to rounding
        assert max(mid - lo, hi - mid) < 2.0 * delta + 4.0 * math.ulp(max(-lo, hi))
        return
    with pytest.raises(InvariantBrokenError, match="proposed trial nan"):
        min_separation(math.nan, lo, mid, hi, delta)
    short = Fraction(delta) - Fraction(math.ulp(xt)) / 2
    for end in (lo, mid, hi):
        assert abs(Fraction(xt) - Fraction(end)) >= short
    assert min(xt - lo, abs(xt - mid), hi - xt) > min_gap(x)
    for ft in (b.fm - 1.0, b.fm + 1.0):
        _, nx, nf = apply_update(xt, ft, x, fv)
        type(b)(nx, nf)


class TestBracket3:
    def test_ends_are_the_inner_neighbours(self):
        b = Bracket3(-0.5, 0.25, 2.0, 3.0, 1.0, 4.0)
        assert (b.xl1, b.xr1) == (b.xl, b.xr) == (-0.5, 2.0)
        assert (b.fl, b.fm, b.fr) == (3.0, 1.0, 4.0)
        assert inner_length(b) == outer_length(b) == b.xr - b.xl


class TestLengths:
    def test_inner_symmetric(self):
        assert inner_length(quad7()) == 2.0

    def test_inner_uneven(self):
        b = ExtendedBracket7((-1, -0.9, -0.75, 0, 0.6, 0.8, 0.95), (1, 1, 1, 0, 1, 1, 1))
        assert inner_length(b) == pytest.approx(1.35, abs=0)

    def test_outer_symmetric(self):
        assert outer_length(quad7()) == 6.0

    def test_outer_uneven(self):
        b = ExtendedBracket7((-1, -0.9, -0.75, 0, 0.6, 0.8, 0.95), (1, 1, 1, 0, 1, 1, 1))
        assert outer_length(b) == pytest.approx(1.95, abs=0)

    def test_outer_exceeds_inner(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            b = random_bracket7(rng)
            assert outer_length(b) > inner_length(b)

    def test_reflection_preserves_inner_length(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            b = random_bracket5(rng)
            assert inner_length(reflect(b)) == inner_length(b)


class TestReflect:
    def test_symmetric_fixed_point(self):
        b = ExtendedBracket5((-2, -1, 0, 1, 2), (4, 1, 0, 1, 4))
        assert reflect(b).x == b.x

    def test_uneven_example(self):
        b = ExtendedBracket5((0, 1, 1.5, 3, 4), (5, 2, 0, 3, 9))
        r = reflect(b)
        assert r.x == (-4, -3, -1.5, -1, 0)
        assert r.fv == (9, 3, 0, 2, 5)

    @given(gaps5, centres)
    @settings(max_examples=300, deadline=None)
    def test_involution(self, gaps, xm):
        b = bracket5_from(gaps, xm)
        assert reflect(reflect(b)).x == b.x
        assert reflect(reflect(b)).fv == b.fv


class TestInnerViews:
    @given(gaps5, centres)
    @settings(max_examples=200, deadline=None)
    def test_inner_triple_is_a_bracket(self, gaps, xm):
        b = bracket5_from(gaps, xm)
        t = inner3(b)
        assert t.xl < t.xm < t.xr and t.fl >= t.fm <= t.fr

    def test_inner5_drops_outer_pair(self):
        b = quad7()
        assert inner5(b).x == b.x[1:6]
        assert inner5(b).fv == b.fv[1:6]

    def test_inner3_of_random_seven(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            inner3(random_bracket7(rng))


#: The widest span whose square is still finite, about 1.34e154.
SQRT_MAX = math.sqrt(sys.float_info.max)


class TestSpan:
    """Five and seven points must span less than the square root of the
    largest float; three points may span any finite width."""

    def test_a_three_point_bracket_may_span_the_float_range(self):
        b = Bracket3(-1e308, 0.0, 1e308, 1.0, 0.0, 1.0)
        assert b.x == (-1e308, 0.0, 1e308)
        for kind in ("golden", "brent"):
            res = SOLVERS[kind][0](abs, b, 1e-8, 100)
            assert isinstance(res.status, Status), kind
            # the span overflows, yet the first probes fit in it
            assert res.iterations >= 1, kind
            assert all(math.isfinite(d) for _, d, _ in res.trace[1:]), kind

    def test_a_span_that_overflows_is_refused_by_name(self):
        # the points ascend, so the refusal names the span, not an index
        with pytest.raises(BracketError) as exc:
            ExtendedBracket5((-1e308, -1.0, 0.0, 1.0, 1e308), (1.0, 1.0, 0.0, 1.0, 1.0))
        assert type(exc.value) is BracketError
        assert str(exc.value) == "span inf too wide: its square overflows"

    @pytest.mark.parametrize("factor", [0.999, 1.001])
    def test_the_limit_is_the_square_root_of_the_largest_float(self, factor):
        span = factor * SQRT_MAX
        x = (-span / 2, -span / 4, 0.0, span / 4, span / 2)
        fv = (1.0, 1.0, 0.0, 1.0, 1.0)
        if factor > 1.0:
            with pytest.raises(BracketError, match=f"^{re.escape(f'span {span!r}')} too wide"):
                ExtendedBracket5(x, fv)
            return
        b = ExtendedBracket5(x, fv)
        for kind in ("eupm", "mifflin"):
            res = SOLVERS[kind][0](abs, b, 1e-8, 100)
            assert isinstance(res.status, Status), kind

    def test_a_span_the_closed_form_step_overflows_on_is_refused(self):
        # the gaps' products overflow in the closed-form step, which then
        # proposed a NaN trial from this bracket
        with pytest.raises(BracketError, match=r"^span 4e\+155 too wide"):
            ExtendedBracket5((-2e155, -1e155, 1e154, 1e155, 2e155), (1, 1, 0, 1, 1))
