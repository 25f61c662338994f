import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outer_length, random_bracket7
from kinkline.brackets import (
    Bracket,
    Bracket3,
    BracketError,
    ExtendedBracket5,
    ExtendedBracket7,
    NotABracketError,
    NotAscendingError,
    inner3,
    inner5,
    inner_length,
    reflect,
)
from kinkline.harness import random_bracket5

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
