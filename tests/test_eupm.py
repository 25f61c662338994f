import itertools
import math
import sys

import numpy as np
import pytest

from conftest import bits, outer_length, random_bracket7, update
from kinkline import verify
from kinkline.brackets import ExtendedBracket5, default_delta, inner5, inner_length, reflect
from kinkline.eupm import (
    all_branch_sequences,
    bracket_check,
    eupm_minimize,
    eupm_step,
    gap_apply_binary,
    gap_map,
    gap_offset,
    gap_sequence_ratios,
)
from kinkline.harness import generate_bracket, sample_simplex
from kinkline.result import Status
from kinkline.testfuncs import list_functions
from kinkline.verify import MINIMAL_SEQUENCES, random_bracket5

EPS = sys.float_info.epsilon


def b5(points, values=(5.0, 2.0, 0.0, 3.0, 9.0)):
    return ExtendedBracket5(points, values)


def apply_sequence(b, seq):
    """Bracket-form twin of the gap algebra: apply update indices to ``b``
    with the closed-form step, returning (bracket reached, feasible).

    No oracle is involved: values at inserted points are synthesized one
    unit below or above the incumbent value, and a unit that rounds away
    so that the value decides another rule is a ``ValueError``.  An element
    is feasible when its branch family matches the sign of
    :func:`bracket_check` (an exact zero counts as left; a trial on the
    incumbent raises ``TrialAtCenterError``); the walk stops at the first
    infeasible one.  No minimum-separation projection is applied.
    """
    feasible = True
    for br in seq:
        if br not in (1, 2, 3, 4):
            raise ValueError(f"sequence elements must be in 1..4, got {br!r}")
        c = bracket_check(b.x)
        if (c <= 0.0) != (br in (1, 4)):
            feasible = False
            break
        ft = b.fm - 1.0 if br in (1, 2) else b.fm + 1.0
        rule, b = update(b.xm + c, ft, b)
        if rule != br:
            raise ValueError(f"value {ft!r} made update {rule}, not {br}")
    return b, feasible


# Reference forms of the gap engine on (n, 4) arrays: each map stacks a
# new array, and the binary step builds both candidate maps in full and
# selects between them with a 2-D where.  The column form does the same
# arithmetic, so it must give the same bits.


def _ref_gap_check(p):
    p1, p2, p3, p4 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    return (p3 * (p3 + p4) - p2 * (p1 + p2)) / (p1 + 2.0 * (p2 + p3) + p4)


def _ref_gap_apply(p, branch, c=None):
    if c is None:
        c = _ref_gap_check(p)
    p1, p2, p3, p4 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    cols = {
        1: (p1, p2 + c, -c, p3),
        2: (p2, c, p3 - c, p4),
        3: (p1, p2, c, p3 - c),
        4: (p2 + c, -c, p3, p4),
    }[branch]
    return np.stack(cols, axis=1)


def _ref_gap_apply_binary(p, improving):
    c = _ref_gap_check(p)
    left = (c <= 0.0)[:, None]
    if improving:
        return np.where(left, _ref_gap_apply(p, 1, c), _ref_gap_apply(p, 2, c))
    return np.where(left, _ref_gap_apply(p, 4, c), _ref_gap_apply(p, 3, c))


def _ref_gap_sequence_ratios(p, seq):
    d0 = p[:, 1] + p[:, 2]
    feasible = np.ones(len(p), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for br in seq:
            c = _ref_gap_check(p)
            feasible &= (c <= 0.0) if br in (1, 4) else (c > 0.0)
            p = _ref_gap_apply(p, br, c)
        ratios = (p[:, 1] + p[:, 2]) / d0
    return ratios, feasible


def _same_bits(a, b):
    """Equal shapes and equal float bits, so ``0.0`` differs from ``-0.0``."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _gap_rows():
    """Simplex draws plus rows whose step offset is exactly zero."""
    zero = np.array(
        [
            [0.25, 0.25, 0.25, 0.25],
            [1.0, 1.0, 1.0, 1.0],
            [0.1, 0.4, 0.4, 0.1],
            [3.0, 0.5, 0.5, 3.0],
            [2.5, 2.0, 1.5, 4.5],  # 1.5 * 6 == 2 * 4.5 without symmetry
        ]
    )
    assert np.all(gap_offset(*zero.T) == 0.0)
    return np.concatenate([sample_simplex(np.random.default_rng(21), 3000), zero]), zero


class TestStep:
    def test_symmetric_centre(self):
        assert eupm_step(b5((-2, -1, 0.2, 1, 2)).x) == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        assert eupm_step(b5((0, 1, 1.5, 3, 4)).x) == pytest.approx(2.0, abs=0)

    def test_second_hand_example(self):
        assert eupm_step(b5((-1, -0.5, 0.0, 0.5, 2)).x) == pytest.approx(0.125, abs=0)

    def test_step_strictly_interior(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            b = random_bracket5(rng)
            g = eupm_step(b.x)
            assert b.xl1 < g < b.xr1

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            b = random_bracket5(rng)
            s = rng.uniform(0.1, 10.0)
            t = rng.uniform(-50.0, 50.0)
            moved = ExtendedBracket5(tuple(s * x + t for x in b.x), b.fv)
            g = eupm_step(moved.x)
            want = s * eupm_step(b.x) + t
            assert g == pytest.approx(want, abs=1e-10 * (abs(want) + s * outer_length(b)))


class TestBracketCheck:
    def test_symmetric_zero(self):
        assert bracket_check(b5((-2, -1, 0, 1, 2)).x) == 0.0

    def test_hand_example(self):
        assert bracket_check(b5((0, 1, 1.5, 3, 4)).x) == pytest.approx(0.5, abs=0)

    def test_antisymmetric_under_reflection(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            b = random_bracket5(rng)
            assert bracket_check(reflect(b).x) == -bracket_check(b.x)

    def test_seven_points_read_as_their_inner_five(self):
        # the offsets are read around the centre, so a seven-point bracket
        # gives, bit for bit, what its inner five give
        rng = np.random.default_rng(14)
        brackets = [random_bracket7(rng) for _ in range(500)]
        brackets += [
            random_bracket7(rng, gap_range=(1e-7, 1e-6), centre_range=(1e8 - 1.0, 1e8 + 1.0))
            for _ in range(200)
        ]
        for t, func in enumerate(list_functions()):
            brackets += [generate_bracket(func, np.random.default_rng([14, t, k])) for k in range(20)]
        for b in brackets:
            assert bits(bracket_check(b.x)) == bits(bracket_check(inner5(b).x))
            assert bits(eupm_step(b.x)) == bits(eupm_step(inner5(b).x))


class TestReflectionIdentities:
    def test_step_negates(self):
        rng = np.random.default_rng(13)
        for _ in range(5000):
            b = random_bracket5(rng)
            err = abs(eupm_step(reflect(b).x) + eupm_step(b.x))
            assert err <= 4.0 * EPS * outer_length(b)

    def test_update_mirrors(self):
        # left-family updates are the mirror images of the right-family ones
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 500:
            b = random_bracket5(rng)
            if bracket_check(b.x) >= 0.0:
                b = reflect(b)
            if bracket_check(b.x) >= 0.0:
                continue
            rb = reflect(b)
            for rules, df in (((1, 2), -1.0), ((4, 3), 1.0)):
                br, direct = update(eupm_step(b.x), b.fm + df, b)
                mirrored, mirror = update(eupm_step(rb.x), rb.fm + df, rb)
                assert (br, mirrored) == rules
                mirror = reflect(mirror)
                tol = 4.0 * EPS * outer_length(b)
                assert all(abs(u - v) <= tol for u, v in zip(direct.x, mirror.x))
            checked += 1


class TestSolver:
    def test_absolute_value_converges(self):
        res = eupm_minimize(abs, b5((-2.0, -0.7, 0.3, 1.1, 2.3), (2.0, 0.7, 0.3, 1.1, 2.3)))
        assert res.status is Status.CONVERGED

    def test_tiny_bracket_converges_immediately(self):
        b = b5((-1e-9, -5e-10, 0.0, 5e-10, 1e-9), (5.0, 2.0, 0.0, 3.0, 9.0))
        res = eupm_minimize(lambda x: x * x, b)
        assert res.status is Status.CONVERGED and res.iterations == 0

    def test_five_iteration_halving(self):
        # inner length at least halves over any five iterations, up to the
        # minimum-separation perturbation near termination
        for f in (abs, lambda x: x * x, lambda x: max(math.exp(x) - 1.0, -x)):
            b = b5((-2.0, -0.7, 0.29, 1.1, 2.3), tuple(f(x) for x in (-2.0, -0.7, 0.29, 1.1, 2.3)))
            delta = default_delta(1e-8, b.x)
            res = eupm_minimize(f, b)
            ds = [row[1] for row in res.trace]
            for i in range(len(ds) - 5):
                assert ds[i + 5] <= 0.5 * ds[i] + 8.0 * delta

    def test_run_branches_obey_successor_rule(self):
        for f in (abs, lambda x: (x - 0.2) ** 2, math.cosh):
            b = b5((-2.0, -0.7, 0.3, 1.1, 2.3), tuple(f(x) for x in (-2.0, -0.7, 0.3, 1.1, 2.3)))
            res = eupm_minimize(f, b)
            for b1, b2 in zip(res.branches, res.branches[1:]):
                if b1 == 1:
                    assert b2 in (1, 4)
                if b1 == 2:
                    assert b2 in (2, 3)


class TestSequences:
    def test_single_left_update_feasible_iff_check_negative(self):
        b = b5((0, 1, 1.8, 2, 3), (5, 2, 0, 3, 9))  # check < 0 here
        assert bracket_check(b.x) < 0.0
        _, feasible = apply_sequence(b, [1])
        assert feasible
        _, feasible = apply_sequence(b, [2])
        assert not feasible

    def test_one_then_two_never_feasible(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            b = random_bracket5(rng)
            _, feasible = apply_sequence(b, [1, 2])
            assert not feasible

    def test_value_that_decides_another_rule_is_refused(self):
        # at 2**60 a unit below the incumbent rounds to a tie: not improving
        big = 2.0**60
        b = b5((0, 1, 1.8, 2, 3), (big + 512, big + 256, big, big + 256, big + 512))
        with pytest.raises(ValueError, match="made update 4, not 1"):
            apply_sequence(b, [1])

    def test_element_outside_one_to_four_refused(self):
        b = b5((0, 1, 1.8, 2, 3))
        with pytest.raises(ValueError, match="^sequence elements must be in 1..4, got 5$"):
            apply_sequence(b, [1, 5])
        p = sample_simplex(np.random.default_rng(20), 3)
        with pytest.raises(ValueError, match="^branch must be 1..4, got 0$"):
            gap_map(0, gap_offset(*p.T), *p.T)
        with pytest.raises(ValueError, match="^branch must be 1..4, got 5$"):
            gap_sequence_ratios(p, (1, 5))

    def test_infeasible_start_stops_the_walk(self):
        b = b5((0, 1, 1.5, 3, 4))  # check > 0: left-family start impossible
        b2, feasible = apply_sequence(b, (1,))
        assert not feasible and b2 == b

    def test_triple_one_ratio_matches_gap_formula(self):
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 300:
            b = random_bracket5(rng)
            if bracket_check(b.x) >= 0.0:
                b = reflect(b)
            b3, feasible = apply_sequence(b, (1, 1, 1))
            if not feasible:
                continue
            got = inner_length(b3) / inner_length(b)
            x = b.x
            p1, p2, p3 = x[1] - x[0], x[2] - x[1], x[3] - x[2]
            assert got == pytest.approx(p2 / (p1 + 2.0 * p2 + p3), rel=1e-9)
            assert got < 0.5
            checked += 1

    def test_double_four_contracts_by_half(self):
        rng = np.random.default_rng(17)
        p = sample_simplex(rng, 20000)
        ratios, feas = gap_sequence_ratios(p, (4, 4))
        assert feas.any()
        assert float(np.max(ratios[feas])) < 0.5

    def test_pair_identity_44_equals_422(self):
        rng = np.random.default_rng(18)
        p = sample_simplex(rng, 20000)
        p = p[gap_offset(*p.T) < 0.0]
        r1, _ = gap_sequence_ratios(p, (4, 4))
        r2, _ = gap_sequence_ratios(p, (4, 2, 2))
        assert float(np.max(np.abs(r1 - r2))) <= 1e-12

    def test_minimal_sequences_all_contract(self):
        rng = np.random.default_rng(19)
        for seq in MINIMAL_SEQUENCES:
            collected = 0
            for _ in range(40):
                p = sample_simplex(rng, 5000)
                ratios, feas = gap_sequence_ratios(p, seq)
                if feas.any():
                    assert float(np.max(ratios[feas])) < 0.5
                    collected += int(feas.sum())
                if collected >= 2000:
                    break
            assert collected >= 1, f"never sampled a feasible start for {seq}"

    def test_enumeration_covers_all_sequences(self):
        seqs = all_branch_sequences(3)
        assert len(seqs) == 64 and (1, 2, 3) in seqs

    def test_typed_and_gap_paths_agree(self):
        rng = np.random.default_rng(20)
        checked = 0
        while checked < 200:
            b = random_bracket5(rng)
            seq = tuple(rng.integers(1, 5, size=3))
            b2, feasible = apply_sequence(b, seq)
            x = b.x
            p = np.array([[x[1] - x[0], x[2] - x[1], x[3] - x[2], x[4] - x[3]]])
            ratios, feas = gap_sequence_ratios(p, seq)
            assert bool(feas[0]) == feasible
            if feasible:
                want = inner_length(b2) / inner_length(b)
                assert ratios[0] == pytest.approx(want, rel=1e-9, abs=1e-12)
                checked += 1


class TestColumnForm:
    # the column form keeps the arithmetic of the stacked form operation
    # for operation, so every output bit must agree with the reference

    def test_offset_and_every_map_match_the_stacked_form(self):
        p, _ = _gap_rows()
        c = gap_offset(*p.T)
        assert _same_bits(c, _ref_gap_check(p))
        for br in (1, 2, 3, 4):
            ref = _ref_gap_apply(p, br)
            cols = gap_map(br, c, *p.T)
            assert len(cols) == 4
            for k in range(4):
                assert _same_bits(cols[k], ref[:, k]), (br, k)

    def test_offset_leaves_its_input_columns_as_they_were(self):
        p, _ = _gap_rows()
        cols = tuple(np.ascontiguousarray(p.T))
        before = [col.view(np.int64).copy() for col in cols]
        c = gap_offset(*cols)
        assert all(c is not col and not np.shares_memory(c, col) for col in cols)
        assert all(np.array_equal(col.view(np.int64), was) for col, was in zip(cols, before))

    def test_offset_of_signed_zeros_infinities_and_nans_matches_bit_for_bit(self):
        # every row over these values, NaNs of both signs included: the
        # in-place steps must keep the expression's operand order, since
        # NumPy picks which NaN operand to pass on by position
        vals = (0.0, -0.0, 1.0, 0.5, 2.0, -1.0, math.inf, -math.inf, math.nan, -math.nan)
        p = np.array(list(itertools.product(vals, repeat=4)))
        with np.errstate(all="ignore"):
            want = _ref_gap_check(p)
            assert _same_bits(gap_offset(*p.T), want)
        assert np.any(want == 0.0) and np.any(np.signbit(want[want == 0.0]))
        assert np.any(np.isinf(want)) and np.any(np.isnan(want))

    @pytest.mark.parametrize("improving", [True, False])
    def test_binary_step_matches_the_two_dimensional_where(self, improving):
        p, zero = _gap_rows()
        ref, cols = p, tuple(p.T)
        for _ in range(6):
            ref = _ref_gap_apply_binary(ref, improving)
            cols = gap_apply_binary(*cols, improving)
            for k in range(4):
                assert _same_bits(cols[k], ref[:, k]), k
        # zero counts as left: update 1 (improving) or 4 (not) on every zero row
        left = gap_map(1 if improving else 4, gap_offset(*zero.T), *zero.T)
        for got, want in zip(gap_apply_binary(*zero.T, improving), left):
            assert _same_bits(got, want)

    def test_every_three_step_sequence_matches_the_stacked_walk(self):
        p, zero = _gap_rows()
        for seq in all_branch_sequences(3):
            ratios, feasible = gap_sequence_ratios(p, seq)
            ref_ratios, ref_feasible = _ref_gap_sequence_ratios(p, seq)
            assert _same_bits(ratios, ref_ratios), seq
            assert np.array_equal(feasible, ref_feasible), seq
        # zero counts as left: every left update is feasible there, no right one
        for br in (1, 2, 3, 4):
            _, feasible = gap_sequence_ratios(zero, (br,))
            assert np.all(feasible == (br in (1, 4))), br


class TestVerifyChecks:
    @pytest.mark.parametrize(
        "check", ["minimal_sequence_ratios", "five_step_contraction", "reflection_symmetry"]
    )
    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_is_refused_not_passed(self, check, samples):
        # a check that drew nothing has no evidence: it must not return a
        # reading below its bound
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            getattr(verify, check)(np.random.default_rng(0), samples)
