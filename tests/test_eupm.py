import math
import sys

import numpy as np
import pytest

from conftest import bits
from kinkline.brackets import (
    apply_update,
    inner5,
    inner_length,
    make_extended5,
    outer_length,
    reflect,
)
from kinkline.eupm import (
    MINIMAL_SEQUENCES,
    all_branch_sequences,
    apply_sequence,
    bracket_check,
    eupm_minimize,
    eupm_step,
    gap_check,
    gap_inner,
    gap_sequence_ratios,
)
from kinkline.harness import generate_bracket, random_bracket5, random_bracket7, sample_simplex
from kinkline.result import Status
from kinkline.supm import default_delta
from kinkline.testfuncs import list_functions

EPS = sys.float_info.epsilon


def b5(points, values=(5.0, 2.0, 0.0, 3.0, 9.0)):
    return make_extended5(points, values)


class TestStep:
    def test_symmetric_centre(self):
        assert eupm_step(b5((-2, -1, 0.2, 1, 2))) == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        assert eupm_step(b5((0, 1, 1.5, 3, 4))) == pytest.approx(2.0, abs=0)

    def test_second_hand_example(self):
        assert eupm_step(b5((-1, -0.5, 0.0, 0.5, 2))) == pytest.approx(0.125, abs=0)

    def test_step_strictly_interior(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            b = random_bracket5(rng)
            g = eupm_step(b)
            assert b.xl1 < g < b.xr1

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            b = random_bracket5(rng)
            s = rng.uniform(0.1, 10.0)
            t = rng.uniform(-50.0, 50.0)
            moved = make_extended5(tuple(s * x + t for x in b.x), b.fv)
            g = eupm_step(moved)
            want = s * eupm_step(b) + t
            assert g == pytest.approx(want, abs=1e-10 * (abs(want) + s * outer_length(b)))


class TestBracketCheck:
    def test_symmetric_zero(self):
        assert bracket_check(b5((-2, -1, 0, 1, 2))) == 0.0

    def test_hand_example(self):
        assert bracket_check(b5((0, 1, 1.5, 3, 4))) == pytest.approx(0.5, abs=0)

    def test_antisymmetric_under_reflection(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            b = random_bracket5(rng)
            assert bracket_check(reflect(b)) == -bracket_check(b)

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
            assert bits(bracket_check(b)) == bits(bracket_check(inner5(b)))
            assert bits(eupm_step(b)) == bits(eupm_step(inner5(b)))


class TestReflectionIdentities:
    def test_step_negates(self):
        rng = np.random.default_rng(13)
        for _ in range(5000):
            b = random_bracket5(rng)
            err = abs(eupm_step(reflect(b)) + eupm_step(b))
            assert err <= 4.0 * EPS * outer_length(b)

    def test_update_mirrors(self):
        # left-family updates are the mirror images of the right-family ones
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 500:
            b = random_bracket5(rng)
            if bracket_check(b) >= 0.0:
                b = reflect(b)
            if bracket_check(b) >= 0.0:
                continue
            rb = reflect(b)
            for rules, df in (((1, 2), -1.0), ((4, 3), 1.0)):
                br, direct = apply_update(eupm_step(b), b.fm + df, b)
                mirrored, mirror = apply_update(eupm_step(rb), rb.fm + df, rb)
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
            delta = default_delta(1e-8, b.xl1, b.xr1)
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
        assert bracket_check(b) < 0.0
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

    def test_infeasible_start_stops_the_walk(self):
        b = b5((0, 1, 1.5, 3, 4))  # check > 0: left-family start impossible
        b2, feasible = apply_sequence(b, (1,))
        assert not feasible and b2 == b

    def test_triple_one_ratio_matches_gap_formula(self):
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 300:
            b = random_bracket5(rng)
            if bracket_check(b) >= 0.0:
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
        p = p[gap_check(p) < 0.0]
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
