import math
import sys

import numpy as np
import pytest

from kinkline.baselines import (
    INVPHI,
    brent_minimize,
    golden_section_minimize,
    mifflin_strodiot_minimize,
)
from kinkline.brackets import Bracket3, ExtendedBracket7, inner3, inner5
from kinkline.harness import convergence_rate, generate_bracket
from kinkline.result import Status
from kinkline.testfuncs import get_function, list_functions, oracle_for

EPS = sys.float_info.epsilon
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def bracket3(f, xl, xm, xr):
    return Bracket3(xl, xm, xr, f(xl), f(xm), f(xr))


class TestGoldenSection:
    def test_interval_ratio_exact_every_iteration(self):
        # Exact up to the rounding that the carried probe keeps.  With r the
        # real (sqrt(5) - 1)/2, D_k = b_k - a_k, u = EPS/2:
        # - a fresh probe fl(b - fl(INVPHI * fl(b - a))) misses its golden
        #   point b - r*D_k by at most F_k = c*EPS*D_k, with
        #   c = |INVPHI - r|/EPS + INVPHI*(1 + u) + |probe|/(2*D_k)
        #     <= 0.2447 + 0.6181 + 0.5 = 1.3628 while 0 stays in [a_k, b_k]
        #   (asserted below), and the same for fl(a + ...);
        # - keeping [a, q] gives D_{k+1} = r*D_k + e_q, so the ratio is off
        #   by e/D_k, e the miss of the probe that became the endpoint;
        # - the probe carried into [a, q] misses its new golden point by
        #   e_p - r*e_q exactly, as r*r = 1 - r (mirror case alike), so the
        #   carried miss grows by at most F_k per step and e <= F_0 + F_0
        #   + ... + F_k; with D_j/D_k = PHI**(k - j) (to 1e-6 here),
        #   e/D_k <= c*EPS*(PHI**k + PHI**(k + 2) - PHI)
        #         <= 1.3628 * (1 + PHI**-2) * EPS * PHI**(k + 2)
        #         = 1.884 * EPS * PHI**(k + 2);
        # - the trace's fl(b - a) values and the quotient add < 3u*INVPHI.
        # A wrong INVPHI or a probe misplaced by 1e-12 of the interval fails
        # within the first iterations.
        f = lambda x: x * x
        res = golden_section_minimize(f, bracket3(f, -1.0, 0.3, 2.0), record_brackets=True)
        assert all(b.xl <= 0.0 <= b.xr for b in res.bracket_trace)
        ds = [row[1] for row in res.trace]
        for k, (d1, d2) in enumerate(zip(ds, ds[1:])):
            assert abs(d2 / d1 - INVPHI) <= (1.9 * PHI ** (k + 2) + 1.0) * EPS, k

    def test_measured_rate_is_the_golden_ratio(self):
        f = lambda x: x * x
        res = golden_section_minimize(f, bracket3(f, -1.0, 0.3, 2.0))
        assert res.status is Status.CONVERGED
        assert convergence_rate(res) == pytest.approx(INVPHI, abs=0.005)

    def test_interval_strictly_decreasing(self):
        f = math.cosh
        res = golden_section_minimize(f, bracket3(f, -2.0, 0.5, 1.0))
        ds = [row[1] for row in res.trace]
        assert all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))

    def test_incumbent_value_never_increases(self):
        func = get_function("SM7")
        rng = np.random.default_rng(29)
        for _ in range(20):
            b = generate_bracket(func, rng)
            res = golden_section_minimize(oracle_for(func), inner3(b))
            fs = [row[2] for row in res.trace]
            assert all(f2 <= f1 for f1, f2 in zip(fs, fs[1:]))

    def test_budget_exhaustion(self):
        f = lambda x: x * x
        res = golden_section_minimize(f, bracket3(f, -1.0, 0.3, 2.0), budget=5)
        assert res.status is Status.BUDGET_EXHAUSTED and res.iterations == 5

    def test_no_room_for_the_first_probes_stalls_at_once(self):
        # two ulps wide, above 2 * eps: the golden probes cannot both lie
        # strictly inside, so the run stalls before any oracle call
        xm = math.nextafter(1.0, 2.0)
        b = Bracket3(1.0, xm, math.nextafter(xm, 2.0), 1.0, 0.0, 1.0)
        res = golden_section_minimize(lambda x: x * x, b, eps=1e-17)
        assert res.status is Status.STALLED
        assert (res.iterations, res.evaluations) == (0, 0)


class TestBrent:
    def test_exact_quadratic_hits_minimum_fast(self):
        f = lambda x: (x - 0.3) ** 2
        res = brent_minimize(f, bracket3(f, -1.0, 0.1, 2.0), record_brackets=True)
        assert res.status is Status.CONVERGED
        assert res.evaluations <= 10
        # the first parabolic interpolation lands on the minimum to rounding
        hits = [abs(b.xm - 0.3) for b in res.bracket_trace[:5]]
        assert min(hits) <= 1e-10

    def test_probes_stay_inside_and_interval_shrinks(self):
        func = get_function("SM6")
        rng = np.random.default_rng(30)
        for _ in range(20):
            b = generate_bracket(func, rng)
            t = inner3(b)
            seen = []
            oracle = oracle_for(func)
            probe = lambda x: (seen.append(x), oracle(x))[1]
            res = brent_minimize(probe, t)
            assert all(t.xl <= x <= t.xr for x in seen)
            ds = [row[1] for row in res.trace]
            assert all(d2 <= d1 for d1, d2 in zip(ds, ds[1:]))

    def test_beats_golden_on_smooth_gaussian(self):
        func = get_function("SU1")
        rng = np.random.default_rng(31)
        br, gr = [], []
        for _ in range(20):
            b = generate_bracket(func, rng)
            br.append(brent_minimize(oracle_for(func), inner3(b)).evaluations)
            gr.append(golden_section_minimize(oracle_for(func), inner3(b)).evaluations)
        assert sum(br) * 2 <= sum(gr)

    def test_kinked_minimum_converges_but_slowly(self):
        func = get_function("NU1")
        rng = np.random.default_rng(32)
        rates = []
        for _ in range(20):
            b = generate_bracket(func, rng)
            res = brent_minimize(oracle_for(func), inner3(b))
            assert res.status is Status.CONVERGED
            rates.append(convergence_rate(res))
        assert sum(rates) / len(rates) >= 0.3  # nowhere near its smooth-case speed


def test_brent_brackets_validate_and_golden_triples_ascend():
    # Brent's brackets come from the validating constructor, so each one
    # re-validates; golden section's skip validation and are positional
    # only, but their points stay strictly ascending
    centre_broken = 0
    for i, func in enumerate(list_functions()):
        rng = np.random.default_rng([0, i])
        for _ in range(40):
            t = inner3(generate_bracket(func, rng))
            res = brent_minimize(oracle_for(func), t, record_brackets=True)
            for b in res.bracket_trace + [res.bracket]:
                assert Bracket3(*b.x, *b.fv) == b
            res = golden_section_minimize(oracle_for(func), t, record_brackets=True)
            for b in res.bracket_trace + [res.bracket]:
                assert b.x[0] < b.x[1] < b.x[2]
                centre_broken += not b.fv[0] >= b.fv[1] <= b.fv[2]
    assert centre_broken > 0  # why golden section's brackets are not validated


class TestMifflinStrodiot:
    def test_convex_kink_converges(self):
        func = get_function("NU5")
        rng = np.random.default_rng(33)
        for _ in range(20):
            b = generate_bracket(func, rng)
            res = mifflin_strodiot_minimize(oracle_for(func), inner5(b))
            assert res.status is Status.CONVERGED

    def test_smooth_convex_converges(self):
        f = lambda x: (x - 0.4) ** 2
        pts = (-3.0, -2.0, -1.0, 0.5, 1.0, 2.0, 3.0)
        b = ExtendedBracket7(pts, tuple(f(p) for p in pts))
        res = mifflin_strodiot_minimize(f, inner5(b))
        assert res.status is Status.CONVERGED

    def test_multimodal_exhausts_budget(self):
        func = get_function("SM5")
        rng = np.random.default_rng(34)
        exhausted = 0
        for _ in range(10):
            b = generate_bracket(func, rng)
            res = mifflin_strodiot_minimize(oracle_for(func), inner5(b))
            exhausted += res.status is Status.BUDGET_EXHAUSTED
        assert exhausted == 10

    def test_incumbent_value_never_increases(self):
        func = get_function("NU3")
        rng = np.random.default_rng(35)
        for _ in range(10):
            b = generate_bracket(func, rng)
            res = mifflin_strodiot_minimize(oracle_for(func), inner5(b))
            fs = [row[2] for row in res.trace]
            assert all(f2 <= f1 for f1, f2 in zip(fs, fs[1:]))
