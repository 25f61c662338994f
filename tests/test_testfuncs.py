import math
import re

import numpy as np
import pytest

from kinkline import testfuncs
from kinkline.testfuncs import (
    Category,
    CountingOracle,
    OutOfDomainError,
    UnknownFunctionError,
    get_function,
    list_functions,
    oracle_for,
)


class TestRegistry:
    def test_nineteen_functions(self):
        fns = list_functions()
        assert len(fns) == 19
        assert [f.fid for f in fns[:3]] == ["SU1", "SU2", "SU3"]

    def test_category_counts(self):
        fns = list_functions()
        by_cat = {c: sum(1 for f in fns if f.category is c) for c in Category}
        assert by_cat[Category.SMOOTH_UNIMODAL] == 7
        assert by_cat[Category.NONSMOOTH_UNIMODAL] == 5
        assert by_cat[Category.SMOOTH_MULTIMODAL] == 7

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownFunctionError):
            get_function("SU9")

    @pytest.mark.parametrize("domain", [(1.0, 1.0), (2.0, 1.0)])
    def test_degenerate_domain_refused(self, domain):
        with pytest.raises(ValueError, match=r"^degenerate domain \("):
            testfuncs.TestFunction("TMP", Category.SMOOTH_UNIMODAL, domain, abs, "|x|")

    def test_lookup_is_case_insensitive(self):
        assert get_function("nu3").fid == "NU3"

    def test_spot_values(self):
        assert get_function("SU2")(1.0) == pytest.approx(1.0 / 24.0, rel=1e-15)
        assert get_function("NU1")(0.0) == -60000.0
        assert get_function("NU5")(0.0) == pytest.approx(1.0 / 150.0, rel=1e-15)
        assert get_function("SU1")(0.0) == pytest.approx(-math.exp(-0.5), rel=1e-15)
        assert get_function("SM5")(0.0) == 0.0
        assert get_function("SM1")(0.0) == 0.0

    def test_finite_across_domain(self):
        for f in list_functions():
            a, b = f.domain
            for x in np.linspace(a, b, 2001):
                assert math.isfinite(f(float(x)))


def _bisect(g, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


#: Where the two pieces of each non-smooth unimodal function meet.
KINKS = {
    "NU1": 0.0,
    "NU2": _bisect(lambda x: 1.0 / (x + 3.0) - math.log(x), 1.0, 2.0),
    "NU3": 1.0,
    "NU4": _bisect(lambda x: 1.0 / (x + 3.0) - math.exp(x), -1.0, 0.0),
    "NU5": 0.0,
}


def _strict_local_minima(xs, vs):
    out = []
    for i in range(1, len(vs) - 1):
        if vs[i] < vs[i - 1] and vs[i] < vs[i + 1]:
            out.append(i)
    return out


class TestShapes:
    def test_unimodal_functions_have_one_minimum(self):
        for f in list_functions():
            if f.category is Category.SMOOTH_MULTIMODAL:
                continue
            a, b = f.domain
            xs = np.linspace(a, b, 100001)
            vs = [f(float(x)) for x in xs]
            minima = _strict_local_minima(xs, vs)
            star = xs[int(np.argmin(vs))]
            for i in minima:
                assert abs(xs[i] - star) <= 0.01 * (b - a), (f.fid, xs[i], star)

    def test_kinked_functions_are_continuous_at_their_kinks(self):
        for fid, k in KINKS.items():
            f = get_function(fid)
            h = 1e-9
            assert abs(f(k - h) - f(k + h)) <= 1e-8 * max(1.0, abs(f(k)))

    def test_kinks_are_the_minimizers(self):
        # the non-smooth set puts its minimum exactly at the piece boundary;
        # a grid argmin can land a cell off the kink, on a sloped piece, so
        # the root-solved kink is checked against its neighbours and the grid
        for fid in ("NU2", "NU3", "NU4", "NU5"):
            f = get_function(fid)
            k = KINKS[fid]
            a, b = f.domain
            grid_min = min(f(float(x)) for x in np.linspace(a, b, 100001))
            h = 1e-6
            assert f(k - h) > f(k) - 1e-12 and f(k + h) > f(k) - 1e-12, fid
            assert grid_min >= f(k) - 1e-12, fid


class TestCountingOracle:
    def test_every_call_counts(self):
        # no memo: a repeated abscissa is evaluated and counted again
        calls = []
        oracle = CountingOracle(lambda x: (calls.append(x), x * x)[1], domain=(0.0, 5.0))
        assert (oracle(2.0), oracle(2.0), oracle(3.0)) == (4.0, 4.0, 9.0)
        assert oracle.evaluations == 3 and calls == [2.0, 2.0, 3.0]

    def test_domain_enforced(self):
        oracle = oracle_for(get_function("SU5"))
        with pytest.raises(OutOfDomainError):
            oracle(0.05)
        assert math.isfinite(oracle(0.1))  # endpoints are allowed

    def test_domain_is_required(self):
        with pytest.raises(TypeError):
            CountingOracle(lambda x: x)

    def test_endpoint_rounding_slack(self):
        oracle = CountingOracle(lambda x: x, domain=(0.0, 1.0))
        assert oracle(1.0 + 1e-14) == pytest.approx(1.0)

    def test_slack_edges_at_both_ends(self):
        # the slack reaches 1e-12 of the width past each end, inclusive;
        # the next float out is refused without an evaluation
        oracle = CountingOracle(lambda x: x, domain=(0.0, 1.0))
        for edge, outward in ((-1e-12, -math.inf), (1.0 + 1e-12, math.inf)):
            assert oracle(edge) == edge
            out = math.nextafter(edge, outward)
            message = rf"^x={re.escape(repr(out))} outside \[0\.0, 1\.0\]$"
            with pytest.raises(OutOfDomainError, match=message):
                oracle(out)
        assert oracle.evaluations == 2
