import io
import itertools
import math
import os
import pickle
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import random_bracket7
from kinkline.baselines import INVPHI
from kinkline.brackets import (
    MIN_GAP_FACTOR,
    Bracket3,
    BracketError,
    ExtendedBracket5,
    ExtendedBracket7,
    inner3,
    inner5,
    inner_length,
    min_gap,
    trusted_build,
)
from kinkline.dupm import alpha_floor, alpha_plus, chi, intersection_condition
from kinkline.eupm import gap_apply_binary
from kinkline.harness import (
    PAPER_ALGORITHMS,
    SUITES,
    BracketPointsError,
    ResampleLimitExceededError,
    TrialConfig,
    canonical_algorithm,
    convergence_rate,
    generate_bracket,
    minimize_once,
    parse_algorithm,
    run_algorithm,
    run_benchmark,
    run_sequence_experiment,
    sample_simplex,
    write_benchmark_csv,
    write_sequence_csv,
    write_trace_csv,
)
from kinkline.result import SolverResult, Status
from kinkline.supm import AdjustmentOverflowError, Flanks, NonFiniteValueError
from kinkline import harness, testfuncs
from kinkline.testfuncs import Category, get_function
from kinkline.verify import random_bracket5


class TestGenerateBracket:
    def test_valid_and_deterministic(self):
        func = get_function("SU1")
        a = generate_bracket(func, np.random.default_rng(42))
        b = generate_bracket(func, np.random.default_rng(42))
        assert a.x == b.x and a.fv == b.fv
        assert a.fv[2] >= a.fv[3] <= a.fv[4]

    def test_clusters_respected(self):
        func = get_function("NU5")  # domain [-5, 5]
        rng = np.random.default_rng(1)
        for _ in range(50):
            b = generate_bracket(func, rng)
            assert all(-5.0 <= x <= 5.0 for x in b.x)

    def test_incumbent_minimizes_the_sample(self):
        func = get_function("SM7")
        rng = np.random.default_rng(2)
        for _ in range(50):
            b = generate_bracket(func, rng)
            assert b.fv[3] == min(b.fv)

    def test_monotone_function_exhausts_resampling(self):
        ramp = _function(lambda x: x)
        with pytest.raises(ResampleLimitExceededError, match="in 1000 attempts") as info:
            generate_bracket(ramp, np.random.default_rng(3))
        # the incumbent is always the leftmost sample
        assert (info.value.short_side, info.value.invalid) == (1000, 0)
        back = pickle.loads(pickle.dumps(info.value))
        assert (str(back), back.short_side, back.invalid) == (str(info.value), 1000, 0)

    def test_nan_values_exhaust_resampling_by_either_cause(self):
        # the first NaN is the incumbent, so an attempt fails for a short
        # side unless that sample has three points on each side
        with pytest.raises(ResampleLimitExceededError, match="in 1000 attempts") as info:
            generate_bracket(_function(lambda x: math.nan), np.random.default_rng(3))
        err = info.value
        assert err.short_side + err.invalid == 1000
        assert 0 < err.invalid < err.short_side
        assert f"({err.short_side} with fewer than three points on a side, " in str(err)


def _function(evaluator):
    return testfuncs.TestFunction("TMP", Category.SMOOTH_UNIMODAL, (0.0, 1.0), evaluator, "x")


def _ref_generate_bracket(f, rng):
    """generate_bracket in its NumPy form: the eight draws concatenated,
    the incumbent by ``np.argmin``, the flanks from sorted (point, value)
    pairs."""
    a, b = f.domain
    span = b - a
    for _ in range(1000):
        pts = np.concatenate(
            [
                rng.uniform(a, a + span / 5.0, 4),
                rng.uniform(b - span / 2.0, b, 4),
            ]
        )
        vals = [f.evaluator(float(x)) for x in pts]
        k = int(np.argmin(vals))
        xm, fm = float(pts[k]), vals[k]
        rest = sorted(
            ((float(x), v) for j, (x, v) in enumerate(zip(pts, vals)) if j != k),
            key=lambda p: p[0],
        )
        lefts = [p for p in rest if p[0] < xm]
        rights = [p for p in rest if p[0] > xm]
        if len(lefts) < 3 or len(rights) < 3:
            continue
        chosen = lefts[-3:] + [(xm, fm)] + rights[:3]
        try:
            return ExtendedBracket7([p[0] for p in chosen], [p[1] for p in chosen])
        except BracketError:
            continue
    raise ResampleLimitExceededError(f"no valid bracket for {f.fid} in 1000 attempts")


def _outcome(generate, func, rng):
    """The exact text of the bracket's points and values, or the exception."""
    try:
        b = generate(func, rng)
    except ResampleLimitExceededError as exc:
        return None, None, exc
    return repr(b.x), repr(b.fv), None


class _ScriptedRng:
    """A generator stand-in: its ``uniform`` calls return the given draws
    of four points in turn, cycling, and are counted."""

    def __init__(self, draws):
        self._draws = itertools.cycle(draws)
        self.calls = 0

    def uniform(self, low, high, size):
        assert size == 4
        self.calls += 1
        return np.array(next(self._draws), dtype=float)


_LOW, _HIGH = (0.01, 0.05, 0.1, 0.15), (0.3, 0.35, 0.6, 0.7)
_LOW2, _HIGH2 = (0.02, 0.06, 0.11, 0.16), (0.31, 0.36, 0.61, 0.71)
_V, _V2 = (5.0, 4.0, 3.0, 0.0, 1.0, 2.0, 3.0, 4.0), (5.0, 4.0, 3.0, 1.0, 2.0, 2.5, 3.0, 4.0)

#: Scripted draws, values by abscissa, and the incumbent's (x, value) text,
#: or None where every attempt fails.
_SCRIPTED_CASES = {
    # 0.15 and 0.3 share the smallest value (0.0 == -0.0): the first wins
    "value tie": (
        [_LOW, _HIGH],
        dict(zip(_LOW + _HIGH, (5.0, 4.0, 3.0, 0.0, -0.0, 2.0, 3.0, 4.0))),
        ("0.15", "0.0"),
    ),
    # the NaN at 0.6 is the incumbent, with one point on its right, so the
    # second attempt gives the bracket; passing over it, the first attempt
    # would give a bracket around 0.15
    "nan after the minimum": (
        [_LOW, _HIGH, _LOW2, _HIGH2],
        dict(zip(_LOW + _HIGH, _V[:6] + (math.nan, 4.0))) | dict(zip(_LOW2 + _HIGH2, _V2)),
        ("0.16", "1.0"),
    ),
    # the second sample at 0.2 lies on neither side of the incumbent
    "abscissa at the incumbent's": (
        [(0.01, 0.05, 0.1, 0.2), (0.2, 0.3, 0.4, 0.5)],
        {0.01: 3.0, 0.05: 2.0, 0.1: 1.0, 0.2: 0.0, 0.3: 1.0, 0.4: 2.0, 0.5: 3.0},
        ("0.2", "0.0"),
    ),
    # the first incumbent, 0.05, has one point on its left
    "short side, then a bracket": (
        [_LOW, _HIGH, _LOW2, _HIGH2],
        dict(zip(_LOW + _HIGH, (5.0, 0.0, 3.0, 1.0) + _V[4:])) | dict(zip(_LOW2 + _HIGH2, _V2)),
        ("0.16", "1.0"),
    ),
    "every attempt short": (
        [_LOW, _HIGH],
        dict(zip(_LOW + _HIGH, (5.0, 0.0, 3.0, 1.0) + _V[4:])),
        None,
    ),
}


class TestGenerateBracketMatchesReference:
    """The bracket, the exception and the generator's state after the call
    are those of the NumPy form."""

    def test_every_function(self):
        for k, func in enumerate(testfuncs.list_functions()):
            for t in range(200):
                ref_rng, rng = (np.random.default_rng([81, k, t]) for _ in range(2))
                ref = _outcome(_ref_generate_bracket, func, ref_rng)
                assert ref[2] is None
                assert _outcome(generate_bracket, func, rng) == ref
                assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("case", sorted(_SCRIPTED_CASES))
    def test_scripted_draws(self, case):
        draws, table, incumbent = _SCRIPTED_CASES[case]
        func = _function(table.__getitem__)
        ref_rng, rng = _ScriptedRng(draws), _ScriptedRng(draws)
        ref_x, ref_fv, ref_exc = _outcome(_ref_generate_bracket, func, ref_rng)
        x, fv, exc = _outcome(generate_bracket, func, rng)
        assert rng.calls == ref_rng.calls
        if incumbent is None:
            assert rng.calls == 2000
            assert str(exc).startswith(str(ref_exc) + " (")
            assert (exc.short_side, exc.invalid) == (1000, 0)
        else:
            assert (x, fv, exc) == (ref_x, ref_fv, None)
            assert (x[1:-1].split(", ")[3], fv[1:-1].split(", ")[3]) == incumbent


def test_random_brackets_hold_builtin_floats():
    rng = np.random.default_rng(43)
    for _ in range(200):
        b5, b7 = random_bracket5(rng), random_bracket7(rng)
        for v in b5.x + b5.fv + b7.x + b7.fv:
            assert type(v) is float
        fl = Flanks(b7.x, b7.fv)
        floor = alpha_floor(fl)
        for v in (floor, alpha_plus(fl), *chi(fl, max(0.0, floor))):
            assert type(v) is float


def fake_result(d_values, status=Status.CONVERGED):
    trace = [(i, d, 0.0) for i, d in enumerate(d_values)]
    b = ExtendedBracket7(
        (-3, -2, -1, 0, 1, 2, 3), (9, 4, 1, 0, 1, 4, 9)
    )
    return SolverResult(b, len(d_values) - 1, len(d_values) - 1, trace, status)


class TestConvergenceRate:
    def test_halving_means_one_half(self):
        res = fake_result([2.0 ** -i for i in range(11)])
        assert convergence_rate(res) == pytest.approx(0.5, rel=1e-12)

    def test_immediate_convergence_is_zero(self):
        assert convergence_rate(fake_result([1.0])) == 0.0

    def test_budget_exhaustion_is_infinite(self):
        res = fake_result([1.0, 0.9], status=Status.BUDGET_EXHAUSTED)
        assert math.isinf(convergence_rate(res))

    def test_stall_is_infinite(self):
        res = fake_result([1.0, 0.9], status=Status.STALLED)
        assert math.isinf(convergence_rate(res))


class TestAlgorithmSpecs:
    def test_supm_parses_alpha(self):
        assert parse_algorithm("supm:0.1") == ("supm", 0.1)
        assert parse_algorithm("supm:10") == ("supm", 10.0)
        assert parse_algorithm("SUPM") == ("supm", 0.0)

    def test_known_kinds(self):
        for spec in ("eupm", "dupm", "brent", "golden", "mifflin"):
            assert parse_algorithm(spec) == (spec, 0.0)

    def test_unknown_rejected(self):
        # supm takes its constant only after one colon
        for spec in ("newton", "supm1", "eupm:1"):
            with pytest.raises(ValueError, match=f"^unknown algorithm spec {spec!r}$"):
                parse_algorithm(spec)

    @pytest.mark.parametrize(
        "spec, canonical",
        [("SUPM:1.0", "supm:1"), ("supm:1e22", "supm:1e+22"), (" Brent ", "brent")],
    )
    def test_canonical_spelling(self, spec, canonical):
        assert canonical_algorithm(spec) == canonical

    def test_table_specs_are_canonical(self):
        specs = PAPER_ALGORITHMS + ("golden",)
        assert tuple(map(canonical_algorithm, specs)) == specs

    def test_non_numeric_supm_constant_is_named(self):
        for rest in ("x", ":2", ""):
            message = f"^expected a finite alpha >= 0 after 'supm:', got {rest!r}$"
            with pytest.raises(ValueError, match=message):
                parse_algorithm("supm:" + rest)


_OWN_SIZE = {"supm": 7, "dupm": 7, "eupm": 5, "mifflin": 5, "brent": 3, "golden": 3}


@pytest.mark.parametrize(
    "kind, size", [(k, n) for k, own in _OWN_SIZE.items() for n in (7, 5, 3) if n != own]
)
def test_a_solver_refuses_a_bracket_of_another_size(kind, size):
    solve, view, _ = harness.SOLVERS[kind]
    f = get_function("NU3")
    b7 = generate_bracket(f, np.random.default_rng([0, 3, 9]))
    given = {7: b7, 5: inner5(b7), 3: inner3(b7)}[size]
    expected = {7: ExtendedBracket7, 5: ExtendedBracket5, 3: Bracket3}[_OWN_SIZE[kind]]
    assert type(view(b7)) is expected
    oracle = testfuncs.oracle_for(f)
    with pytest.raises(TypeError, match=f"^expected {expected.__name__}, got "):
        solve(oracle, given)
    assert oracle.evaluations == 0


class TestBenchmark:
    def test_shape_and_determinism(self):
        cfg = TrialConfig(functions=("NU3", "NU5"), trials=3, seed=5)
        r1 = run_benchmark(cfg)
        r2 = run_benchmark(cfg)
        assert set(r1.cells) == {(f, s) for f in cfg.functions for s in PAPER_ALGORITHMS}
        for key, cell in r1.cells.items():
            assert cell.trials == 3
            other = r2.cells[key]
            assert (cell.mean_rate == other.mean_rate) or (
                math.isinf(cell.mean_rate) and math.isinf(other.mean_rate)
            )

    def test_csv_shape_and_reproducibility(self):
        cfg = TrialConfig(functions=("NU3",), trials=2, seed=1)
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_benchmark_csv(run_benchmark(cfg), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "Functions,0,0.1,1,10,EUPM,DUPM,Brent,Mifflin"
        assert len(lines) == 3
        assert lines[2].split(",")[0] == "NU3"

    def test_skip_leaves_other_columns_unchanged(self):
        base = TrialConfig(functions=("NU5",), trials=2, seed=9)
        skipped = TrialConfig(
            functions=("NU5",),
            algorithms=tuple(s for s in PAPER_ALGORITHMS if s != "mifflin"),
            trials=2,
            seed=9,
        )
        r1, r2 = run_benchmark(base), run_benchmark(skipped)
        for spec in skipped.algorithms:
            a, b = r1.cell("NU5", spec), r2.cell("NU5", spec)
            assert a.mean_rate == b.mean_rate or (
                math.isinf(a.mean_rate) and math.isinf(b.mean_rate)
            )
        buf = io.StringIO()
        write_benchmark_csv(r2, buf)
        assert buf.getvalue().splitlines()[1] == "Functions,0,0.1,1,10,EUPM,DUPM,Brent"

    def test_latex_labels(self):
        cfg = TrialConfig(functions=("SU2",), algorithms=("golden",), trials=1, seed=0)
        buf = io.StringIO()
        write_benchmark_csv(run_benchmark(cfg), buf, latex_labels=True)
        assert buf.getvalue().splitlines()[2].startswith("$f^{SU}_2$,")

    def test_parallel_jobs_match_serial(self):
        # 40 (function, trial) units: on 2 workers they go in chunks of 3,
        # so one chunk holds trials of both functions, and every cell joins
        # the rates of several chunks; a sum taken out of trial order would
        # change the last bits of a mean
        cfg = TrialConfig(
            functions=("NU3", "NU5"),
            algorithms=("eupm", "golden", "supm:0", "dupm"),
            trials=20,
            seed=3,
        )
        serial = run_benchmark(cfg, jobs=1)
        assert [c.trials for c in serial.cells.values()] == [20] * 8
        for jobs in (2, 3):
            assert run_benchmark(cfg, jobs=jobs).cells == serial.cells

    def test_jobs_start_no_more_workers_than_units_or_cpus(self, monkeypatch):
        # a process pool forks all its workers at the first submit, so
        # --jobs 5000 must not ask for 5,000 of them; a stand-in executor
        # records what is asked for and maps serially
        import concurrent.futures

        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                assert chunksize >= 1
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = TrialConfig(functions=("NU3", "NU5"), algorithms=("golden",), trials=3)
        serial = run_benchmark(cfg).cells
        for cpus, jobs, want in [
            (64, 5000, [6]),  # 2 functions x 3 trials
            (4, 5000, [4]),
            (64, 3, [3]),
            (1, 5000, []),  # one usable CPU: no pool at all
            (64, 1, []),
        ]:
            usable = lambda pid, n=cpus: set(range(n))
            monkeypatch.setattr(os, "sched_getaffinity", usable, raising=False)
            asked.clear()
            assert run_benchmark(cfg, jobs=jobs).cells == serial
            assert asked == want, (cpus, jobs)
        one = TrialConfig(functions=("NU3",), algorithms=("golden",), trials=1)
        asked.clear()
        assert run_benchmark(one, jobs=5000).cells == run_benchmark(one).cells
        assert asked == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_run_benchmark_refuses_fewer_than_one_job(self, jobs):
        cfg = TrialConfig(functions=("NU3",), algorithms=("golden",), trials=1)
        with pytest.raises(ValueError, match="^jobs must be >= 1$"):
            run_benchmark(cfg, jobs=jobs)

    def test_serial_runs_import_no_process_pool(self):
        # the pool's module takes about 20 ms to import, which only a
        # parallel bench should pay
        code = (
            "import sys, kinkline\n"
            "kinkline.run_sequence_experiment(bits=2, samples=5)\n"
            "kinkline.run_benchmark(kinkline.TrialConfig(functions=('NU3',), trials=2))\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        path = [str(Path(harness.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (run.returncode, run.stderr, run.stdout) == (0, "", "False\n")

    def test_lower_case_ids_write_the_same_csv(self):
        outs = []
        for fid in ("nu3", "NU3"):
            cfg = TrialConfig(functions=(fid,), algorithms=("eupm", "brent"), trials=2)
            assert cfg.functions == ("NU3",)
            buf = io.StringIO()
            write_benchmark_csv(run_benchmark(cfg), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    # one alpha, one column label, however the spec spells it
    @pytest.mark.parametrize(
        "spec, label",
        [
            ("supm:1_0", "10"),
            ("supm:1e1", "10"),
            ("supm: 1", "1"),
            ("supm:+1", "1"),
            ("SUPM:0.10", "0.1"),
            ("supm", "0"),
            ("supm:-0", "0"),
        ],
    )
    def test_header_spells_a_supm_constant_once(self, spec, label):
        cfg = TrialConfig(functions=("SU1",), algorithms=(spec, "eupm"), trials=1)
        assert cfg.algorithms == (f"supm:{label}", "eupm")
        report = run_benchmark(cfg)
        assert report.cell("su1", spec) is report.cells[("SU1", f"supm:{label}")]
        buf = io.StringIO()
        write_benchmark_csv(report, buf)
        assert buf.getvalue().splitlines()[1] == f"Functions,{label},EUPM"

    def test_suites_follow_the_registry(self):
        fids = [f.fid for f in testfuncs.list_functions()]
        assert SUITES["all"] == tuple(fids)
        assert SUITES["su"] + SUITES["nu"] + SUITES["sm"] == SUITES["all"]
        assert sorted(SUITES) == ["all", "nu", "sm", "su"]
        for name in ("su", "nu", "sm"):
            assert len({get_function(f).category for f in SUITES[name]}) == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"functions": ("nu1", "NU1")}, "^function 'NU1' listed twice$"),
            (
                {"functions": ("NU1",), "algorithms": ("eupm", "supm:1", "eupm")},
                "^algorithm 'eupm' listed twice$",
            ),
            ({"functions": ("NU1",), "trials": 0}, "^trials must be >= 1$"),
            ({"functions": ()}, "^functions must name at least one function$"),
            (
                {"functions": ("SU1",), "algorithms": ("supm:1", "SUPM:1.0")},
                "^algorithm 'supm:1' listed twice$",
            ),
            (
                {"functions": ("SU1",), "algorithms": ("supm", "supm:0")},
                "^algorithm 'supm:0' listed twice$",
            ),
            (
                {"functions": ("SU1",), "algorithms": ("supm:1", "SUPM:1", "supm1")},
                "^unknown algorithm spec 'supm1'$",
            ),
            (
                {"functions": ("SU1",), "algorithms": ()},
                "^algorithms must name at least one algorithm$",
            ),
            (
                {"functions": ("SU1",), "algorithms": ("supm:-0", "supm:0")},
                "^algorithm 'supm:0' listed twice$",
            ),
            ({"functions": ("SU1",), "trials": 2, "seed": -1}, "^seed must be >= 0$"),
        ],
    )
    def test_config_refuses(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TrialConfig(**fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"trials": 2.5}, r"^trials must be an integer, got 2\.5$"),
            ({"trials": "3"}, "^trials must be an integer, got '3'$"),
            ({"seed": 1.0}, r"^seed must be an integer, got 1\.0$"),
            ({"algorithms": "dupm"}, "^algorithms must be a sequence of names, got 'dupm'$"),
            ({"trials": True}, "^trials must be an integer, got True$"),
            ({"seed": False}, "^seed must be an integer, got False$"),
            ({"budget": 500.5}, r"^budget must be an integer, got 500\.5$"),
            ({"budget": math.nan}, "^budget must be an integer, got nan$"),
            ({"budget": True}, "^budget must be an integer, got True$"),
            ({"budget": 500.0}, r"^budget must be an integer, got 500\.0$"),
        ],
    )
    def test_config_refuses_a_count_that_is_not_an_integer(self, fields, message):
        with pytest.raises(TypeError, match=message):
            TrialConfig(functions=("SU1",), **fields)

    def test_config_refuses_a_single_function_name(self):
        # a string is a sequence of one-letter names, none of them a function
        with pytest.raises(TypeError, match="^functions must be a sequence of names, got 'NU3'$"):
            TrialConfig(functions="NU3")

    def test_run_benchmark_refuses_a_job_count_that_is_not_an_integer(self):
        cfg = TrialConfig(functions=("NU3",), algorithms=("golden",), trials=1)
        with pytest.raises(TypeError, match=r"^jobs must be an integer, got 2\.5$"):
            run_benchmark(cfg, jobs=2.5)


def _ref_run_sequence_experiment(bits=10, samples=1000, seed=0):
    """The sequence experiment one pattern at a time: the reference for
    the blocked form, which must give the same rows in the same order."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows = []
    for idx, pattern in enumerate(itertools.product((1, 0), repeat=bits)):
        rng = np.random.default_rng([seed, harness._SEQEXP_STREAM, idx])
        p1, p2, p3, p4 = sample_simplex(rng, samples).T
        d0 = p2 + p3
        for bit in pattern:
            p1, p2, p3, p4 = gap_apply_binary(p1, p2, p3, p4, bit == 1)
        rates = ((p2 + p3) / d0) ** (1.0 / bits)
        rows.append(("".join(map(str, pattern)), bits, float(rates.mean()), INVPHI))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows


class TestSequenceExperiment:
    def test_rates_below_one_and_sorted(self):
        rows = run_sequence_experiment(bits=4, samples=50, seed=0)
        assert len(rows) == 16
        rates = [r[2] for r in rows]
        assert rates == sorted(rates, reverse=True)
        assert all(0.0 < r < 1.0 for r in rates)
        assert all(r[3] == INVPHI for r in rows)

    # at 1 and 7 samples all 2**bits patterns fit in one block, 1,000
    # samples make blocks of four patterns and 4,000 blocks of one
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("samples", [1, 7, 1000, 4000])
    @pytest.mark.parametrize("bits", [1, 2, 3, 6])
    def test_blocks_give_the_rows_of_one_pattern_at_a_time(self, bits, samples, seed):
        got = run_sequence_experiment(bits=bits, samples=samples, seed=seed)
        want = _ref_run_sequence_experiment(bits=bits, samples=samples, seed=seed)
        # float.hex tells 0.0 from -0.0
        assert [(s, b, r.hex(), g) for s, b, r, g in got] == [
            (s, b, r.hex(), g) for s, b, r, g in want
        ]

    def test_deterministic(self):
        a = run_sequence_experiment(bits=4, samples=30, seed=7)
        b = run_sequence_experiment(bits=4, samples=30, seed=7)
        assert a == b

    def test_five_bit_worst_rate_bounded_by_halving(self):
        rows = run_sequence_experiment(bits=5, samples=200, seed=1)
        assert max(r[2] for r in rows) <= 0.5 ** (1.0 / 5.0) + 1e-12

    def test_csv_format(self):
        rows = run_sequence_experiment(bits=3, samples=10, seed=2)
        buf = io.StringIO()
        write_sequence_csv(rows, buf, seed=2, samples=10)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#") and lines[1] == "sequence,bits,eupm_rate,golden_rate"
        assert len(lines) == 2 + 8

    @pytest.mark.parametrize(
        "bits, samples, message",
        [
            (0, 10, "^bits must be >= 1$"),
            (3, 0, "^samples must be >= 1$"),
            (21, 10, "^bits must be <= 20$"),
            (1, 1_000_001, "^samples must be <= 1000000$"),
        ],
    )
    def test_sizes_below_one_refused(self, bits, samples, message):
        with pytest.raises(ValueError, match=message):
            run_sequence_experiment(bits=bits, samples=samples)

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"samples": 5.5}, TypeError, r"^samples must be an integer, got 5\.5$"),
            ({"bits": 2.5}, TypeError, r"^bits must be an integer, got 2\.5$"),
            ({"seed": -1}, ValueError, "^seed must be >= 0$"),
            ({"seed": 0.5}, TypeError, r"^seed must be an integer, got 0\.5$"),
        ],
    )
    def test_bad_counts_and_seeds_are_named(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            run_sequence_experiment(**{"bits": 2, "samples": 10} | kwargs)

    def test_simplex_sampler_adds_each_row_left_to_right(self):
        ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        rows = ref_rng.standard_exponential((300, 4)).tolist()
        ref = np.array([[v / (((a + b) + c) + d) for v in (a, b, c, d)] for a, b, c, d in rows])
        p = sample_simplex(rng, 300)
        assert p.shape == (300, 4) and p.T.flags.c_contiguous
        assert p.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()

    def test_simplex_sampler_is_uniform_on_the_simplex(self):
        p = sample_simplex(np.random.default_rng(4), 100000)
        assert np.all(p > 0.0)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(np.abs(p.mean(axis=0) - 0.25) <= 0.01)


class TestMinimizeOnce:
    def test_deterministic_trace(self):
        a, _ = minimize_once("SU1", "brent", seed=7)
        b, _ = minimize_once("SU1", "brent", seed=7)
        assert a.trace == b.trace

    def test_injected_stall_bracket_exhausts(self):
        pts = (-1.811263, -2.171330, -2.23927, 1.820150, 2.102197, 2.293404, 2.334091)
        res, bracket = minimize_once("NU3", "supm:0", bracket_points=pts)
        assert res.status is Status.BUDGET_EXHAUSTED
        assert bracket.x == tuple(sorted(pts))

    def test_dupm_on_nu2_converges(self):
        res, _ = minimize_once("NU2", "dupm", seed=3)
        assert res.status is Status.CONVERGED

    def test_results_hold_builtin_floats(self):
        # no NumPy scalar leaks from the generator or the solvers into a
        # result, and the intersection condition gives a plain float or None
        for func in testfuncs.list_functions():
            for spec in PAPER_ALGORITHMS + ("golden",):
                res, b0 = minimize_once(func.fid, spec, seed=0)
                b = res.bracket
                values = [*b.x, *b.fv]
                values += [v for row in res.trace for v in row[1:]] + (res.alphas or [])
                assert all(type(v) is float for v in values), (func.fid, spec)
                assert all(type(row[0]) is int for row in res.trace)
            assert type(intersection_condition(Flanks(b0.x, b0.fv), 0.0)) in (float, type(None))
        rng = np.random.default_rng(36)
        for _ in range(50):
            b = random_bracket7(rng)
            g = intersection_condition(Flanks(b.x, b.fv), 0.0)
            assert type(g) in (float, type(None))

    @pytest.mark.parametrize(
        "seed, error, message",
        [(-1, ValueError, "^seed must be >= 0$"), (1.5, TypeError, r"^seed must be an integer, got 1\.5$")],
    )
    def test_bad_seed_is_named(self, seed, error, message):
        with pytest.raises(error, match=message):
            minimize_once("SU1", "brent", seed=seed)

    @pytest.mark.parametrize(
        "points, message",
        [
            (["a", 1, 2, 3, 4, 5, 6], "^bracket point 'a' is not a real number$"),
            ([None] * 7, "^bracket point None is not a real number$"),
            ([1, 2, 3, 1j, 5, 6, 7], r"^bracket point 1j is not a real number$"),
            ("1234567", "^need a sequence of numbers, got '1234567'$"),
            (b"1234567", "^need a sequence of numbers, got b'1234567'$"),
            (5, "^need a sequence of numbers, got 5$"),
            (
                ["-1", "-0.5", "-0.2", "0", "0.2", "0.5", "1"],
                "^bracket point '-1' is not a real number$",
            ),
            (bytearray(b"1234567"), r"^need a sequence of numbers, got bytearray\(b'1234567'\)$"),
            (
                memoryview(bytes(range(7))),
                "^need a sequence of numbers, got <memory at 0x[0-9a-f]+>$",
            ),
            # named by position: in Python 3.11 repr(10**5000) itself raises
            ([1, 2, 10**5000, 3, 4, 5, 6], "^bracket point at index 2 is too large for a float$"),
            ([10**400, 1, 2, 3, 4, 5, 6], "^bracket point at index 0 is too large for a float$"),
            (
                [0, Fraction(10**400), 1, 2, 3, 4, 5],
                "^bracket point at index 1 is too large for a float$",
            ),
        ],
    )
    def test_points_that_are_not_real_numbers_are_bracket_errors(self, points, message):
        with pytest.raises(BracketPointsError, match=message):
            minimize_once("NU3", "supm:0", bracket_points=points)

    def test_a_memoryview_of_doubles_is_a_sequence_of_points(self):
        pts = (-1.811263, -2.171330, -2.23927, 1.820150, 2.102197, 2.293404, 2.334091)
        res, bracket = minimize_once("NU3", "supm:0", bracket_points=memoryview(array("d", pts)))
        want, _ = minimize_once("NU3", "supm:0", bracket_points=pts)
        assert bracket.x == tuple(sorted(pts)) and res.trace == want.trace

    @pytest.mark.parametrize(
        "budget, error, message",
        [
            (0, ValueError, "^budget must be >= 1$"),
            (500.0, TypeError, r"^budget must be an integer, got 500\.0$"),
            (math.nan, TypeError, "^budget must be an integer, got nan$"),
        ],
    )
    def test_a_bad_budget_is_refused_before_any_draw(self, monkeypatch, budget, error, message):
        def no_draw(*args):
            pytest.fail("generate_bracket was called")

        monkeypatch.setattr(harness, "generate_bracket", no_draw)
        with pytest.raises(error, match=message):
            minimize_once("SU1", "brent", budget=budget)

    def test_trace_csv_needs_recorded_brackets(self):
        with pytest.raises(ValueError, match="record_brackets=True"):
            write_trace_csv(fake_result([1.0, 0.5]), io.StringIO())

    def test_trace_csv_columns(self):
        res, _ = minimize_once("NU2", "eupm", seed=1)
        buf = io.StringIO()
        write_trace_csv(res, buf, header="test")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "iteration,xl1,xm,xr1,d,fm"
        assert len(lines) == 2 + len(res.trace)
        first = lines[2].split(",")
        assert first[0] == "0" and float(first[4]) == res.trace[0][1]


def _ref_write_trace_csv(result, out, header=""):
    """The trace writer before carried text: every value formatted afresh,
    one f-string and one write per row."""
    if header:
        out.write(f"# {header}\n")
    out.write("iteration,xl1,xm,xr1,d,fm\n")
    for (i, d, fm), br in zip(result.trace, result.bracket_trace):
        out.write(f"{i},{br.xl1!r},{br.xm!r},{br.xr1!r},{d!r},{fm!r}\n")


def _trace_text(writer, result, header=""):
    buf = io.StringIO()
    writer(result, buf, header=header)
    return buf.getvalue()


def _recorded(rows, build=ExtendedBracket7):
    """A recorded result from ``(points, incumbent value)`` rows, each
    bracket made by ``build(points, values)``."""
    brackets = [build(x, (3, 2, 1, fm, 1, 2, 3)) for x, fm in rows]
    trace = [(i, b.xr1 - b.xl1, b.fm) for i, b in enumerate(brackets)]
    n = len(rows) - 1
    return SolverResult(brackets[-1], n, n, trace, Status.CONVERGED, bracket_trace=brackets)


class TestTraceCsv:
    """The writer reuses a carried value's text; the bytes are the
    reference writer's."""

    @pytest.mark.parametrize("spec", [*PAPER_ALGORITHMS, "golden"])
    def test_bytes_match_the_reference_writer(self, spec):
        for fid in ("NU2", "NU5", "SU1", "SM4"):
            func = get_function(fid)
            for t in range(3):
                b = generate_bracket(func, np.random.default_rng([72, t]))
                oracle = testfuncs.oracle_for(func)
                res = run_algorithm(spec, oracle, b, 1e-8, 500, record_brackets=True)
                for header in ("", f"{fid} {spec}"):
                    got = _trace_text(write_trace_csv, res, header)
                    assert got == _trace_text(_ref_write_trace_csv, res, header)

    def test_signed_zeros_keep_their_own_text(self):
        # 0.0 leaves the bracket and -0.0 arrives two rows later; then 0.0
        # takes the left point as -0.0 leaves the centre.  Each equals the
        # other, but their reprs differ
        res = _recorded(
            [
                ((-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0), 0.0),
                ((0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5), 1.0),
                ((-1.5, -1.0, -0.5, -0.0, 0.5, 1.0, 1.5), -0.0),
                ((-1.0, -0.5, float("0"), 0.25, 0.5, 1.0, 1.5), float("0")),
            ]
        )
        text = _trace_text(write_trace_csv, res)
        assert text == _trace_text(_ref_write_trace_csv, res)
        assert text.splitlines()[3:] == ["2,-0.5,-0.0,0.5,1.0,-0.0", "3,0.0,0.25,0.5,0.5,0.0"]

    def test_ints_keep_their_own_text(self):
        # a bracket of Python ints: carried ints print as ints, and a float
        # equal to a carried int prints as a float.  A validated bracket
        # stores floats, so these go in by the trusted build: the writer
        # itself takes whatever numbers a bracket holds
        res = _recorded(
            [
                ((-3, -2, -1, 0, 1, 2, 3), 0),
                ((-3, -2, -1, 0.0, 1, 2, 3), 0),
                ((-2, -1, 0.0, 0.5, 1, 2, 3), 0.0),
            ],
            build=lambda x, fv: trusted_build(ExtendedBracket7, x, fv),
        )
        text = _trace_text(write_trace_csv, res, "ints")
        assert text == _trace_text(_ref_write_trace_csv, res, "ints")
        assert text.splitlines()[2:] == ["0,-1,0,1,2,0", "1,-1,0.0,1,2,0", "2,0.0,0.5,1,1.0,0.0"]

    @pytest.mark.parametrize("spec", [*PAPER_ALGORITHMS, "golden"])
    def test_runs_from_int_brackets_match_the_reference_writer(self, spec):
        b = ExtendedBracket7((-3, -2, -1, 0, 1, 2, 3), (9, 4, 1, 0, 1, 4, 9))
        res = run_algorithm(spec, lambda x: x * x, b, 1e-8, 500, record_brackets=True)
        assert res.iterations > 0
        assert _trace_text(write_trace_csv, res) == _trace_text(_ref_write_trace_csv, res)


def assert_ends_cleanly(res, spec):
    """A run of ``spec`` ended with a status, its trace columns never
    increase, and it spent one oracle call per iteration (plus golden
    section's two upfront probes)."""
    assert res.status in (Status.CONVERGED, Status.BUDGET_EXHAUSTED, Status.STALLED)
    ds = [row[1] for row in res.trace]
    fs = [row[2] for row in res.trace]
    assert all(d2 <= d1 for d1, d2 in zip(ds, ds[1:])), spec
    assert all(f2 <= f1 for f1, f2 in zip(fs, fs[1:])), spec
    upfront = 2 if spec == "golden" and res.evaluations else 0
    assert res.evaluations == res.iterations + upfront, spec


@st.composite
def ill_scaled_problems(draw):
    """A seven-point bracket centred up to 1e8 from zero, with gaps from 1e-6
    to 1, on some draws outer gaps comparable to the centre's magnitude,
    and on some draws one gap a few times the smallest a bracket allows (16
    eps of its span, or one rounding unit far from zero), with a quadratic
    or a kinked objective whose minimum is near the incumbent."""
    far = st.floats(1e7, 1e8)
    centre = draw(st.one_of(st.floats(-1e8, 1e8), far, far.map(lambda c: -c)))
    scale = 10.0 ** draw(st.floats(-6.0, 0.0))
    gaps = [scale * draw(st.floats(0.2, 1.0)) for _ in range(6)]
    if draw(st.booleans()):
        width = max(abs(centre), 1.0)
        gaps[0], gaps[5] = (width * draw(st.floats(0.05, 1.0)) for _ in range(2))
    tiny = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5]))
    if tiny is not None:
        eps = sys.float_info.epsilon
        gaps[tiny] = draw(st.floats(1.5, 4.0)) * MIN_GAP_FACTOR * eps * sum(gaps)
    offsets = np.concatenate([-np.cumsum(gaps[2::-1])[::-1], [0.0], np.cumsum(gaps[3:])])
    x = [centre + float(o) for o in offsets]
    for i in range(1, 7):
        x[i] = max(x[i], math.nextafter(x[i - 1], math.inf))
    m = x[3] + draw(st.floats(-0.25, 0.25)) * min(x[3] - x[2], x[4] - x[3])
    if draw(st.booleans()):
        f = lambda t: (t - m) ** 2
    else:
        a, b, q = (draw(st.floats(0.2, 2.0)) for _ in range(3))
        f = lambda t: max(-a * (t - m), b * (t - m)) + q * (t - m) ** 2
    try:
        bracket = ExtendedBracket7(x, [f(t) for t in x])
    except BracketError:
        assume(False)
    return bracket, f


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ill_scaled_problems())
def test_ill_scaled_brackets_end_cleanly(problem):
    bracket, f = problem
    status = {}
    for spec in PAPER_ALGORITHMS + ("golden",):
        res = run_algorithm(spec, f, bracket, 1e-8, 100)
        status[spec] = res.status
        assert_ends_cleanly(res, spec)
        b = res.bracket
        if isinstance(b, Bracket3):
            assert b.xl < b.xm < b.xr, spec
        else:
            type(b)(b.x, b.fv)
    # wherever the float grid lets golden section converge and the minimum
    # gap is finer than eps / 16, the separation floor leaves every spec but
    # Brent room not to stall
    if status.pop("golden") is Status.CONVERGED and min_gap(bracket.x) < 1e-8 / 16:
        del status["brent"]
        assert Status.STALLED not in status.values(), status


#: The widest span of five or seven points whose square is finite.
SQRT_MAX = math.sqrt(sys.float_info.max)
#: The smallest subnormal float.
TINY = 5e-324
#: Every spec, by the size of the bracket it runs on (see ``harness.SOLVERS``).
SPECS_BY_SIZE = {
    3: ("brent", "golden"),
    5: ("eupm", "mifflin"),
    7: PAPER_ALGORITHMS[:4] + ("dupm",),
}
#: The bracket type of each size.
BRACKETS = {3: lambda x, fv: Bracket3(*x, *fv), 5: ExtendedBracket5, 7: ExtendedBracket7}


@st.composite
def extreme_problems(draw):
    """Points of a three-, five- or seven-point bracket on the subnormal
    grid, at unit scale, near the square root of the largest float or near
    the largest float, centred on either zero or off it, with gaps that may
    vanish; an objective with its minimum near the centre, or constant (all
    values tie); and a termination scale from 1e-2 to 1e-16 of the span,
    at least the smallest subnormal."""
    n = draw(st.sampled_from([3, 5, 7]))
    scale = draw(
        st.one_of(
            st.integers(1, 10**6).map(lambda k: k * TINY),
            st.floats(1e-3, 1e3),
            st.floats(0.05, 0.6).map(lambda r: r * SQRT_MAX),
            st.floats(1e300, 1e308),
        )
    )
    centre = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0).map(lambda r: r * scale))
    x = [centre]
    weights = st.floats(0.05, 1.0) | st.floats(0.0, 1.0)
    for i, w in enumerate(draw(st.lists(weights, min_size=n - 1, max_size=n - 1))):
        if i < n // 2:
            x.insert(0, x[0] - w * scale)
        else:
            x.append(x[-1] + w * scale)
    lo, mid, hi = x[n // 2 - 1 : n // 2 + 2]
    m = mid + draw(st.floats(-0.5, 0.5)) * min(mid - lo, hi - mid)
    if not math.isfinite(m):
        m = mid
    a = draw(st.floats(0.1, 2.0))
    kink, square, flat = lambda t: a * abs(t - m), lambda t: (t - m) * (t - m), lambda t: 1.0
    f = draw(st.sampled_from([kink, square, flat]))
    span = min(x[-1] - x[0], sys.float_info.max)
    eps = max(span * 10.0 ** -draw(st.sampled_from([2, 8, 16])), TINY)
    return x, f, eps


def _around_the_limit(factor, n):
    span = factor * SQRT_MAX
    return [span * (i - n // 2) / (n - 1) for i in range(n)], abs, 1e-8


@settings(max_examples=60, deadline=None)
@given(extreme_problems())
@example(_around_the_limit(0.999, 5))
@example(_around_the_limit(0.999, 7))
@example(_around_the_limit(1.001, 5))
@example(_around_the_limit(1.001, 7))
@example(([-1e308, 0.0, 1e308], abs, 1e-8))
# the closed-form step's products of two gaps overflowed on these, and
# Brent's spacing rounded to zero on the subnormal grid
@example(([-2e155, -1e155, 1e154, 1e155, 2e155], abs, 1e-8))
@example(([-1e300, -5e299, -1e299, -3e298, 1e299, 5e299, 1e300], abs, 1e-8))
@example(([-2 * TINY, 0.0, 2 * TINY], abs, TINY))
def test_extreme_brackets_are_refused_by_type_or_end_cleanly(problem):
    # the constructor refuses a bracket with a BracketError, or every
    # solver of its size ends cleanly from it or refuses the oracle's
    # values by a documented type; none finds a broken invariant
    x, f, eps = problem
    n = len(x)
    fv = [f(t) for t in x]
    try:
        bracket = BRACKETS[n](x, fv)
    except BracketError as exc:
        event(f"refused: {type(exc).__name__}")
        return
    for spec in SPECS_BY_SIZE[n]:
        kind, alpha = parse_algorithm(spec)
        extra = {"alpha": alpha} if kind == "supm" else {}
        try:
            res = harness.SOLVERS[kind][0](f, bracket, eps, 60, **extra)
        except (NonFiniteValueError, AdjustmentOverflowError) as exc:
            event(f"{spec}: {type(exc).__name__}")
            continue
        assert_ends_cleanly(res, spec)
        event(f"{n} points: {res.status.value}")
