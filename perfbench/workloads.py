"""The three benchmark workloads.

Every workload is closed loop with one caller: the next solve starts when
the previous one returns.  A workload is built from a seed into a fixed
list of inputs, one *pass* over them; a run repeats passes until its time
is up, so every pass does exactly the same work and the count metrics of
any complete pass repeat exactly for a fixed seed.

Library functions are looked up on their modules at call time (never bound
to local names at set-up), so the tracer's rebinding is seen.
"""

from __future__ import annotations

import functools
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks

EPS = 1e-8
BUDGET = 500
#: Stream tag of ``run_benchmark``'s per-trial brackets; the benchmark's
#: test pins it by comparing CSV bytes.
BENCH_STREAM = 1
#: Stream tag of ``minimize_once``, extended here with a solve index.
ONCE_STREAM = 3
#: Generator key ``verify --contraction`` uses after the seed.
CONTRACTION_STREAM = 5

KINK_FUNCTIONS = ("NU1", "NU2", "NU3", "NU4", "NU5")

_clock = time.perf_counter_ns


@dataclass
class Tally:
    """What a stretch of solves did.

    Times are recorded multiplied by ``scale``, the host-speed factor that
    ``run.drive`` sets before each unit.  ``times_ns`` holds
    one entry per individually timed solve; work timed as a block (the
    sequence experiment) enters only ``busy_ns`` and the counts.
    """

    scale: float = 1.0
    times_ns: list[float] = field(default_factory=list)
    #: time of all solves, block-timed ones included
    busy_ns: float = 0.0
    #: wall time of the units run, normalised and as measured
    wall_ns: float = 0.0
    raw_wall_ns: int = 0
    solves: int = 0
    failed: int = 0
    iterations: int = 0
    evaluations: int = 0
    converged: int = 0
    gap_rows: int = 0
    #: spec -> [solve ns, iterations, solves, budget-exhausted solves]
    per_spec: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, label: str, problems: list[str], solves: int = 1) -> None:
        self.solves += solves
        self.failed += solves
        if len(self.problems) < 20:
            self.problems += [f"{label}: {p}" for p in problems]

    def time(self, ns: int, iterations: int, alone: bool = True) -> float:
        """Record the time of a solve (``alone``) or of a block of them."""
        ns *= self.scale
        if alone:
            self.times_ns.append(ns)
        self.busy_ns += ns
        self.iterations += iterations
        return ns

    def add_solve(self, kl, label: str, spec: str, ns: int, res, problems: list[str]) -> None:
        if problems:
            self.fail(label, problems)
        else:
            self.solves += 1
        ns = self.time(ns, res.iterations)
        self.evaluations += res.evaluations
        self.converged += res.converged
        row = self.per_spec.setdefault(spec, [0, 0, 0, 0])
        row[0] += ns
        row[1] += res.iterations
        row[2] += 1
        row[3] += res.status is kl.result.Status.BUDGET_EXHAUSTED

    def merge(self, other: "Tally") -> None:
        self.times_ns += other.times_ns
        for name in (
            "busy_ns", "wall_ns", "raw_wall_ns", "solves", "failed",
            "iterations", "evaluations", "converged", "gap_rows",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for spec, row in other.per_spec.items():
            mine = self.per_spec.setdefault(spec, [0, 0, 0, 0])
            for i, v in enumerate(row):
                mine[i] += v
        self.problems += other.problems[: max(0, 20 - len(self.problems))]


def _function_index(kl, fid: str) -> int:
    return [f.fid for f in kl.testfuncs.list_functions()].index(fid)


class PaperTable:
    """``kinkline bench`` call for call: every function of the suite, every
    paper algorithm, on ``trials`` trial indices of the per-trial bracket
    stream of ``run_benchmark(jobs=1)``; brackets are not recorded."""

    name = "paper-table"
    reference = "python"
    #: Trial indices per pass: 8 x 19 functions x 8 algorithms = 1216 solves.
    TRIALS = 8

    def __init__(self, kl, seed: int, trials: int = TRIALS, functions=None):
        h = kl.harness
        self.kl = kl
        self.cfg = h.TrialConfig(
            functions=tuple(functions or h.SUITES["all"]),
            algorithms=h.PAPER_ALGORITHMS,
            trials=trials,
            eps=EPS,
            budget=BUDGET,
            seed=seed,
        )
        self.funcs = [
            (fid, kl.testfuncs.get_function(fid), _function_index(kl, fid))
            for fid in self.cfg.functions
        ]
        #: per-cell rates of the first complete pass
        self.rates: dict[tuple[str, str], list[float]] | None = None

    def pass_units(self):
        rates = {(fid, spec): [] for fid, _, _ in self.funcs for spec in self.cfg.algorithms}
        for fid, func, fidx in self.funcs:
            for t in range(self.cfg.trials):
                yield functools.partial(self._trial, fid, func, fidx, t, rates)
        if self.rates is None:
            self.rates = rates

    def _trial(self, fid, func, fidx, t, rates, tally: Tally) -> None:
        kl, cfg = self.kl, self.cfg
        h = kl.harness
        rng = np.random.default_rng([cfg.seed, BENCH_STREAM, fidx, t])
        try:
            bracket = h.generate_bracket(func, rng)
        except Exception as exc:  # counted, never fatal
            tally.fail(f"{fid} trial {t}", [repr(exc)], solves=len(cfg.algorithms))
            return
        for spec in cfg.algorithms:
            label = f"{fid} {spec} trial {t}"
            t0 = _clock()
            try:
                oracle = kl.testfuncs.CountingOracle(func.evaluator, func.domain)
                res = h.run_algorithm(spec, oracle, bracket, cfg.eps, cfg.budget)
                rate = h.convergence_rate(res)
            except Exception as exc:  # counted, never fatal
                tally.fail(label, [repr(exc)])
                continue
            ns = _clock() - t0
            upfront = 2 if spec == "golden" else 0
            problems = checks.solve_problems(kl, res, oracle, cfg.budget, cfg.eps, upfront)
            tally.add_solve(kl, label, spec, ns, res, problems)
            rates[(fid, spec)].append(rate)

    def table_csv(self) -> str:
        """The rate table of the first complete pass, written by ``write_benchmark_csv``
        after the cell aggregation of ``run_benchmark``."""
        h = self.kl.harness
        cells = {}
        for key, rs in self.rates.items():
            failures = sum(1 for r in rs if math.isinf(r))
            mean = math.inf if failures else sum(rs) / len(rs)
            cells[key] = h.CellStats(mean, len(rs), failures)
        buf = io.StringIO()
        h.write_benchmark_csv(h.BenchmarkReport(self.cfg, cells), buf)
        return buf.getvalue()


class DupmKinks:
    """Single recorded DUPM solves on the kink functions, each rendering its
    trace CSV to memory, as ``kinkline minimize --trace`` does.  The
    brackets are generated at set-up."""

    name = "dupm-kinks"
    reference = "python"
    #: Solves per pass, spread evenly over NU1-NU5.
    SOLVES = 2000

    def __init__(self, kl, seed: int, solves: int = SOLVES):
        self.kl = kl
        self.seed = seed
        self.cases = []
        for j in range(solves):
            fid = KINK_FUNCTIONS[j % len(KINK_FUNCTIONS)]
            func = kl.testfuncs.get_function(fid)
            rng = np.random.default_rng([seed, ONCE_STREAM, _function_index(kl, fid), j])
            self.cases.append((fid, func, kl.harness.generate_bracket(func, rng)))

    def pass_units(self):
        for j, case in enumerate(self.cases):
            yield functools.partial(self._solve, j, *case)

    def _solve(self, j, fid, func, bracket, tally: Tally) -> None:
        kl = self.kl
        h = kl.harness
        label = f"{fid} dupm case {j}"
        header = (
            f"kinkline minimize function={fid} algorithm=dupm seed={self.seed} "
            f"eps={EPS:g} budget={BUDGET}"
        )
        t0 = _clock()
        try:
            oracle = kl.testfuncs.CountingOracle(func.evaluator, func.domain)
            res = h.run_algorithm("dupm", oracle, bracket, EPS, BUDGET, record_brackets=True)
            buf = io.StringIO()
            h.write_trace_csv(res, buf, header=header)
            text = buf.getvalue()
        except Exception as exc:  # counted, never fatal
            tally.fail(label, [repr(exc)])
            return
        ns = _clock() - t0
        problems = checks.solve_problems(kl, res, oracle, BUDGET, EPS)
        problems += checks.trace_csv_problems(text, res)
        tally.add_solve(kl, label, "dupm", ns, res, problems)


class GapEngine:
    """The oracle-free gap engine: the 10-bit sequence experiment, then the
    exhaustive five-step contraction check over all 4**5 update sequences
    as ``verify --contraction`` runs it.

    A solve is one bit pattern or one update sequence; an iteration is one
    update step of the gap rows.  The sequence experiment runs as one
    library call per pass, so only the contraction sequences are timed one
    by one.
    """

    name = "gap-engine"
    reference = "numpy"
    BITS = 10
    #: ``seqexp`` default sample count.
    SEQEXP_SAMPLES = 1000
    #: ``verify --samples``: a tenth of its default, so the gap algebra's
    #: per-call cost, not memory traffic, sets the time (see README.md).
    CONTRACTION_SAMPLES = 1000
    STEPS = 5

    def __init__(self, kl, seed: int):
        self.kl = kl
        self.seed = seed
        self.sequences = kl.eupm.all_branch_sequences(self.STEPS)

    def pass_units(self):
        yield self._seqexp
        rng = np.random.default_rng([self.seed, CONTRACTION_STREAM])
        for seq in self.sequences:
            yield functools.partial(self._contract, rng, seq)

    def _seqexp(self, tally: Tally) -> None:
        kl = self.kl
        patterns = 2**self.BITS
        t0 = _clock()
        try:
            rows = kl.harness.run_sequence_experiment(
                bits=self.BITS, samples=self.SEQEXP_SAMPLES, seed=self.seed
            )
        except Exception as exc:  # counted, never fatal
            tally.fail("seqexp", [repr(exc)], solves=patterns)
            return
        tally.time(_clock() - t0, patterns * self.BITS, alone=False)
        golden = kl.baselines.INVPHI
        bad = 0
        for row in rows:
            problems = checks.seqexp_row_problems(row, self.BITS, golden)
            if problems:
                bad += 1
                tally.fail(f"seqexp {row[0]}", problems, solves=0)
        if len({row[0] for row in rows}) != patterns:
            tally.fail("seqexp", [f"{len(rows)} rows for {patterns} patterns"], solves=0)
            bad = patterns
        tally.solves += patterns
        tally.failed += bad
        tally.gap_rows += patterns * self.BITS * self.SEQEXP_SAMPLES

    def _contract(self, rng, seq, tally: Tally) -> None:
        kl = self.kl
        label = "sequence " + "".join(map(str, seq))
        t0 = _clock()
        try:
            p = kl.harness.sample_simplex(rng, self.CONTRACTION_SAMPLES)
            ratios, feasible = kl.eupm.gap_sequence_ratios(p, seq)
            worst = float(np.max(ratios[feasible])) if feasible.any() else None
        except Exception as exc:  # counted, never fatal
            tally.fail(label, [repr(exc)])
            return
        ns = _clock() - t0
        if worst is not None and not worst <= checks.FIVE_STEP_BOUND:
            tally.fail(label, [f"five-step ratio {worst!r} > {checks.FIVE_STEP_BOUND!r}"])
        else:
            tally.solves += 1
        tally.time(ns, len(seq))
        tally.gap_rows += len(seq) * self.CONTRACTION_SAMPLES


WORKLOADS = {w.name: w for w in (PaperTable, DupmKinks, GapEngine)}
