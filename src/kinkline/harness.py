"""Benchmark harness: bracket generation, rate metric, experiment runners.

Everything here is deterministic given a seed: per-trial random streams
are derived from (seed, stream tag, function index, trial index).  The
benchmark's unit of work is that stream's (function, trial) pair, so runs
can be parallelized or re-ordered without changing a single output byte.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .baselines import (
    INVPHI,
    brent_minimize,
    golden_section_minimize,
    mifflin_strodiot_minimize,
)
from .brackets import BracketError, ExtendedBracket7, inner3, inner5
from .dupm import dupm_minimize
from .eupm import eupm_minimize, gap_apply_binary
from .result import SolverResult, Status
from .supm import check_count, check_stop_rule, supm_minimize
from .testfuncs import CountingOracle, TestFunction, get_function, list_functions, oracle_for

_BENCH_STREAM = 1
_SEQEXP_STREAM = 2
_ONCE_STREAM = 3

#: Algorithm specs in the order the benchmark tables use.
PAPER_ALGORITHMS = (
    "supm:0",
    "supm:0.1",
    "supm:1",
    "supm:10",
    "eupm",
    "dupm",
    "brent",
    "mifflin",
)

_IDS = tuple(f.fid for f in list_functions())
#: ``bench --suite`` choices: one suite per id prefix, and ``all`` in registry order.
SUITES = {i[:2].lower(): tuple(j for j in _IDS if j[:2] == i[:2]) for i in _IDS} | {"all": _IDS}


class ResampleLimitExceededError(RuntimeError):
    """Bracket generation kept failing; the function/domain pair does not
    admit the sampling scheme (e.g. the minimum sits on the boundary).

    ``short_side`` counts the attempts whose incumbent had fewer than three
    points on a side, ``invalid`` those whose seven points failed bracket
    validation.
    """

    # the counts default to 0, so that the error rebuilds from its message
    # alone when a pool worker's error is unpickled; they travel in __dict__
    def __init__(self, message: str, short_side: int = 0, invalid: int = 0):
        super().__init__(message)
        self.short_side = short_side
        self.invalid = invalid


class BracketPointsError(ValueError):
    """Given starting abscissae do not make a valid seven-point bracket:
    not a sequence of real numbers (a numeric string is not one), wrong
    count, a point where the function cannot be evaluated, repeated points,
    or values failing the centre condition."""


#: Full draws :func:`generate_bracket` makes before it gives up.
_BRACKET_ATTEMPTS = 1000


def generate_bracket(f: TestFunction, rng: np.random.Generator) -> ExtendedBracket7:
    """Random seven-point bracket by the two-cluster sampling scheme.

    Each attempt draws exactly eight doubles from ``rng``: one uniform draw
    of four points from the first fifth of the domain, then one of four
    from its upper half.  The sample with the smallest value becomes the
    incumbent, the first one on a tie; a NaN value wins over every number
    (the first NaN, as ``np.argmin`` rules), so an attempt with a NaN value
    never gives a bracket.  The three nearest points on each side become
    its flanks, taken from a stable sort of the eight points, so of two
    equal abscissae the one drawn first lies left; a point at the
    incumbent's abscissa is on neither side.  The centre condition holds by
    construction for numbers.  The full draw is repeated whenever the
    incumbent has fewer than three points on either side or the seven
    points fail bracket validation, at most ``_BRACKET_ATTEMPTS`` times.
    """
    a, b = f.domain
    span = b - a
    short_side = invalid = 0
    for _ in range(_BRACKET_ATTEMPTS):
        pts = rng.uniform(a, a + span / 5.0, 4).tolist()
        pts += rng.uniform(b - span / 2.0, b, 4).tolist()
        vals = list(map(f.evaluator, pts))
        k = 0
        for j, v in enumerate(vals):
            if v != v:
                k = j
                break
            if v < vals[k]:
                k = j
        order = sorted(range(8), key=pts.__getitem__)
        lo = bisect_left(order, pts[k], key=pts.__getitem__)
        hi = bisect_right(order, pts[k], key=pts.__getitem__)
        if lo < 3 or hi > 5:
            short_side += 1
            continue
        chosen = order[lo - 3 : lo] + [k] + order[hi : hi + 3]
        try:
            return ExtendedBracket7(map(pts.__getitem__, chosen), map(vals.__getitem__, chosen))
        except BracketError:
            invalid += 1
    raise ResampleLimitExceededError(
        f"no valid bracket for {f.fid} in {_BRACKET_ATTEMPTS} attempts "
        f"({short_side} with fewer than three points on a side, {invalid} invalid)",
        short_side,
        invalid,
    )


def convergence_rate(result: SolverResult) -> float:
    """Per-iteration geometric-mean reduction of the inner length.

    ``(d_final / d_initial) ** (1/n)`` for a converged run of n >= 1
    iterations, 0 for immediate convergence, and infinity for a run that
    hit its budget (or stalled): a single failure is not averaged away.
    This is the only reading of an average rate in (0, 1) consistent with
    golden section measuring its known 0.618 reduction ratio.
    """
    if result.status is not Status.CONVERGED:
        return math.inf
    if result.iterations == 0:
        return 0.0
    d0 = result.trace[0][1]
    df = result.trace[-1][1]
    return (df / d0) ** (1.0 / result.iterations)


#: Algorithm kind -> (solver, the part of a seven-point bracket it runs
#: on, its column label): all seven points for the underestimator solvers,
#: the inner five for the extremal and Mifflin-Strodiot ones, the inner
#: triple for golden section and Brent.  A supm column is labelled by its
#: constant instead.
SOLVERS = {
    "supm": (supm_minimize, lambda b: b, "SUPM"),
    "eupm": (eupm_minimize, inner5, "EUPM"),
    "dupm": (dupm_minimize, lambda b: b, "DUPM"),
    "brent": (brent_minimize, inner3, "Brent"),
    "golden": (golden_section_minimize, inner3, "Golden"),
    "mifflin": (mifflin_strodiot_minimize, inner5, "Mifflin"),
}


def parse_algorithm(spec: str) -> tuple[str, float]:
    """Split an algorithm spec into (kind, alpha); alpha only for supm,
    spelt ``supm`` (alpha 0) or ``supm:<alpha>``, where it must be finite
    and >= 0.  Case is ignored."""
    s = spec.strip().lower()
    kind, colon, rest = s.partition(":")
    if kind == "supm" and colon:
        try:
            alpha = float(rest)
        except ValueError:
            alpha = math.nan  # refused below, with the documented message
        if not (alpha >= 0.0 and math.isfinite(alpha)):
            raise ValueError(f"expected a finite alpha >= 0 after 'supm:', got {rest!r}")
        return "supm", alpha
    if s in SOLVERS:
        return s, 0.0
    raise ValueError(f"unknown algorithm spec {spec!r}")


def canonical_algorithm(spec: str) -> str:
    """The spelling of ``spec`` that every output prints: the kind, or
    ``supm:`` and the shortest repr of alpha, ``-0`` as ``0`` and without a
    trailing ``.0`` (``SUPM:1.0`` becomes ``supm:1``, ``supm`` ``supm:0``)."""
    kind, alpha = parse_algorithm(spec)
    return f"supm:{alpha + 0.0!r}".removesuffix(".0") if kind == "supm" else kind


def run_algorithm(
    spec: str,
    oracle,
    bracket: ExtendedBracket7,
    eps: float,
    budget: int,
    record_brackets: bool = False,
) -> SolverResult:
    """Run one algorithm from the part of a shared seven-point bracket it
    is defined on (see :data:`SOLVERS`)."""
    kind, alpha = parse_algorithm(spec)
    solve, view, _ = SOLVERS[kind]
    extra = {"alpha": alpha} if kind == "supm" else {}
    return solve(oracle, view(bracket), eps, budget, record_brackets, **extra)


@dataclass(frozen=True)
class TrialConfig:
    """Settings of one benchmark run.  Functions are stored as the
    registry's canonical ids (``"nu3"`` becomes ``"NU3"``) and algorithms
    as :func:`canonical_algorithm` specs.  ``trials``, ``seed`` and ``budget``
    are counts by :func:`~kinkline.supm.check_count`; an empty function or
    algorithm list, or one that lists a name twice, is refused with
    :class:`ValueError`, and a single string given as either with
    :class:`TypeError`."""

    functions: tuple[str, ...]
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS
    trials: int = 1000
    eps: float = 1e-8
    budget: int = 500
    seed: int = 0

    def __post_init__(self):
        check_count("trials", self.trials, 1)
        check_count("seed", self.seed, 0)
        check_stop_rule(self.eps, self.budget)
        for name, names in (("functions", self.functions), ("algorithms", self.algorithms)):
            if isinstance(names, str):
                raise TypeError(f"{name} must be a sequence of names, got {names!r}")
        specs = tuple(map(canonical_algorithm, self.algorithms))
        if not self.functions:
            raise ValueError("functions must name at least one function")
        if not specs:
            raise ValueError("algorithms must name at least one algorithm")
        fids = tuple(get_function(f).fid for f in self.functions)
        object.__setattr__(self, "functions", fids)
        object.__setattr__(self, "algorithms", specs)
        for kind, names in (("function", fids), ("algorithm", specs)):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(f"{kind} {name!r} listed twice")


@dataclass(frozen=True)
class CellStats:
    """One (function, algorithm) table cell.

    ``mean_rate`` is the arithmetic mean of the per-trial rates, infinity
    as soon as any trial failed to converge.
    """

    mean_rate: float
    trials: int
    failures: int


@dataclass
class BenchmarkReport:
    config: TrialConfig
    cells: dict[tuple[str, str], CellStats]

    def cell(self, fid: str, spec: str) -> CellStats:
        return self.cells[(get_function(fid).fid, canonical_algorithm(spec))]


def _trial_rates(cfg: TrialConfig, fid: str, t: int) -> list[float]:
    """Convergence rates of trial ``t`` on ``fid``, one per configured
    algorithm in config order, all started from the trial's bracket."""
    func = get_function(fid)
    rng = np.random.default_rng([cfg.seed, _BENCH_STREAM, list_functions().index(func), t])
    bracket = generate_bracket(func, rng)
    return [
        convergence_rate(run_algorithm(spec, oracle_for(func), bracket, cfg.eps, cfg.budget))
        for spec in cfg.algorithms
    ]


def run_benchmark(cfg: TrialConfig, jobs: int = 1) -> BenchmarkReport:
    """Run every configured algorithm on every function.

    The unit of work is one (function, trial) pair, the key of its random
    stream.  Within a trial all algorithms start from the same bracket but
    get independent oracles and counters.  With ``jobs > 1`` the units run
    in separate processes, about eight chunks of them per worker, so that
    no worker idles long at the end when some functions' trials cost far
    more than others'.  A pool starts all its workers at once, so there are
    at most as many as units and usable CPUs.  Each cell takes its rates in
    trial order, so the outputs are identical either way.  ``jobs`` below
    one is refused with :class:`ValueError`, and one that is not an integer
    with :class:`TypeError`.
    """
    check_count("jobs", jobs, 1)
    fids, trials = zip(*itertools.product(cfg.functions, range(cfg.trials)))
    cfgs = itertools.repeat(cfg)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(fids), cpus or 1)
    if workers > 1:
        # imported here, so that commands without a pool skip its ~20 ms import
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-len(fids) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_trial_rates, cfgs, fids, trials, chunksize=chunk))
    else:
        parts = list(map(_trial_rates, cfgs, fids, trials))
    cells = {}
    for k, fid in enumerate(cfg.functions):
        per_spec = zip(*parts[k * cfg.trials : (k + 1) * cfg.trials])
        for spec, rs in zip(cfg.algorithms, per_spec):
            failures = sum(1 for r in rs if math.isinf(r))
            mean = math.inf if failures else sum(rs) / len(rs)
            cells[(fid, spec)] = CellStats(mean, len(rs), failures)
    return BenchmarkReport(cfg, cells)


def write_benchmark_csv(
    report: BenchmarkReport, out: IO[str], latex_labels: bool = False
) -> None:
    """Table of mean rates, one row per function, one column per algorithm.

    The first line is a ``#`` comment recording the run settings, so every
    CSV carries its own provenance.
    """
    cfg = report.config
    out.write(
        f"# kinkline bench seed={cfg.seed} trials={cfg.trials} "
        f"eps={cfg.eps:g} budget={cfg.budget}\n"
    )
    labels = (s.partition(":")[2] or SOLVERS[s][2] for s in cfg.algorithms)
    out.write("Functions," + ",".join(labels) + "\n")
    for fid in cfg.functions:
        row = [f"$f^{{{fid[:2]}}}_{fid[2:]}$" if latex_labels else fid]
        row += [f"{report.cells[fid, s].mean_rate:.6f}" for s in cfg.algorithms]
        out.write(",".join(row) + "\n")


def sample_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform samples from the positive unit-sum 4-simplex (n, 4).

    Each row is four standard exponentials divided by their sum, added
    left to right.  The result is the transposed view of a (4, n) array,
    so ``p.T`` hands out four contiguous columns.
    """
    e = rng.standard_exponential((n, 4)).T
    p = np.empty((4, n))
    np.divide(e, ((e[0] + e[1]) + e[2]) + e[3], out=p)
    return p.T


#: Rows the sequence experiment steps together.  Per row, a gap step is
#: cheapest near 4,000 rows: at 1,000 the per-call overhead weighs more,
#: and from 8,000 rows up it costs more again.
_BLOCK_ROWS = 4000

#: The longest bit pattern the sequence experiment takes.  Its work grows
#: as 2**bits patterns, while the all-improving rows underflow from about
#: step 23 and reach zero inner length after about 30.
MAX_BITS = 20

#: The most gap vectors the sequence experiment draws per pattern, and a
#: :mod:`kinkline.verify` check per draw; :func:`~kinkline.supm.check_count`
#: refuses a larger ``samples`` in both.  A draw holds several arrays of that
#: many rows at once: ``seqexp --bits 1`` at this bound peaks near 170 MB.
MAX_SAMPLES = 1_000_000


def run_sequence_experiment(
    bits: int = 10, samples: int = 1000, seed: int = 0
) -> list[tuple[str, int, float, float]]:
    """Mean oracle-free contraction rate for every improving/non-improving
    bit pattern of the given length.

    Each pattern drives the oracle-free gap engine from ``samples`` random
    unit-sum gap vectors, held as four columns from the draw to the rate
    (1 = the trial improved, 0 = it did not; the side is decided by the
    step offset's sign as in a real run, zero counting as left).  The
    returned rows are (pattern, bits, mean rate, golden reference rate),
    slowest patterns first.  The golden reference is its constant
    reduction ratio, which no bit pattern can alter.

    Patterns are stepped in blocks of 2**m consecutive indices, the largest
    power of two whose rows fit in :data:`_BLOCK_ROWS` (one pattern from
    4,000 samples up), capped at 2**bits.  A block's patterns agree on all
    but their last m bits: each bit is applied once to every run of
    patterns that agree on it and all before it, so the first bits - m
    bits go to the whole block, and then the runs halve bit by bit.  Each
    pattern keeps its own stream ``[seed, 2, index]`` and its rate is the
    mean over its own rows, so the rows do not depend on the block size.

    ``bits`` is an integer from 1 to :data:`MAX_BITS`, ``samples`` one
    from 1 to :data:`MAX_SAMPLES` and ``seed`` one from 0 up; otherwise
    :func:`~kinkline.supm.check_count` raises :class:`TypeError` for a value
    that is not an integer and :class:`ValueError` for one out of range.
    """
    check_count("bits", bits, 1, MAX_BITS)
    check_count("samples", samples, 1, MAX_SAMPLES)
    check_count("seed", seed, 0)
    m = min(bits, max(0, (_BLOCK_ROWS // samples).bit_length() - 1))
    width = 1 << m
    patterns = itertools.product((1, 0), repeat=bits)
    rows = []

    def draw(i: int) -> np.ndarray:
        return sample_simplex(np.random.default_rng([seed, _SEQEXP_STREAM, i]), samples).T

    for first in range(0, 1 << bits, width):
        block = list(itertools.islice(patterns, width))
        # runs of ``size`` patterns each, in block order, as their four columns;
        # only the first run names the block's draws, so they go after one step
        runs, size = [tuple(np.hstack([draw(i) for i in range(first, first + width)]))], width
        d0 = runs[0][1] + runs[0][2]
        for k in range(bits):
            if k >= bits - m:  # a run's patterns part at bit k: halve it
                size //= 2
                n = size * samples
                runs = [tuple(c[i : i + n] for c in cols) for cols in runs for i in (0, n)]
            runs = [
                gap_apply_binary(*cols, block[r * size][k] == 1) for r, cols in enumerate(runs)
            ]
        rates = [
            ((p2 + p3) / d) ** (1.0 / bits)
            for (_, p2, p3, _), d in zip(runs, d0.reshape(width, samples))
        ]
        rows += [
            ("".join(map(str, pattern)), bits, float(r.mean()), INVPHI)
            for pattern, r in zip(block, rates)
        ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows


def write_sequence_csv(
    rows: list[tuple[str, int, float, float]], out: IO[str], seed: int, samples: int
) -> None:
    out.write(f"# kinkline seqexp seed={seed} samples={samples}\n")
    out.write("sequence,bits,eupm_rate,golden_rate\n")
    for seq, bits, er, gr in rows:
        out.write(f"{seq},{bits},{er:.6f},{gr:.6f}\n")


def minimize_once(
    fid: str,
    algorithm: str,
    seed: int = 0,
    eps: float = 1e-8,
    budget: int = 500,
    bracket_points: Sequence[float] | None = None,
) -> tuple[SolverResult, ExtendedBracket7]:
    """One seeded run of one algorithm on one function.

    Without ``bracket_points`` the starting bracket comes from the random
    generator; with them, the seven given abscissae are read as floats by
    the bracket types' rule ``float(+x)``, sorted ascending, evaluated to
    finite real values, and validated.  Any failure raises
    :class:`BracketPointsError`: a string, bytes, a bytearray, a memoryview
    of bytes, a non-iterable, a point that is not a real number, a numeric
    string such as ``"0.5"`` included, or one too large for a float, which
    is named by its position.  Injected points may extend beyond the
    function's nominal domain (the oracle's domain check widens to their
    hull); the values must still satisfy the centre condition.  ``seed`` (a
    count from 0 up), ``eps`` and ``budget`` (see
    :func:`~kinkline.supm.check_stop_rule`) are checked before any draw.
    """
    check_count("seed", seed, 0)
    check_stop_rule(eps, budget)
    func = get_function(fid)
    a, b = func.domain
    if bracket_points is None:
        rng = np.random.default_rng([seed, _ONCE_STREAM, list_functions().index(func)])
        bracket = generate_bracket(func, rng)
    else:
        text = isinstance(bracket_points, (str, bytes, bytearray)) or (
            isinstance(bracket_points, memoryview) and bracket_points.format in ("B", "b", "c")
        )
        if text or not isinstance(bracket_points, Iterable):
            raise BracketPointsError(f"need a sequence of numbers, got {bracket_points!r}")
        pts = []
        for i, x in enumerate(bracket_points):
            try:
                pts.append(float(+x))
            except (TypeError, ValueError) as exc:
                raise BracketPointsError(f"bracket point {x!r} is not a real number") from exc
            except OverflowError as exc:  # named by position: a huge int's repr may fail
                raise BracketPointsError(
                    f"bracket point at index {i} is too large for a float"
                ) from exc
        pts.sort()
        if len(pts) != 7:
            raise BracketPointsError(f"need exactly 7 bracket points, got {len(pts)}")
        values = []
        for x in pts:
            try:
                fx = func.evaluator(x)
                if not math.isfinite(fx):  # TypeError for a complex value
                    raise ValueError(f"value {fx!r} is not finite")
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise BracketPointsError(
                    f"{func.fid} cannot be evaluated at x={x!r} ({type(exc).__name__}: {exc})"
                ) from exc
            values.append(fx)
        try:
            bracket = ExtendedBracket7(pts, values)
        except BracketError as exc:
            raise BracketPointsError(f"not a seven-point bracket: {exc}") from exc
        a, b = min(a, pts[0]), max(b, pts[-1])
    oracle = CountingOracle(func.evaluator, (a, b))
    return run_algorithm(algorithm, oracle, bracket, eps, budget, record_brackets=True), bracket


def write_trace_csv(result: SolverResult, out: IO[str], header: str = "") -> None:
    """Per-iteration positions and progress of a recorded run, written in
    one call.  An update keeps two inner points (rules 3 and 4 also the
    incumbent value), so a value carried from the previous row reuses that
    row's text; it is matched by identity, never by value (``0.0 == -0.0``,
    but their reprs differ)."""
    if result.bracket_trace is None:
        raise ValueError("run the solver with record_brackets=True to dump a trace")
    lines = [f"# {header}\n"] if header else []
    lines.append("iteration,xl1,xm,xr1,d,fm\n")
    pl = pm = pr = pf = None  # the previous row's values; tl, tm, tr, tf hold their text
    tl = tm = tr = tf = ""
    c = len(result.bracket.x) // 2
    for (i, d, fm), br in zip(result.trace, result.bracket_trace):
        x = br.x
        xl, xm, xr = x[c - 1], x[c], x[c + 1]
        nl = tl if xl is pl else tm if xl is pm else repr(xl)
        nr = tr if xr is pr else tm if xr is pm else repr(xr)
        if xm is not pm:
            tm = repr(xm)
        tl, tr = nl, nr
        tf = tf if fm is pf else repr(fm)
        pl, pm, pr, pf = xl, xm, xr, fm
        lines.append(f"{i},{tl},{tm},{tr},{d!r},{tf}\n")
    out.write("".join(lines))
