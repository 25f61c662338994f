"""Benchmark of the kinkline library: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dupm-kinks --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the named workload untraced and prints its
end-to-end metrics.  ``--trace 1`` runs the per-layer pass instead: a slice
of every workload, first untraced and then again with the span tracer
installed, so every per-layer metric is measured on the workload it
belongs to (see README.md).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine and the settings.

The library is imported from ``src/`` next to this directory, never from
an installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "kinkline"

#: Import-plus-input builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Share of ``--seconds`` spent warming up before the timed window.
WARMUP_SHARE = 0.05
#: Workload time between two samples of the reference loop.
SEGMENT_NS = 100_000_000
INVPHI = (5.0**0.5 - 1.0) / 2.0

#: Metrics of an untraced run: (name, unit).  Every one is nonzero on every
#: workload; the workload-specific ones below are printed but not listed.
END_TO_END = (
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("solve_us_p50", "us"),
    ("solve_us_p99", "us"),
    ("iter_us", "us"),
    ("iters_per_solve", "count"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the end-to-end metrics, but zero or undefined on some
#: workload: oracle calls and convergence (none on gap-engine), gap rows
#: (only on gap-engine) and failures (none on correct code).
WORKLOAD_SPECIFIC = (
    ("evals_per_solve", "count"),
    ("converged_share", "share"),
    ("failed_share", "share"),
    ("gap_rows_per_s", "1/s"),
)


def spec_label(spec: str) -> str:
    """Algorithm spec as a metric-name component: ``supm:0.1`` -> ``supm-0_1``."""
    return spec.replace(":", "-").replace(".", "_")


def per_layer_names(specs) -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run: (name, unit)."""
    out = []
    for spec in specs:
        label = spec_label(spec)
        out += [
            (f"solver.{label}.us_per_iter", "us"),
            (f"solver.{label}.iters_per_solve", "count"),
            (f"solver.{label}.budget_share", "share"),
        ]
    out += [
        ("models.build_model.calls_per_iter", "1/iter"),
        ("models.build_model.us", "us"),
        ("supm.minimize_max_quadratics.calls_per_iter", "1/iter"),
        ("supm.minimize_max_quadratics.us", "us"),
        ("supm.apply_update.us", "us"),
        ("supm.supm_step.self_us", "us"),
        ("dupm.escalate_alpha.us", "us"),
        ("dupm.escalate_alpha.self_us", "us"),
        ("dupm.intersection_condition.calls_per_iter", "1/iter"),
        ("dupm.intersection_condition.us", "us"),
        ("dupm.chi.bisection_steps_per_iter", "1/iter"),
        ("dupm.alpha_floor.us", "us"),
        ("dupm.alpha_plus.us", "us"),
        ("dupm.escalate_fallbacks", "count"),
        ("dupm.dupm_step.self_us", "us"),
        ("dupm.override_share", "1/iter"),
        ("testfuncs.oracle.calls_per_iter", "1/iter"),
        ("testfuncs.oracle.us", "us"),
        ("testfuncs.oracle.memo_hit_ratio", "share"),
        ("harness.generate_bracket.us", "us"),
        ("harness.write_trace_csv.us", "us"),
        ("eupm.gap_sequence_ratios.us", "us"),
        ("eupm.gap_apply_binary.us", "us"),
        ("harness.sample_simplex.us", "us"),
        ("trace.overhead_share", "share"),
    ]
    return out


def import_fresh():
    """Import the library anew, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def _python_reference() -> float:
    """Fixed pure-Python work, independent of the library: golden-section
    searches on shifted kinked quadratics."""
    acc = 0.0
    for k in range(50):
        c = 0.1 * k

        def f(x):
            return (x - c) * (x - c) + 0.5 * abs(x - c)

        a, b = c - 3.0, c + 4.0
        x1, x2 = b - INVPHI * (b - a), a + INVPHI * (b - a)
        f1, f2 = f(x1), f(x2)
        trail = []
        for _ in range(100):
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - INVPHI * (b - a)
                f1 = f(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + INVPHI * (b - a)
                f2 = f(x2)
            trail.append((a, b, min(f1, f2)))
        acc += trail[-1][2]
    return acc


def _numpy_reference() -> float:
    """Fixed NumPy work on small arrays, independent of the library:
    elementwise rational maps over a (1000, 4) array of positive rows."""
    import numpy as np

    p = np.random.default_rng(0).standard_exponential((1000, 4))
    for _ in range(40):
        a, b, c, d = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        r = (c * (c + d) - b * (a + b)) / (a + 2.0 * (b + c) + d)
        q = np.stack((a + b, np.abs(r) + c, d, b), axis=1)
        p = np.where((r <= 0.0)[:, None], q, q[:, ::-1])
        p = p / p.sum(axis=1, keepdims=True)
    return float(p[:, 1].mean())


#: Reference loops by kind, with their times on the recording host.
REFERENCES = {
    "python": (_python_reference, 3_400_000),
    "numpy": (_numpy_reference, 4_100_000),
}


def host_scale(kind: str = "python") -> float:
    """Factor that turns a time measured now into reference-normalised
    time: the reference loop's recorded time over its time now."""
    loop, recorded_ns = REFERENCES[kind]
    t0 = time.perf_counter_ns()
    loop()
    return recorded_ns / (time.perf_counter_ns() - t0)


def set_up(cls, seed: int):
    """Import the library and build the workload's inputs, several times;
    returns the last workload and the median normalised set-up time."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        scale = host_scale()
        t0 = time.perf_counter()
        wl = cls(import_fresh(), seed)
        times.append((time.perf_counter() - t0) * scale)
    return wl, statistics.median(times)


def drive(wl, seconds: float | None = None, max_units: int | None = None, full_pass: bool = True):
    """Run passes over the workload's inputs.

    Stops once ``seconds`` have passed (checked between units, and with
    ``full_pass`` only after the first pass is complete) or ``max_units``
    units have run.  Every ``SEGMENT_NS`` of work the reference loop is
    timed, and the median host scale of the last three samples normalises
    the times of the units that follow.  Returns the tallies of the
    complete passes, the tally of everything and the units run.
    """
    from perfbench.workloads import Tally

    clock = time.perf_counter_ns
    total, passes, units = Tally(), [], 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    samples, scale, next_sample = [], 1.0, 0
    while True:
        tally, complete = Tally(), True
        for unit in wl.pass_units():
            if max_units is not None and units >= max_units:
                complete = False
            elif deadline is not None and (passes or not full_pass):
                complete = time.perf_counter() < deadline
            if not complete:
                break
            if clock() >= next_sample:
                samples = samples[-2:] + [host_scale(wl.reference)]
                scale = statistics.median(samples)
                next_sample = clock() + SEGMENT_NS
            tally.scale = scale
            t0 = clock()
            unit(tally)
            dt = clock() - t0
            tally.raw_wall_ns += dt
            tally.wall_ns += dt * scale
            units += 1
        if complete:
            passes.append(tally)
        total.merge(tally)
        if not complete:
            return passes, total, units


def end_to_end(wl, seconds: float, setup_s: float):
    """Untraced run of one workload: warm up, then measure for ``seconds``."""
    drive(wl, seconds=seconds * WARMUP_SHARE, full_pass=False)
    passes, total, _ = drive(wl, seconds=seconds)
    first = passes[0]
    # Every pass repeats the same solves in the same order, so each timing
    # is taken per pass (per solve for the percentiles) and the median over
    # the passes is reported: that drops host bursts and keeps the spread
    # that comes from the inputs.
    per_solve = [statistics.median(ts) for ts in zip(*(p.times_ns for p in passes))]
    pass_s = statistics.median(p.wall_ns for p in passes) / 1e9
    is_gap = wl.name == "gap-engine"
    metrics = {
        "setup_s": setup_s,
        "solves_per_s": first.solves / pass_s,
        "solve_us_p50": statistics.median(per_solve) / 1e3,
        "solve_us_p99": statistics.quantiles(per_solve, n=100)[98] / 1e3,
        "iter_us": statistics.median(p.busy_ns / p.iterations for p in passes) / 1e3,
        "iters_per_solve": first.iterations / first.solves,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "evals_per_solve": None if is_gap else first.evaluations / first.solves,
        "converged_share": None if is_gap else first.converged / first.solves,
        "failed_share": total.failed / total.solves,
        "gap_rows_per_s": first.gap_rows / pass_s if is_gap else None,
    }
    info = {
        "solves_timed": len(total.times_ns),
        "complete_passes": len(passes),
        "host_scale": total.wall_ns / total.raw_wall_ns,
    }
    if wl.name == "paper-table":
        info["table_sha256"] = hashlib.sha256(wl.table_csv().encode()).hexdigest()
    return metrics, total, info


def per_layer(kl, seed: int, seconds: float):
    """Per-layer pass: every workload, untraced then traced on the same
    units.  Returns the metrics and the tally of all solves."""
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, Tally

    everything = Tally()
    runs = {}
    plain_ns = traced_ns = 0.0
    for name, cls in WORKLOADS.items():
        wl = cls(kl, seed)
        drive(wl, seconds=seconds * WARMUP_SHARE, full_pass=False)
        _, plain, units = drive(wl, seconds=seconds / (2 * len(WORKLOADS)))
        tracer = Tracer()
        with tracer.installed(kl):
            _, traced, _ = drive(wl, max_units=units)
        tracer.scale = traced.wall_ns / traced.raw_wall_ns
        plain_ns += plain.wall_ns
        traced_ns += traced.wall_ns
        everything.merge(plain)
        everything.merge(traced)
        runs[name] = (plain, traced, tracer)

    m = {}
    plain, traced, tr = runs["paper-table"]
    for spec in kl.harness.PAPER_ALGORITHMS:
        ns, iters, solves, budget = plain.per_spec[spec]
        label = spec_label(spec)
        m[f"solver.{label}.us_per_iter"] = ns / iters / 1e3
        m[f"solver.{label}.iters_per_solve"] = iters / solves
        m[f"solver.{label}.budget_share"] = budget / solves
    it = traced.iterations
    for name in ("models.build_model", "supm.minimize_max_quadratics"):
        m[f"{name}.calls_per_iter"] = tr.calls[name] / it
        m[f"{name}.us"] = tr.us(name)
    m["supm.apply_update.us"] = tr.us("supm.apply_update")
    m["supm.supm_step.self_us"] = tr.self_us("supm.supm_step")
    m["testfuncs.oracle.calls_per_iter"] = tr.calls["testfuncs.oracle"] / it
    m["testfuncs.oracle.us"] = tr.us("testfuncs.oracle")
    m["testfuncs.oracle.memo_hit_ratio"] = tr.memo_hits / tr.calls["testfuncs.oracle"]
    m["harness.generate_bracket.us"] = tr.us("harness.generate_bracket")

    _, traced, tr = runs["dupm-kinks"]
    it = traced.iterations
    m["dupm.escalate_alpha.us"] = tr.us("dupm.escalate_alpha")
    m["dupm.escalate_alpha.self_us"] = tr.self_us("dupm.escalate_alpha")
    m["dupm.intersection_condition.calls_per_iter"] = tr.calls["dupm.intersection_condition"] / it
    m["dupm.intersection_condition.us"] = tr.us("dupm.intersection_condition")
    # chi checks alpha_lo and the upper end before it bisects
    m["dupm.chi.bisection_steps_per_iter"] = (
        tr.child_calls("dupm.chi", "dupm.intersection_condition", beyond=2) / it
    )
    m["dupm.alpha_floor.us"] = tr.us("dupm.alpha_floor")
    m["dupm.alpha_plus.us"] = tr.us("dupm.alpha_plus")
    m["dupm.escalate_fallbacks"] = tr.errors[("dupm.chi", "ChiConditionError")]
    m["dupm.dupm_step.self_us"] = tr.self_us("dupm.dupm_step")
    m["dupm.override_share"] = tr.child_calls("dupm.dupm_step", "eupm.eupm_step") / it
    m["harness.write_trace_csv.us"] = tr.us("harness.write_trace_csv")

    _, _, tr = runs["gap-engine"]
    for name in ("eupm.gap_sequence_ratios", "eupm.gap_apply_binary", "harness.sample_simplex"):
        m[f"{name}.us"] = tr.us(name)
    m["trace.overhead_share"] = traced_ns / plain_ns - 1.0
    return m, everything


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    names = ("paper-table", "dupm-kinks", "gap-engine")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    info = machine_info()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if args.trace:
        kl = import_fresh()
        metrics, tally = per_layer(kl, args.seed, args.seconds)
        units = dict(per_layer_names(kl.harness.PAPER_ALGORITHMS))
        shown = metrics
    else:
        wl, setup_s = set_up(WORKLOADS[args.workload], args.seed)
        shown, tally, extra = end_to_end(wl, args.seconds, setup_s)
        info.update(extra, setup_repeats=SETUP_REPEATS)
        units = dict(END_TO_END + WORKLOAD_SPECIFIC)
        metrics = {name: shown[name] for name, _ in END_TO_END}
    for name, value in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:<12} {name:<45} {text:>14} {units[name]}")
    print(f"{args.workload:<12} {'solves':<45} {tally.solves:>14} count")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"info": info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.solves,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
