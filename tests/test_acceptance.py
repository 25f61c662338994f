"""Acceptance gate: one test per criterion, run at its stated tolerance.

Each test prints one ``ACCEPTANCE nn ... PASS/FAIL`` line (visible with
``pytest -s`` and in captured output on failure).  Criterion 08's
"fastest column" sub-check is a known honest failure on the SU1 row; the
CHANGES.md entry on the SU1 table records the measurements.
"""

import math
import time

import numpy as np
import pytest

from conftest import kink_bracket, kink_objective, random_bracket7
from kinkline import verify
from kinkline.baselines import INVPHI, golden_section_minimize
from kinkline.brackets import ExtendedBracket7, inner3, inner5, inner_length, reflect
from kinkline.eupm import eupm_step, gap_map, gap_offset, gap_sequence_ratios
from kinkline.harness import (
    PAPER_ALGORITHMS,
    TrialConfig,
    convergence_rate,
    generate_bracket,
    minimize_once,
    run_algorithm,
    run_benchmark,
    sample_simplex,
)
from kinkline.models import build_model, model_value
from kinkline.result import Status
from kinkline.supm import Flanks, supm_step
from kinkline.testfuncs import get_function, list_functions, oracle_for
from kinkline.verify import random_bracket5

def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_01_five_step_contraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng([100, 1])
    worst, worst_seq, feasible_total = verify.five_step_contraction(rng, 10000)
    elapsed = time.perf_counter() - t0
    ok = worst <= verify.CONTRACTION_BOUND and elapsed < 60.0
    report(
        1,
        "five-step contraction over all update sequences",
        ok,
        f"max ratio {worst:.12f} at {worst_seq}, {feasible_total} feasible draws, "
        f"{elapsed:.1f}s",
    )


def test_02_minimal_sequence_ratios_and_pair_identities():
    rng = np.random.default_rng([100, 2])
    by_seq = verify.minimal_sequence_ratios(rng, 10000)
    assert all(got >= 10000 for got, _ in by_seq.values())
    worst_all = max(worst for _, worst in by_seq.values())

    # the printed ratio identities pair sequences whose feasible sets are
    # disjoint past the shared prefix, so they are checked by formal
    # composition of the update maps after a feasible prefix
    p = sample_simplex(rng, 60000)
    p = p[gap_offset(*p.T) < 0.0][:10000]
    r44, _ = gap_sequence_ratios(p, (4, 4))
    r422, _ = gap_sequence_ratios(p, (4, 2, 2))
    d1 = float(np.max(np.abs(r44 - r422)))

    p = sample_simplex(rng, 200000)
    p = p[gap_offset(*p.T) < 0.0]
    p4 = gap_map(4, gap_offset(*p.T), *p.T)
    p = p[gap_offset(*p4) > 0.0][:10000]
    r434, _ = gap_sequence_ratios(p, (4, 3, 4))
    r4322, _ = gap_sequence_ratios(p, (4, 3, 2, 2))
    d2 = float(np.max(np.abs(r434 - r4322)))

    ok = worst_all < verify.SEQUENCE_BOUND and d1 <= 1e-12 and d2 <= 1e-12
    report(
        2,
        "per-sequence ratios below one half plus pair identities",
        ok,
        f"max ratio {worst_all:.9f}, |44-422| {d1:.2e}, |434-4322| {d2:.2e}",
    )


def test_03_reflection_symmetry_suite():
    rng = np.random.default_rng([100, 3])
    worst = 0.0
    for _ in range(100000):
        b = random_bracket5(rng)
        rb = reflect(b)
        assert reflect(rb).x == b.x and reflect(rb).fv == b.fv
        worst = max(worst, verify.reflection_deviation(b))
    ok = worst <= verify.REFLECTION_BOUND
    report(3, "reflection symmetry identities", ok, f"worst {worst:.3f} of tolerance")


def test_04_underestimation_and_interior_selection():
    rng = np.random.default_rng([100, 4])
    margin = 0.5
    grid = np.arange(1000)
    interior_ok = True
    below_ok = True
    for _ in range(1000):
        f, fl, fr, k, radius = kink_objective(rng)
        b = kink_bracket(rng, f, k, radius)
        # quadratic pieces have constant second derivative, so their
        # curvature-variation constants vanish and any positive margin works
        alpha = 0.5 * max(0.0, 0.0) + margin
        ql = build_model("L", b, alpha)
        qr = build_model("R", b, alpha)
        span = b.xr1 - b.xl1
        xs_right = b.xl1 + span * grid / 1000.0          # [xl1, xr1)
        xs_left = b.xl1 + span * (grid + 1) / 1000.0     # (xl1, xr1]
        below_ok &= bool(np.all(model_value(qr, xs_right) < fr(xs_right)))
        below_ok &= bool(np.all(model_value(ql, xs_left) < fl(xs_left)))
        g = supm_step(Flanks(b.x, b.fv), alpha)
        interior_ok &= b.xl1 < g < b.xr1
    ok = below_ok and interior_ok
    report(
        4,
        "adjusted models underestimate their pieces; step stays interior",
        ok,
        f"below={below_ok} interior={interior_ok}",
    )


def test_05_extremal_limit_of_the_adjusted_step():
    rng = np.random.default_rng([100, 5])
    worst = 0.0
    for _ in range(10000):
        b = random_bracket7(rng, gap_range=(2.0, 4.0), centre_range=(-5.0, 5.0))
        err = abs(supm_step(Flanks(b.x, b.fv), 1e8) - eupm_step(inner5(b).x)) / inner_length(b)
        worst = max(worst, err)
    ok = worst <= 1e-8
    report(5, "huge-constant step matches the closed form", ok, f"worst {worst:.2e} of d")


def test_06_golden_section_measured_rate():
    worst_dev = 0.0
    for fid in ("SU1", "NU1"):
        func = get_function(fid)
        for t in range(100):
            rng = np.random.default_rng([100, 6, t])
            b = generate_bracket(func, rng)
            res = golden_section_minimize(oracle_for(func), inner3(b))
            assert res.status is Status.CONVERGED
            worst_dev = max(worst_dev, abs(convergence_rate(res) - 0.618))
    ok = worst_dev <= 0.005
    report(6, "golden section rate is 0.618", ok, f"worst deviation {worst_dev:.2e}")


def test_07_nonsmooth_table_qualitative():
    t0 = time.perf_counter()
    functions = ("NU1", "NU2", "NU3", "NU4", "NU5")
    cfg = TrialConfig(
        functions=functions,
        algorithms=("supm:0", "dupm", "brent"),
        trials=1000,
        seed=0,
    )
    rep = run_benchmark(cfg, jobs=2)
    dupm_finite = all(math.isfinite(rep.cell(f, "dupm").mean_rate) for f in functions)
    dupm_beats_brent = all(
        rep.cell(f, "dupm").mean_rate < rep.cell(f, "brent").mean_rate
        for f in ("NU1", "NU2", "NU3", "NU4")
    )
    plain_fails = any(math.isinf(rep.cell(f, "supm:0").mean_rate) for f in functions)
    elapsed = time.perf_counter() - t0
    ok = dupm_finite and dupm_beats_brent and plain_fails and elapsed < 600.0
    report(
        7,
        "nonsmooth-suite orderings",
        ok,
        f"dupm finite={dupm_finite}, dupm<brent={dupm_beats_brent}, "
        f"alpha0 fails={plain_fails}, {elapsed:.0f}s",
    )


def test_08_smooth_table_qualitative():
    functions = ("SU1", "SU2", "SU3", "SU4", "SU5", "SU6", "SU7")
    cfg = TrialConfig(functions=functions, trials=1000, seed=0)
    rep = run_benchmark(cfg, jobs=2)
    eupm_band = all(0.55 <= rep.cell(f, "eupm").mean_rate <= 0.70 for f in functions)
    offending = []
    for f in functions:
        brent = rep.cell(f, "brent").mean_rate
        for spec in PAPER_ALGORITHMS:
            if spec != "brent" and rep.cell(f, spec).mean_rate < brent:
                offending.append((f, spec, rep.cell(f, spec).mean_rate, brent))
    brent_fastest = not offending
    ok = eupm_band and brent_fastest
    report(
        8,
        "smooth-suite orderings",
        ok,
        f"eupm in [0.55,0.70]={eupm_band}, brent fastest={brent_fastest}"
        + (f", beaten by {offending} (known honest failure, see the SU1 table in CHANGES.md)" if offending else ""),
    )


def test_09_stall_regression():
    pts = (-1.811263, -2.171330, -2.23927, 1.820150, 2.102197, 2.293404, 2.334091)
    res, _ = minimize_once("NU3", "supm:0", bracket_points=pts)
    ok = res.status is Status.BUDGET_EXHAUSTED
    report(
        9,
        "plain adjusted solver stalls from the known bad start",
        ok,
        f"status={res.status.value} after {res.iterations} iterations",
    )


def test_10_model_intersection_anchor():
    # piecewise sine objective with kink at 0; the decreasing piece is
    # -sin(pi x / 2) (the printed example's sign does not reproduce its own
    # stated crossing; see the figure-1 sign entry in CHANGES.md)
    f = lambda x: max(-math.sin(0.5 * math.pi * x), 1.0 - math.cos(0.5 * math.pi * x))
    pts = (-1.0, -0.9, -0.75, 0.0, 0.6, 0.8, 0.95)
    b = ExtendedBracket7(pts, tuple(f(p) for p in pts))
    g = supm_step(Flanks(b.x, b.fv), 0.0)
    ql = build_model("L", b, 0.0)
    qr = build_model("R", b, 0.0)
    xs = np.linspace(b.xl1, b.xr1, 10**6)
    mx = np.maximum(model_value(ql, xs), model_value(qr, xs))
    gstar = float(xs[int(np.argmin(mx))])
    cell = (b.xr1 - b.xl1) / (10**6 - 1)
    ok = abs(g - 0.005) <= 1e-3 and abs(g - gstar) <= cell
    report(
        10,
        "model crossing anchor and brute-force agreement",
        ok,
        f"step {g:.6f}, grid argmin {gstar:.6f}, cell {cell:.1e}",
    )


def test_11_invariant_suite_all_solvers():
    algorithms = PAPER_ALGORITHMS + ("golden",)
    violations = []
    upm_kinds = ("supm", "dupm", "eupm", "mifflin")
    for func in list_functions():
        for seed in range(10):
            rng = np.random.default_rng([100, 11, seed])
            bracket = generate_bracket(func, rng)
            for spec in algorithms:
                res = run_algorithm(
                    spec, oracle_for(func), bracket, 1e-8, 500, record_brackets=True
                )
                ds = [row[1] for row in res.trace]
                fs = [row[2] for row in res.trace]
                if any(d2 > d1 for d1, d2 in zip(ds, ds[1:])):
                    violations.append((func.fid, seed, spec, "d increased"))
                if any(f2 > f1 for f1, f2 in zip(fs, fs[1:])):
                    violations.append((func.fid, seed, spec, "f increased"))
                kind = spec.split(":")[0]
                if kind in upm_kinds:
                    for br in res.bracket_trace:
                        if not all(u < v for u, v in zip(br.x, br.x[1:])):
                            violations.append((func.fid, seed, spec, "order broken"))
                            break
                        c = br._CENTRE
                        if not (br.fv[c - 1] >= br.fv[c] <= br.fv[c + 1]):
                            violations.append((func.fid, seed, spec, "centre broken"))
                            break
                else:
                    for br in res.bracket_trace:
                        if isinstance(br, tuple) or not (br.xl <= br.xm <= br.xr):
                            violations.append((func.fid, seed, spec, "triple broken"))
                            break
                if spec == "dupm" and res.alphas:
                    if any(a2 < a1 for a1, a2 in zip(res.alphas, res.alphas[1:])):
                        violations.append((func.fid, seed, spec, "alpha decreased"))
    ok = not violations
    report(
        11,
        "solver trace invariants across the full registry",
        ok,
        f"{len(violations)} violations" + (f", first: {violations[0]}" if violations else ""),
    )
