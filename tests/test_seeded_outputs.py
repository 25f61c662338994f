"""Seeded outputs pinned byte for byte.

A change that must not alter any result (a refactor of the solver loops,
say) keeps every value here.  A change that alters results on purpose
updates the affected entries and lists them in CHANGES.md.

Four of them are also kept readable in ``tests/pins/``, and each test
compares that text before its hash, so a changed result shows where it
moved: the run of every function and algorithm at seed 0
(``all_runs_seed_0.txt``, one line per run with its status, counts, final
inner triple and trace hash; a mismatch names the run and field), the
DUPM constants of those runs (``dupm_alphas_seed_0.txt``, one line per
function with the count, the last constant and a hash; a mismatch names
the function and field), and the stdout of ``verify --seed 0`` and of
``bench --suite all --trials 30 --seed 0`` as it is (a mismatch quotes the
first differing line).  After a change on purpose, rewrite all four with

    PYTHONPATH=src python tests/test_seeded_outputs.py

and commit their diff with the updated hashes below.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from kinkline import harness
from kinkline.cli import main
from kinkline.harness import PAPER_ALGORITHMS, generate_bracket, minimize_once, write_trace_csv
from kinkline.testfuncs import list_functions

BENCH_ALL_3_TRIALS_SEED_0 = """\
# kinkline bench seed=0 trials=3 eps=1e-08 budget=500
Functions,0,0.1,1,10,EUPM,DUPM,Brent,Mifflin
SU1,0.203388,0.320026,0.400560,0.470996,0.615172,0.533981,0.373592,0.607046
SU2,0.675636,0.615731,0.618716,0.614431,0.614925,0.596387,0.300970,0.723011
SU3,inf,0.349560,0.457321,0.494946,0.619199,0.534564,0.279555,inf
SU4,0.790338,0.559660,0.585155,0.584320,0.582874,0.593384,0.472269,inf
SU5,0.260603,0.432860,0.491320,0.547293,0.612297,0.566525,0.307408,0.595913
SU6,0.290154,0.495684,0.573137,0.573381,0.619459,0.546973,0.309369,0.612812
SU7,0.231825,0.348846,0.429618,0.508962,0.610831,0.574062,0.283494,0.597531
NU1,inf,0.098790,0.175919,0.229272,0.615176,0.244530,0.484189,inf
NU2,inf,0.277722,0.314814,0.371148,0.616461,0.406965,0.617946,inf
NU3,inf,0.318931,0.344089,0.377154,0.624270,0.328168,0.628022,0.249916
NU4,inf,0.317064,0.375012,0.401968,0.609415,0.264782,0.595388,0.287571
NU5,inf,0.311371,0.340694,0.376968,0.600937,0.314987,0.456372,0.295489
SM1,inf,0.627168,0.606301,0.602134,0.603697,0.597822,0.420294,inf
SM2,inf,0.433444,0.480603,0.525112,0.608694,0.572872,0.185392,inf
SM3,inf,0.476369,0.503480,0.551452,0.629764,0.600364,0.213714,inf
SM4,inf,0.290954,0.396067,0.450044,0.597619,0.533629,0.314669,inf
SM5,inf,0.375771,0.414745,0.456466,0.587705,0.569233,0.260046,inf
SM6,0.329647,0.502621,0.521117,0.566639,0.616088,0.575429,0.331851,inf
SM7,0.347332,0.378181,0.453505,0.510949,0.620823,0.581263,0.208549,inf
"""

#: SHA-256 of ``minimize --function NU2 --seed 3 --trace`` per algorithm.
NU2_SEED_3_TRACE_SHA256 = {
    "supm:0": "3cffbf462ac5c080d18c7cb895b611f0d52a37d0c1ae837627693152f0b6b1da",
    "supm:0.1": "8d74a11335f875e9c88ca36dae669232128929fb3f5a1a7b2de69070c0fcf52f",
    "supm:1": "0cd85af0567f44c1fb3621d25757d21d377ede1312f05410a3f88573a1ae55de",
    "supm:10": "6845213044d4e9ad74799ee2d821c854e97420714d5f0e85f593d28b7e7c6d3b",
    "eupm": "7d140237cd581df36cefd269f55e3e04e84294ceb75b6a18c85540c5fa6ba00f",
    "dupm": "032df2d3b76c253dbbffd907b63c25a76c3570598eff473f3a61d9931ffc2cab",
    "brent": "c8b47f407899c3565f97d29f231eb174345f07c0af14d95c4245dec6023b7939",
    "mifflin": "a3ba88a03144dceb699ee8b06a5e2d5d35a625061c634d3ba4f317a05a178f2c",
    "golden": "bb4fbcf681469d614df2a63778826786ae607fdbe334ee8360b9a2f9e3edd002",
}

#: SHA-256 over the trace CSV, status and evaluations of every registered
#: function x algorithm at seed 0 (19 x 9 runs, in registry and table order).
ALL_RUNS_SEED_0_SHA256 = "477ea99f19df627511d282b1af4f374f62f644785b5be5b63e921a5d5c5a1538"

#: SHA-256 over ``f"{fid}:{res.alphas!r}\n"`` of every registered function's
#: DUPM run at seed 0 (19 runs, 574 constants, in registry order).
DUPM_ALPHAS_SEED_0_SHA256 = "557bcb26582948e403aa3df0bd18d60d5ab3bae37fff38ad1da855732c644ecf"

#: SHA-256 over ``repr(b.x)`` and ``repr(b.fv)`` of every starting bracket of
#: ``bench --suite all --trials 30 --seed 0`` (19 x 30 brackets, functions in
#: registry order, trials ascending), then of every function's
#: ``minimize_once`` bracket at seed 0.  The bench CSV prints six decimals,
#: so it can hide a last-bit change in a bracket; this cannot.
BRACKET_STREAM_SEED_0_SHA256 = "bbe542295ca3019790b92d0d2904f47afcf9b5d8bccc53a256f012461650fedb"

#: SHA-256 of the stdout of the oracle-free commands ``verify --seed 0`` and
#: ``seqexp --seed 0`` at their default sample counts.
ORACLE_FREE_SEED_0_SHA256 = {
    "verify": "a9d79bb64e15c4db6ac1b0010289cf0187cef8ef6731659a47ce4ea6019a05f6",
    "seqexp": "6373e502ab0ee3f1d650aa261ca059a27063b17c474dbee8dbf608f5f84abef5",
}

#: SHA-256 of the stdout of ``bench --suite all --trials 30 --seed 0``.
BENCH_ALL_30_TRIALS_SEED_0_SHA256 = (
    "0353e2d784f548b901b29d591ca0499a572f377865b8c14214e6b9d42b7e7284"
)

PINS = Path(__file__).parent / "pins"
BENCH_30_ARGS = ("bench", "--suite", "all", "--trials", "30", "--seed", "0")
#: Command lines whose stdout is kept as text in ``pins/``.
COMMAND_PINS = {
    ("verify", "--seed", "0"): PINS / "verify_seed_0.txt",
    BENCH_30_ARGS: PINS / "bench_all_30_seed_0.csv",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(argv):
    """What ``kinkline`` writes to stdout for ``argv``, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def test_bench_csv(capsys):
    assert main(["bench", "--suite", "all", "--trials", "3", "--seed", "0"]) == 0
    assert capsys.readouterr().out == BENCH_ALL_3_TRIALS_SEED_0


@pytest.mark.parametrize("spec", sorted(NU2_SEED_3_TRACE_SHA256))
def test_minimize_trace(capsys, tmp_path, spec):
    trace = tmp_path / "trace.csv"
    main(["minimize", "--function", "NU2", "--algorithm", spec, "--seed", "3",
          "--trace", str(trace)])
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == NU2_SEED_3_TRACE_SHA256[spec]


#: The readable form of the same runs, one line of these fields per run.
ALL_RUNS_FIELDS = ("function", "spec", "status", "iterations", "evaluations",
                   "xl1", "xm", "xr1", "fm", "trace_sha256")
ALL_RUNS_PIN = PINS / "all_runs_seed_0.txt"
#: The readable form of the DUPM constants, one line of these fields per function.
DUPM_ALPHAS_FIELDS = ("function", "count", "last_alpha", "alphas_sha256")
DUPM_ALPHAS_PIN = PINS / "dupm_alphas_seed_0.txt"


def all_runs_at_seed_0():
    """The hash over every run at seed 0 and one summary line per run, and
    the hash over the DUPM runs' constants and one line per DUPM run."""
    h, ha = hashlib.sha256(), hashlib.sha256()
    lines, alpha_lines = [" ".join(ALL_RUNS_FIELDS)], [" ".join(DUPM_ALPHAS_FIELDS)]
    for f in list_functions():
        for spec in PAPER_ALGORITHMS + ("golden",):
            res, _ = minimize_once(f.fid, spec, seed=0)
            buf = io.StringIO()
            write_trace_csv(res, buf)
            csv = buf.getvalue()
            h.update(f"{f.fid} {spec} {res.status.value} {res.evaluations}\n".encode())
            h.update(csv.encode())
            b = res.bracket
            lines.append(f"{f.fid} {spec} {res.status.value} {res.iterations} {res.evaluations} "
                         f"{b.xl1!r} {b.xm!r} {b.xr1!r} {b.fm!r} {sha256(csv)}")
            if spec == "dupm":
                alphas = repr(res.alphas)
                ha.update(f"{f.fid}:{alphas}\n".encode())
                last = res.alphas[-1] if res.alphas else None
                alpha_lines.append(f"{f.fid} {len(res.alphas)} {last!r} {sha256(alphas)}")
    return (h.hexdigest(), lines), (ha.hexdigest(), alpha_lines)


def first_difference(lines, pinned, key=0):
    """Where ``lines`` first part from ``pinned``.  For lines of fields
    under a header line that names them, the first ``key`` of which name
    the line: that line and the field.  With ``key=0``: the line number and
    both lines."""
    for n, (got, want) in enumerate(zip(lines, pinned), 1):
        if got != want:
            if not key:
                return f"line {n} is {got!r}, pinned {want!r}"
            g, w = got.split() + ["(none)"], want.split() + ["(none)"]
            k = next(k for k, (u, v) in enumerate(zip(g, w)) if u != v)
            fields = pinned[0].split()
            name = fields[k] if k < len(fields) else f"field {k}"
            return f"{' '.join(g[:key])}: {name} is {g[k]}, pinned {w[k]}"
    return f"{len(lines)} lines, pinned {len(pinned)}"


def assert_pin(lines, pin, key=0):
    pinned = pin.read_text().splitlines()
    assert lines == pinned, first_difference(lines, pinned, key)


def test_every_function_and_algorithm_at_seed_0():
    # the DUPM constants come from the same runs, so they are checked here too
    (digest, lines), (alphas_digest, alpha_lines) = all_runs_at_seed_0()
    assert_pin(lines, ALL_RUNS_PIN, key=2)
    assert digest == ALL_RUNS_SEED_0_SHA256
    assert_pin(alpha_lines, DUPM_ALPHAS_PIN, key=1)
    assert alphas_digest == DUPM_ALPHAS_SEED_0_SHA256


def test_bracket_stream_at_seed_0():
    h = hashlib.sha256()
    functions = list_functions()
    for k, f in enumerate(functions):
        for t in range(30):
            rng = np.random.default_rng([0, harness._BENCH_STREAM, k, t])
            b = generate_bracket(f, rng)
            h.update(f"{b.x!r}{b.fv!r}\n".encode())
    for f in functions:
        _, b = minimize_once(f.fid, "golden", seed=0)
        h.update(f"{b.x!r}{b.fv!r}\n".encode())
    assert h.hexdigest() == BRACKET_STREAM_SEED_0_SHA256


@pytest.mark.parametrize("command", sorted(ORACLE_FREE_SEED_0_SHA256))
def test_oracle_free_outputs(command):
    argv = (command, "--seed", "0")
    out = stdout_of(argv)
    if argv in COMMAND_PINS:
        assert_pin(out.splitlines(), COMMAND_PINS[argv])
    assert sha256(out) == ORACLE_FREE_SEED_0_SHA256[command]


def test_bench_csv_at_30_trials():
    out = stdout_of(BENCH_30_ARGS)
    assert_pin(out.splitlines(), COMMAND_PINS[BENCH_30_ARGS])
    assert sha256(out) == BENCH_ALL_30_TRIALS_SEED_0_SHA256


if __name__ == "__main__":
    PINS.mkdir(exist_ok=True)
    (_, lines), (_, alpha_lines) = all_runs_at_seed_0()
    ALL_RUNS_PIN.write_text("\n".join(lines) + "\n")
    DUPM_ALPHAS_PIN.write_text("\n".join(alpha_lines) + "\n")
    for argv, pin in COMMAND_PINS.items():
        pin.write_text(stdout_of(argv))
