"""Seeded outputs pinned byte for byte.

A change that must not alter any result (a refactor of the solver loops,
say) keeps every value here.  A change that alters results on purpose
updates the affected entries and lists them in CHANGES.md.
"""

import hashlib
import io

import pytest

from kinkline.cli import main
from kinkline.harness import PAPER_ALGORITHMS, minimize_once, write_trace_csv
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

#: SHA-256 of the stdout of the oracle-free commands ``verify --seed 0`` and
#: ``seqexp --seed 0`` at their default sample counts.
ORACLE_FREE_SEED_0_SHA256 = {
    "verify": "a9d79bb64e15c4db6ac1b0010289cf0187cef8ef6731659a47ce4ea6019a05f6",
    "seqexp": "6373e502ab0ee3f1d650aa261ca059a27063b17c474dbee8dbf608f5f84abef5",
}


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


def test_every_function_and_algorithm_at_seed_0():
    h = hashlib.sha256()
    for f in list_functions():
        for spec in PAPER_ALGORITHMS + ("golden",):
            res, _ = minimize_once(f.fid, spec, seed=0)
            buf = io.StringIO()
            write_trace_csv(res, buf)
            h.update(f"{f.fid} {spec} {res.status.value} {res.evaluations}\n".encode())
            h.update(buf.getvalue().encode())
    assert h.hexdigest() == ALL_RUNS_SEED_0_SHA256


@pytest.mark.parametrize("command", sorted(ORACLE_FREE_SEED_0_SHA256))
def test_oracle_free_outputs(capsys, command):
    assert main([command, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_FREE_SEED_0_SHA256[command]
