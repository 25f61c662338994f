"""Tests of the benchmark itself.

Run from the repository root with the library on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import io
import json
from pathlib import Path

import kinkline
from kinkline.harness import PAPER_ALGORITHMS, TrialConfig, run_benchmark, write_benchmark_csv

from perfbench.run import END_TO_END, drive, per_layer_names
from perfbench.tracer import Tracer
from perfbench.workloads import DupmKinks, PaperTable


def test_paper_table_loop_writes_the_bench_csv():
    functions = ("SU2", "NU3", "SM4")
    wl = PaperTable(kinkline, seed=7, trials=2, functions=functions)
    _, tally, _ = drive(wl, seconds=0.0)
    assert tally.failed == 0, tally.problems
    expected = io.StringIO()
    write_benchmark_csv(run_benchmark(TrialConfig(functions, trials=2, seed=7), jobs=1), expected)
    assert wl.table_csv() == expected.getvalue()


def test_tracing_changes_no_result_and_is_removed_afterwards():
    wl = DupmKinks(kinkline, seed=3, solves=10)
    _, plain, _ = drive(wl, seconds=0.0)
    tracer = Tracer()
    with tracer.installed(kinkline):
        _, traced, _ = drive(wl, seconds=0.0)
    assert (traced.iterations, traced.evaluations) == (plain.iterations, plain.evaluations)
    assert tracer.calls["testfuncs.oracle"] == traced.evaluations
    assert tracer.calls["dupm.escalate_alpha"] >= traced.iterations > 0
    assert kinkline.dupm.build_model is kinkline.models.build_model
    assert not hasattr(kinkline.supm.apply_update, "__wrapped__")


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names(PAPER_ALGORITHMS)
