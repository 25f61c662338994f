import argparse
import contextlib
import functools
import io
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import kinkline
from kinkline import verify
from kinkline.cli import build_parser, main
from kinkline.harness import MAX_BITS, MAX_SAMPLES, SOLVERS, SUITES
from test_seeded_outputs import BENCH_ALL_3_TRIALS_SEED_0


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestListFunctions:
    def test_nineteen_lines(self, capsys):
        code, out, _ = run_cli(capsys, "list-functions")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 19
        assert lines[0].startswith("SU1 ")


class TestMinimize:
    def test_converging_run_exits_zero(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys,
            "minimize",
            "--function", "NU2",
            "--algorithm", "dupm",
            "--seed", "3",
            "--trace", str(trace),
        )
        assert code == 0
        assert "converged" in out
        lines = trace.read_text().splitlines()
        assert lines[1] == "iteration,xl1,xm,xr1,d,fm"

    def test_stalling_run_exits_one(self, capsys):
        # argparse accepts --brack for --bracket; the negative value must
        # still be read as its value
        for flag in ("--bracket", "--brack"):
            code, out, _ = run_cli(
                capsys,
                "minimize",
                "--function", "NU3",
                "--algorithm", "supm:0",
                flag,
                "-1.811263,-2.171330,-2.23927,1.820150,2.102197,2.293404,2.334091",
            )
            assert code == 1
            assert "budget_exhausted" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("NU3", "--bracket", "1,2,3"), "--bracket: need exactly 7 bracket points, got 3"),
            (
                ("NU3", "--bracket", "-1.9,-1.5,-1.2,x,0,0.5,1.0"),
                "--bracket: could not convert string to float: 'x'",
            ),
            (
                ("NU3", "--bracket", "-1.9,-1.5,-1.2,-1.0,0,0.5,1.0"),
                "--bracket: not a seven-point bracket: centre condition violated",
            ),
            (
                ("NU3", "--bracket", "-1.9,-1.5,-1.2,1.0,2.5,2.9,3"),
                "--bracket: NU3 cannot be evaluated at x=3.0",
            ),
            (("NU9",), "--function: unknown function 'NU9'"),
            (("NU3", "--algorithm", "newton"), "--algorithm: unknown algorithm spec 'newton'"),
            (
                ("NU3", "--algorithm", "supm:x"),
                "--algorithm: expected a finite alpha >= 0 after 'supm:', got 'x'",
            ),
            (
                ("SU5", "--bracket=-0.5,0.1,0.2,0.7,0.8,0.85,0.9"),
                "--bracket: SU5 cannot be evaluated at x=-0.5 (TypeError: ",
            ),
            (
                ("SM3", "--bracket=-0.5,0.1,0.2,0.25,0.3,0.5,0.9"),
                "--bracket: SM3 cannot be evaluated at x=-0.5 (TypeError: ",
            ),
            (
                ("SM5", "--bracket=1e200,2e200,3e200,4e200,5e200,6e200,7e200"),
                "--bracket: SM5 cannot be evaluated at x=1e+200 "
                "(ValueError: value inf is not finite)",
            ),
            (
                ("NU3", "--algorithm", "supm:1e308"),
                "--algorithm: alpha 1e+308 overflows: alpha * h is not finite on the "
                "starting bracket (h = 2.9602858795804474)",
            ),
            (("NU3", "--bracket", ""), "--bracket: could not convert string to float: ''"),
            (("NU3", "--trace", ""), "--trace: cannot write '': No such file or directory"),
            # NU3 is finite at inf, so the bracket refuses the point itself
            (
                ("NU3", "--bracket", "-1,-0.5,-0.2,0,0.2,0.5,inf"),
                "--bracket: not a seven-point bracket: point 6 is not finite: inf",
            ),
            # the closed-form step's products of two gaps would overflow
            (
                (
                    "NU2", "--algorithm", "eupm",
                    "--bracket", "-1e300,-5e299,-1e299,-3e298,1e299,5e299,1e300",
                ),
                "--bracket: not a seven-point bracket: span 2e+300 too wide: "
                "its square overflows",
            ),
            # a negative number in exponent form is read as the option's value
            (("NU3", "--eps", "-1e-3"), "--eps: expected a finite number > 0, got '-1e-3'"),
            (
                ("NU3", "--bracket", "-1e-1,-5e-2,0"),
                "--bracket: need exactly 7 bracket points, got 3",
            ),
            # and so is a negative non-finite number, in any case float reads
            (("NU3", "--eps", "-inf"), "--eps: expected a finite number > 0, got '-inf'"),
            (
                ("NU3", "--eps", "-Infinity"),
                "--eps: expected a finite number > 0, got '-Infinity'",
            ),
            (
                ("NU3", "--bracket", "-inf,-1,-0.5,0,0.5,1,2"),
                "--bracket: not a seven-point bracket: point 0 is not finite: -inf",
            ),
        ],
    )
    def test_invalid_input_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "minimize", "--function", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"kinkline minimize: error: {message}")
        assert err.count("\n") == 1

    def test_unwritable_trace_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "minimize", "--function", "NU2", "--trace", str(path))
        assert code == 2 and out == ""
        assert err == (
            f"kinkline minimize: error: --trace: cannot write {str(path)!r}: "
            "No such file or directory\n"
        )

    def test_console_entry_reads_negative_bracket_as_value(self, capsys, monkeypatch):
        # the console script calls main() with no arguments
        monkeypatch.setattr(
            "sys.argv",
            ["kinkline", "minimize", "--function", "NU3", "--bracket", "-1.9,-1.5,-1.2,1.0,2.5,2.9,3"],
        )
        assert main() == 2
        assert "NU3 cannot be evaluated at x=3.0" in capsys.readouterr().err

    def test_output_spells_function_and_algorithm_as_bench_does(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimize", "--function", "nu2", "--algorithm", "SUPM:1.0", "--trace", "-"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# kinkline minimize function=NU2 algorithm=supm:1 seed=0 ")
        assert lines[-1].startswith("NU2 supm:1: converged ")

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("KINKLINE_SEED", "11")
        code1, out1, _ = run_cli(capsys, "minimize", "--function", "SU1", "--algorithm", "brent")
        monkeypatch.setenv("KINKLINE_SEED", "12")
        code2, out2, _ = run_cli(capsys, "minimize", "--function", "SU1", "--algorithm", "brent")
        assert code1 == code2 == 0
        assert out1 != out2  # different seeds, different brackets


class TestBench:
    def test_nu_suite_csv(self, capsys, tmp_path):
        out_path = tmp_path / "nu.csv"
        code, _, _ = run_cli(
            capsys,
            "bench", "--suite", "nu", "--trials", "2", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "Functions,0,0.1,1,10,EUPM,DUPM,Brent,Mifflin"
        assert len(lines) == 2 + 5
        assert all(len(line.split(",")) == 9 for line in lines[2:])

    def test_seed_reproduces_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run_cli(
                capsys,
                "bench", "--functions", "NU5", "--trials", "2", "--seed", "4",
                "--out", str(p),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_skip_mifflin_drops_column_only(self, capsys, tmp_path):
        full, skipped = tmp_path / "full.csv", tmp_path / "skip.csv"
        run_cli(capsys, "bench", "--functions", "NU5", "--trials", "2", "--seed", "4",
                "--out", str(full))
        run_cli(capsys, "bench", "--functions", "NU5", "--trials", "2", "--seed", "4",
                "--skip", "mifflin", "--out", str(skipped))
        frow = full.read_text().splitlines()[2].split(",")
        srow = skipped.read_text().splitlines()[2].split(",")
        assert srow == frow[:-1]

    def test_unknown_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--nope")
        assert code == 2 and out == ""
        assert err == "kinkline: error: unrecognized arguments: --nope\n"

    @pytest.mark.parametrize(
        "functions, fid", [("XX1", "XX1"), ("SU1,,", ""), pytest.param("", "", id="empty")]
    )
    def test_unknown_function_is_usage_error(self, capsys, functions, fid):
        code, out, err = run_cli(capsys, "bench", "--functions", functions, "--trials", "1")
        assert code == 2 and out == ""
        assert err == f"kinkline bench: error: --functions: unknown function {fid!r}\n"

    def test_repeated_function_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--functions", "NU1,nu1", "--trials", "1")
        assert code == 2 and out == ""
        assert err == "kinkline bench: error: --functions: function 'NU1' listed twice\n"

    def test_parallel_run_prints_the_pinned_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "all", "--trials", "3", "--seed", "0", "--jobs", "2"
        )
        assert code == 0 and out == BENCH_ALL_3_TRIALS_SEED_0


    def test_unwritable_out_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def run_benchmark(*args, **kwargs):
            raise AssertionError("ran the benchmark before opening --out")

        monkeypatch.setattr("kinkline.cli.run_benchmark", run_benchmark)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "bench", "--out", str(path))
        assert code == 2 and out == ""
        assert err == (
            f"kinkline bench: error: --out: cannot write {str(path)!r}: "
            "No such file or directory\n"
        )


class TestSeqexp:
    def test_csv_written(self, capsys, tmp_path):
        out_path = tmp_path / "seq.csv"
        code, _, _ = run_cli(
            capsys, "seqexp", "--bits", "4", "--samples", "20", "--seed", "2",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "sequence,bits,eupm_rate,golden_rate"
        assert len(lines) == 2 + 16


    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "seqexp", "--bits", "2", "--out", str(path))
        assert code == 2 and out == ""
        assert err == (
            f"kinkline seqexp: error: --out: cannot write {str(path)!r}: "
            "No such file or directory\n"
        )


class TestVerify:
    def test_sequences_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--sequences", "--samples", "300", "--seed", "0")
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith("sequence")]
        assert len(body) == 12
        assert all("ok" in line for line in body)

    def test_full_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "300", "--seed", "0")
        assert code == 0
        assert "five-step contraction" in out and "reflection identities" in out

    @pytest.mark.parametrize(
        "check, bound, value",
        [
            ("--sequences", "SEQUENCE_BOUND", 0.1),
            ("--contraction", "CONTRACTION_BOUND", 0.1),
            ("--symmetry", "REFLECTION_BOUND", -1.0),
        ],
    )
    def test_reads_its_bounds_from_verify(self, capsys, monkeypatch, check, bound, value):
        # every ratio at 300 samples is above 0.1 and no deviation is below 0
        monkeypatch.setattr(verify, bound, value)
        code, out, _ = run_cli(capsys, "verify", check, "--samples", "300", "--seed", "0")
        body = [l for l in out.splitlines() if not l.startswith("sequence ")]
        assert code == 1
        assert body and all(line.endswith("  FAIL") for line in body)


@pytest.mark.parametrize(
    "argv, env_seed, flag",
    [
        (("verify", "--contraction", "--samples", "0"), None, "--samples"),
        (("verify", "--sequences", "--samples", "0"), None, "--samples"),
        (("seqexp", "--bits", "0"), None, "--bits"),
        (("seqexp", "--samples", "0"), None, "--samples"),
        (("bench", "--trials", "0"), None, "--trials"),
        (("bench", "--budget", "-5"), None, "--budget"),
        (("bench", "--jobs", "0"), None, "--jobs"),
        (("minimize", "--function", "NU3", "--budget", "0"), None, "--budget"),
        (("minimize", "--function", "NU3", "--eps", "0"), None, "--eps"),
        (("minimize", "--function", "NU3", "--eps", "nan"), None, "--eps"),
        (("minimize", "--function", "NU3", "--seed", "-1"), None, "--seed"),
        (("minimize", "--function", "NU3"), "abc", "--seed"),
        (("seqexp",), "-2", "--seed"),
        (("minimize", "--function", "NU3", "--algorithm", "supm:-1"), None, "--algorithm"),
        (("minimize", "--function", "NU3", "--algorithm", "supm:nan"), None, "--algorithm"),
        (("minimize", "--function", "NU3", "--algorithm", "supm:inf"), None, "--algorithm"),
        (("minimize", "--function", "NU3", "--eps", "inf"), None, "--eps"),
        (("seqexp", "--bits", "21"), None, "--bits"),
        (("seqexp", "--bits", "1", "--samples", "1000000000"), None, "--samples"),
        (("verify", "--contraction", "--samples", "1000000000"), None, "--samples"),
    ],
)
def test_out_of_range_number_is_usage_error(capsys, monkeypatch, argv, env_seed, flag):
    if env_seed is not None:
        monkeypatch.setenv("KINKLINE_SEED", env_seed)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"kinkline {argv[0]}: error: {flag}: expected ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (("frobnicate",), "kinkline: error: command: invalid choice: 'frobnicate' "),
        (
            ("minimize",),
            "kinkline minimize: error: the following arguments are required: --function",
        ),
        (("bench", "--suite", "xx"), "kinkline bench: error: --suite: invalid choice: 'xx' "),
    ],
    ids=["unknown-command", "missing-function", "unknown-suite"],
)
def test_argparse_refusal_is_one_error_line(capsys, argv, line):
    # argparse's own refusals print no usage block and raise no SystemExit
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(line)
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag", [(("-h",), "{list-functions,"), (("minimize", "-h"), "--bracket")]
)
def test_help_is_returned_by_main(capsys, argv, flag):
    # -h leaves main by the one exit path, as every command does
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert flag in out


def run_cli_process(argv, stdout, buffered):
    """Run the CLI in a child process with stdout on ``stdout``; return
    its exit code and stderr."""
    path = [str(Path(kinkline.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    run = subprocess.run(
        [sys.executable, "-m", "kinkline.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        timeout=60,
    )
    return run.returncode, run.stderr


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ("seqexp", "--bits", "8", "--samples", "10"),
        ("verify", "--sequences", "--samples", "300"),
        ("-h",),
        ("minimize", "-h"),
    ],
    ids=["seqexp", "verify", "help", "minimize-help"],
)
def test_closed_stdout_ends_without_traceback(argv, buffered):
    # the reading end is closed before the child starts, as ``| head -1``
    # closes it after one line, so the child's first write to it fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert run_cli_process(argv, write_end, buffered) == (141, "")
    finally:
        os.close(write_end)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (("list-functions",), "cannot write stdout"),
        (("verify", "--sequences", "--samples", "30"), "cannot write stdout"),
        (
            ("bench", "--functions", "NU1", "--trials", "1", "--out", "/dev/full"),
            "--out: cannot write '/dev/full'",
        ),
        (
            ("minimize", "--function", "NU2", "--trace", "/dev/full"),
            "--trace: cannot write '/dev/full'",
        ),
        (("-h",), "cannot write stdout"),
        (("minimize", "-h"), "cannot write stdout"),
    ],
    ids=[
        "stdout-list-functions", "stdout-verify", "bench-out", "minimize-trace",
        "stdout-help", "stdout-minimize-help",
    ],
)
def test_failed_write_is_one_error_line(argv, message, buffered):
    # a full device: every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        code, err = run_cli_process(argv, full, buffered)
    # the error names the subcommand the command line reached, if any
    prog = " ".join(["kinkline", *(word for word in argv[:1] if not word.startswith("-"))])
    assert code == 2
    assert err == f"{prog}: error: {message}: No space left on device\n"


def _readme_blocks():
    """The fenced code blocks of README.md, each from its info string on."""
    return (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```")[1::2]


def test_readme_commands_exit_zero(monkeypatch):
    lines = [
        line
        for block in _readme_blocks()
        for line in block.splitlines()
        if "python -m kinkline.cli " in line
    ]
    assert len(lines) >= 6
    for line in lines:
        words = shlex.split(line)
        at = words.index("kinkline.cli")
        for word in words[: at - 2]:  # the environment assignments before ``python -m``
            name, value = word.split("=", 1)
            if name != "PYTHONPATH":
                monkeypatch.setenv(name, value)
        assert main(words[at + 1 :]) == 0, line
        monkeypatch.undo()


def test_readme_python_examples_run(capsys):
    tag = "python\n"
    blocks = [block[len(tag) :] for block in _readme_blocks() if block.startswith(tag)]
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
    # the library example prints its run's status first
    assert capsys.readouterr().out.startswith("Status.CONVERGED ")


#: A file the drawn command line may name for --out or --trace, and a path
#: in a directory that does not exist.
_FILE, _MISSING = "<file>", "<missing>"
#: A bracket the closed-form step's products of two gaps overflow on.
_HUGE = "-1e300,-5e299,-1e299,-3e298,1e299,5e299,1e300"
#: Negative numbers in exponent form and with no digit before the point.
_NEGATIVE = ("-1e-3", "-.5", "-1e3")
#: Values drawn for each option of the parser: valid ones, boundaries (0,
#: 1, the largest a run here uses, one past the maximum), empty strings,
#: negative and non-finite numbers and unknown ids.  The values drawn keep
#: runs small: --trials at most 3, --samples at most 100, --bits at most 4,
#: --budget at most 50 and --jobs 1 or 2.
_OPTION_VALUES = {
    "--function": ("NU2", "nu3", "SU1", "NU9", ""),
    "--functions": ("NU1", "nu1,SU1", "NU1,nu1", "NU9", ""),
    "--algorithm": (*SOLVERS, "SUPM:0.1", "supm:-1", "supm:inf", "newton", ""),
    "--seed": ("0", "7", "-1", "x", *_NEGATIVE),
    "--eps": ("1e-8", "1e-3", "0", "-1", "nan", "inf", "-inf", "", *_NEGATIVE),
    "--budget": ("1", "50", "0", "-5", "", *_NEGATIVE),
    "--trials": ("1", "3", "0", "-1", "", *_NEGATIVE),
    "--samples": ("1", "100", "0", str(MAX_SAMPLES + 1), ""),
    "--bits": ("1", "4", "0", str(MAX_BITS + 1), ""),
    "--jobs": ("1", "2", "0", ""),
    "--bracket": (
        "-1.811263,-2.171330,-2.23927,1.820150,2.102197,2.293404,2.334091",
        _HUGE,
        "-1e308,-2,-1,0,1,2,1e308",
        "-1,-0.5,-0.2,0,0.2,0.5,inf",
        "-inf,-1,-0.5,0,0.5,1,2",
        "1,2,3",
        "",
    ),
    "--suite": (*SUITES, "xx"),
    "--skip": ("mifflin", "brent"),
    "--out": (_FILE, _MISSING, "-", ""),
    "--trace": (_FILE, _MISSING, "-", ""),
}
#: Options a run's size rests on, drawn on every command line that has them
#: so that no default (1,000 trials, 10 bits, 10,000 samples) runs.
_ALWAYS = {"--trials", "--bits", "--samples"}


@functools.cache
def _subcommands():
    """Each subcommand's options: the long flag and whether it takes a value."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [(a.option_strings[-1], a.nargs != 0) for a in p._actions if a.dest != "help"]
        for name, p in sub.choices.items()
    }


def test_every_option_has_drawn_values():
    flags = {flag for opts in _subcommands().values() for flag, takes in opts if takes}
    assert flags == set(_OPTION_VALUES)


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(_subcommands())))
    argv = [name]
    for flag, takes_value in draw(st.permutations(_subcommands()[name])):
        if not (flag in _ALWAYS or draw(st.booleans())):
            continue
        argv.append(flag)
        if takes_value:
            argv.append(draw(st.sampled_from(_OPTION_VALUES[flag])))
    return argv


@settings(max_examples=60, deadline=None)
@given(command_lines())
@example(["minimize", "--function", "NU2", "--algorithm", "eupm", "--bracket", _HUGE])
@example(["minimize", "--function", "NU2", "--bracket", _HUGE, "--trace", _FILE])
def test_drawn_command_lines_exit_by_the_documented_codes(argv):
    # exit 0, 1, 2 or 141 and never an exception, SystemExit included; a
    # usage error prints one error line and nothing else on stderr, and
    # leaves an existing --out or --trace file as it was
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kept.csv"
        path.write_text("kept\n")
        paths = {_FILE: str(path), _MISSING: str(Path(tmp) / "missing" / "x.csv")}
        argv = [paths.get(word, word) for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 141), argv
        event(f"{argv[0]}: exit {code}")
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and ": error: " in lines[0], (argv, err.getvalue())
            assert path.read_text() == "kept\n", argv
