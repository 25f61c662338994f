import os

import pytest

from kinkline.cli import main


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
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("functions, fid", [("XX1", "XX1"), ("SU1,,", "")])
    def test_unknown_function_is_usage_error(self, capsys, functions, fid):
        code, out, err = run_cli(capsys, "bench", "--functions", functions, "--trials", "1")
        assert code == 2 and out == ""
        assert err == f"kinkline bench: error: --functions: unknown function {fid!r}\n"


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
    ],
)
def test_out_of_range_number_is_usage_error(capsys, monkeypatch, argv, env_seed, flag):
    if env_seed is not None:
        monkeypatch.setenv("KINKLINE_SEED", env_seed)
    # argparse exits by SystemExit; minimize's own checks of --algorithm
    # return the exit code and word the line without argparse's "argument"
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    errors = [l for l in out.err.splitlines() if l.startswith(f"kinkline {argv[0]}: error:")]
    assert len(errors) == 1 and f"{flag}: expected " in errors[0]
