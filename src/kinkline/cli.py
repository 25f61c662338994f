"""Command-line front end.

Subcommands: ``minimize`` (one seeded run with optional trace dump),
``bench`` (the rate tables), ``seqexp`` (the oracle-free bit-pattern
experiment), ``verify`` (the per-sequence ratio, contraction and symmetry
checks of :mod:`kinkline.verify`) and ``list-functions``.  Every subcommand
is deterministic for a given ``--seed``; the ``KINKLINE_SEED`` environment
variable supplies a fallback seed.  Output spells functions and algorithms
one way: registry ids and :func:`~kinkline.harness.canonical_algorithm`
specs.  Each option's text is converted by its argparse type, where it is
parsed.  Exit codes: 0 success, 1 solver or check failure, 2 usage error or
a failed write to stdout, ``--out`` or ``--trace`` (such as on a full
disk), 141 stdout closed early (``| head``; 128 + SIGPIPE, as a shell
reports a command it ended).  Every refusal, argparse's own included, is
one ``<prog>: error: <flag>: <reason>`` line on stderr, with no usage
block, and :func:`main` returns 2.  A token that starts like a negative
number (``-1e-3``, ``-.5``, ``-1.8,-2.1,...``) is read as a value after any
option.  :func:`main` returns every exit code, ``-h`` included: it never
raises ``SystemExit``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

import numpy as np

from . import verify
from .harness import (
    MAX_BITS,
    MAX_SAMPLES,
    PAPER_ALGORITHMS,
    SOLVERS,
    SUITES,
    BracketPointsError,
    TrialConfig,
    canonical_algorithm,
    minimize_once,
    run_benchmark,
    run_sequence_experiment,
    write_benchmark_csv,
    write_sequence_csv,
    write_trace_csv,
)
from .supm import AdjustmentOverflowError
from .testfuncs import UnknownFunctionError, get_function, list_functions


def _checked(convert, ok, wanted: str):
    """argparse type: ``convert(text)``, refused unless ``ok`` holds for it."""

    def parse(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")

    return parse


def _converted(convert):
    """argparse type: ``convert(text)``, refused with its ValueError's message."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _function_id(text: str) -> str:
    """argparse type of a function id: the registry's canonical id."""
    try:
        return get_function(text).fid
    except UnknownFunctionError:
        raise argparse.ArgumentTypeError(f"unknown function {text!r}") from None


class _UsageError(Exception):
    """Refused input: :func:`main` prints ``<prog>: error: <message>`` as
    the one line on stderr and returns the usage exit code 2.  ``prog`` is
    the parser that refused; ``None``, for input refused while the command
    runs, stands for ``kinkline <command>``."""

    def __init__(self, message: str, prog: str | None = None):
        super().__init__(message)
        self.prog = prog


class _Parser(argparse.ArgumentParser):
    """A parser, and the type of its subparsers, that refuses by raising
    :class:`_UsageError` instead of printing its usage and exiting, and
    that reads a token starting like a negative number (``-`` then a digit,
    ``-.`` then a digit, or ``-inf``, ``-infinity`` or ``-nan`` in any case,
    as ``float`` reads them) as a value, whatever option it follows.  ``-h``
    writes the help where a failed write reaches :func:`main`; argparse then
    ends the parse by ``SystemExit``, which :func:`main` turns into 0."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf(inity)?|nan)\b)", re.I)

    def error(self, message):
        raise _UsageError(message.removeprefix("argument "), self.prog)

    def print_help(self, file=None):
        # argparse's own drops a failed write
        (file or sys.stdout).write(self.format_help())


@contextlib.contextmanager
def _open_out(flag: str, path: str | None):
    """Context manager for an output option: stdout for no path or ``-``,
    else the file opened for writing.  A file that cannot be opened or
    written raises :class:`_UsageError`; a failed stdout is :func:`main`'s."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w") as out:
            yield out
    except OSError as exc:
        raise _UsageError(f"{flag}: cannot write {path!r}: {exc.strerror}") from exc


def _cmd_list_functions(args) -> int:
    for f in list_functions():
        a, b = f.domain
        print(f"{f.fid}  {f.category.value}  [{a:g}, {b:g}]  {f.formula}")
    return 0


def _cmd_minimize(args) -> int:
    try:
        result, _ = minimize_once(
            args.function, args.algorithm, args.seed, args.eps, args.budget, args.bracket
        )
    except BracketPointsError as exc:
        raise _UsageError(f"--bracket: {exc}") from exc
    except AdjustmentOverflowError as exc:
        raise _UsageError(f"--algorithm: {exc}") from exc
    # opened after the run, which takes milliseconds, so that a bracket or
    # alpha the run refuses leaves an existing trace file as it was
    if args.trace is not None:
        with _open_out("--trace", args.trace) as out:
            write_trace_csv(
                result,
                out,
                header=f"kinkline minimize function={args.function} "
                f"algorithm={args.algorithm} seed={args.seed} eps={args.eps:g} "
                f"budget={args.budget}",
            )
    _, d, fm = result.trace[-1]
    print(
        f"{args.function} {args.algorithm}: {result.status.value} "
        f"iterations={result.iterations} evaluations={result.evaluations} "
        f"d={d:.3e} f={fm:.10g}"
    )
    return 0 if result.converged else 1


def _cmd_bench(args) -> int:
    algorithms = tuple(s for s in PAPER_ALGORITHMS if s not in (args.skip or ()))
    try:
        cfg = TrialConfig(
            functions=args.functions or SUITES[args.suite],
            algorithms=algorithms,
            trials=args.trials,
            eps=args.eps,
            budget=args.budget,
            seed=args.seed,
        )
    except ValueError as exc:  # a repeated id: argparse has checked ids and numbers
        raise _UsageError(f"--functions: {exc}") from exc
    with _open_out("--out", args.out) as out:
        report = run_benchmark(cfg, jobs=args.jobs)
        write_benchmark_csv(report, out, latex_labels=args.latex_labels)
    return 0


def _cmd_seqexp(args) -> int:
    with _open_out("--out", args.out) as out:
        rows = run_sequence_experiment(bits=args.bits, samples=args.samples, seed=args.seed)
        write_sequence_csv(rows, out, seed=args.seed, samples=args.samples)
    return 0


def _cmd_verify(args) -> int:
    run_all = not (args.sequences or args.contraction or args.symmetry)
    ok = True
    if args.sequences or run_all:
        rng = np.random.default_rng([args.seed, 4])
        print("sequence   feasible      max ratio")
        for seq, (got, worst) in verify.minimal_sequence_ratios(rng, args.samples).items():
            good = worst < verify.SEQUENCE_BOUND
            ok &= good
            label = "".join(map(str, seq))
            print(f"{label:<10} {got:>8}  {worst:.12f}  {'ok' if good else 'FAIL'}")
    if args.contraction or run_all:
        rng = np.random.default_rng([args.seed, 5])
        worst, worst_seq, _ = verify.five_step_contraction(rng, args.samples)
        good = worst <= verify.CONTRACTION_BOUND
        ok &= good
        print(
            f"five-step contraction: max ratio {worst:.12f} "
            f"at {''.join(map(str, worst_seq))}  {'ok' if good else 'FAIL'}"
        )
    if args.symmetry or run_all:
        worst = verify.reflection_symmetry(np.random.default_rng([args.seed, 6]), args.samples)
        good = worst <= verify.REFLECTION_BOUND
        ok &= good
        print(f"reflection identities: worst deviation {worst:.3f} of tolerance  "
              f"{'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kinkline",
        description="Derivative-free univariate minimization of piecewise-smooth functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = _checked(int, lambda n: n >= 1, "an integer >= 1")
    seed = _checked(int, lambda n: n >= 0, "an integer >= 0 (--seed or KINKLINE_SEED)")
    positive = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
    samples = _checked(
        int, lambda n: 1 <= n <= MAX_SAMPLES, f"an integer from 1 to {MAX_SAMPLES}"
    )
    # argparse passes a string default through ``type``: KINKLINE_SEED is checked as --seed
    seed_default = os.environ.get("KINKLINE_SEED", "0")

    p = sub.add_parser("list-functions", help="print the test-function registry")
    p.set_defaults(func=_cmd_list_functions)

    p = sub.add_parser("minimize", help="one seeded run of one algorithm")
    p.add_argument(
        "--function", type=_function_id, required=True, help="test function id, e.g. NU3"
    )
    p.add_argument(
        "--algorithm",
        type=_converted(canonical_algorithm),
        default="dupm",
        help=f"{', '.join(SOLVERS)} or supm:<alpha> (alpha finite, >= 0), any case",
    )
    p.add_argument("--seed", type=seed, default=seed_default)
    p.add_argument("--eps", type=positive, default=1e-8)
    p.add_argument("--budget", type=count, default=500)
    p.add_argument("--trace", help="write the per-iteration trace CSV here")
    p.add_argument(
        "--bracket",
        type=_converted(lambda text: [float(tok) for tok in text.split(",")]),
        help="comma-separated list of 7 starting abscissae (sorted before use)",
    )
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("bench", help="average convergence-rate tables")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.add_argument(
        "--functions",
        type=lambda text: tuple(_function_id(tok.strip()) for tok in text.split(",")),
        help="comma-separated function ids (overrides --suite)",
    )
    p.add_argument("--trials", type=count, default=1000)
    p.add_argument("--eps", type=positive, default=1e-8)
    p.add_argument("--budget", type=count, default=500)
    p.add_argument("--seed", type=seed, default=seed_default)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument(
        "--skip",
        action="append",
        choices=["mifflin"],
        help="drop an algorithm column",
    )
    p.add_argument("--latex-labels", action="store_true")
    p.add_argument(
        "--jobs",
        type=count,
        default=1,
        help="parallel workers over (function, trial) units, at most one per unit "
        "and per usable CPU; same output",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("seqexp", help="bit-pattern contraction experiment")
    bits = _checked(int, lambda n: 1 <= n <= MAX_BITS, f"an integer from 1 to {MAX_BITS}")
    p.add_argument("--bits", type=bits, default=10)
    p.add_argument(
        "--samples",
        type=samples,
        default=1000,
        help=f"gap vectors per bit pattern, 1 to {MAX_SAMPLES:,}",
    )
    p.add_argument("--seed", type=seed, default=seed_default)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_seqexp)

    p = sub.add_parser(
        "verify",
        help="per-sequence ratio, contraction and symmetry checks",
        description="Oracle-free checks of the closed-form step; all three "
        "when none is chosen.",
    )
    p.add_argument("--sequences", action="store_true", help="per-sequence ratio bounds")
    p.add_argument("--contraction", action="store_true", help="exhaustive five-step bound")
    p.add_argument("--symmetry", action="store_true", help="reflection identities")
    p.add_argument(
        "--samples",
        type=samples,
        default=10000,
        help="--sequences: feasible gap vectors sought per sequence, and the draw "
        "size; --contraction: gap vectors drawn per five-step sequence; "
        f"--symmetry: brackets (1 to {MAX_SAMPLES:,})",
    )
    p.add_argument("--seed", type=seed, default=seed_default)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # the parse names the command here as soon as it reaches it, so that a
    # failed write of a subcommand's help names the subcommand too
    args = argparse.Namespace(command=None)
    try:
        try:
            build_parser().parse_args(argv, args)
        except SystemExit:  # -h: the help is written
            code = 0
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except _UsageError as exc:
        print(f"{exc.prog or f'kinkline {args.command}'}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout failed: drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left early
            return 141
        prog = " ".join(filter(None, ("kinkline", args.command)))
        print(f"{prog}: error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
