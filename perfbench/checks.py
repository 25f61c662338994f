"""Correctness gate applied to every solve the benchmark makes.

Each check returns a list of problems; an empty list means the solve is
correct.  A solve with problems is counted as failed and the run goes on.
"""

from __future__ import annotations

#: Largest five-step contraction ratio the exhaustive check accepts.
FIVE_STEP_BOUND = 0.5 + 1e-12


def solve_problems(kl, result, oracle, budget: int, eps: float, upfront: int = 0) -> list[str]:
    """Check one solver result against the solver contract.

    ``upfront`` is the number of oracle calls a solver spends before its
    first iteration (two for golden section, none for the others).
    """
    problems = []
    if result.status not in tuple(kl.result.Status):
        problems.append(f"unknown status {result.status!r}")
    if not 0 <= result.iterations <= budget:
        problems.append(f"iterations {result.iterations} outside [0, {budget}]")
    trace = result.trace
    if len(trace) != result.iterations + 1:
        problems.append(f"trace has {len(trace)} rows for {result.iterations} iterations")
    for (_, d0, f0), (i, d1, f1) in zip(trace, trace[1:]):
        if d1 > d0 or f1 > f0:
            problems.append(f"trace increases at row {i}")
            break
    final_length = kl.brackets.inner_length(result.bracket)
    if result.status is kl.result.Status.CONVERGED and not final_length <= 2.0 * eps:
        problems.append(f"converged with inner length {final_length!r} > 2*eps")
    problems += bracket_problems(kl, result.bracket)
    if result.evaluations != result.iterations + upfront:
        problems.append(
            f"{result.evaluations} evaluations for {result.iterations} iterations"
        )
    if result.evaluations != oracle.evaluations:
        problems.append(
            f"result counts {result.evaluations} evaluations, oracle {oracle.evaluations}"
        )
    return problems


def bracket_problems(kl, b) -> list[str]:
    """Rebuild a bracket through its validating constructor."""
    br = kl.brackets
    try:
        if isinstance(b, br.Bracket3):
            br.Bracket3(b.xl, b.xm, b.xr, b.fl, b.fm, b.fr)
        else:
            type(b)(b.x, b.fv)
    except br.BracketError as exc:
        return [f"final bracket does not re-validate: {exc}"]
    return []


def trace_csv_problems(text: str, result) -> list[str]:
    """The rendered trace has a header, a column line and one row per
    trace entry."""
    lines = text.splitlines()
    if len(lines) != len(result.trace) + 2:
        return [f"trace CSV has {len(lines)} lines for {len(result.trace)} trace rows"]
    if lines[1] != "iteration,xl1,xm,xr1,d,fm":
        return [f"trace CSV column line is {lines[1]!r}"]
    return []


def seqexp_row_problems(row, bits: int, golden: float) -> list[str]:
    """One bit-pattern row of the sequence experiment."""
    pattern, nbits, rate, golden_rate = row
    problems = []
    if nbits != bits or len(pattern) != bits or set(pattern) - {"0", "1"}:
        problems.append(f"malformed pattern row {row!r}")
    if not 0.0 < rate < 1.0:
        problems.append(f"pattern {pattern} rate {rate!r} outside (0, 1)")
    if golden_rate != golden:
        problems.append(f"pattern {pattern} golden reference {golden_rate!r} != INVPHI")
    return problems
