"""Common solver result container."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .brackets import Bracket


class Status(enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    #: The bracket is still wider than the tolerance but has no room left
    #: for a new trial point (``BracketTooSmallError``).
    STALLED = "stalled"


@dataclass
class SolverResult:
    """Outcome of one solver run, built by :func:`~kinkline.supm.run_solver`.

    ``evaluations`` is that loop's count of oracle calls.  ``trace`` has
    one ``(iteration, inner_length, f_at_incumbent)`` row per iteration from
    row 0 for the initial bracket; both columns are non-increasing.

    ``branches`` (update rule per iteration, numbered by
    :func:`~kinkline.brackets.apply_update`), ``alphas`` (adjustment constant
    per iteration, dynamic solver only) and ``bracket_trace`` (full bracket
    per iteration, opt-in) exist for diagnostics and invariant checks.
    """

    bracket: Bracket
    iterations: int
    evaluations: int
    trace: list[tuple[int, float, float]]
    status: Status
    branches: list[int] | None = None
    alphas: list[float] | None = None
    bracket_trace: list | None = None

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED
