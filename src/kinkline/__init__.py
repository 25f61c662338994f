"""Derivative-free univariate minimization of piecewise-smooth functions.

Bracketing solvers built around a pair of one-sided quadratic
underestimators (fixed-constant, closed-form extremal and dynamically
escalated variants), the classic reference solvers they are benchmarked
against, a registry of scaled test functions, and a reproducible
benchmark harness.

The package namespace holds the entry points: the solvers, the bracket
types, the registry and the harness, with their errors.  The steps inside
the solvers, the model algebra and the gap engine are reached through
their modules, e.g. :func:`kinkline.brackets.apply_update`.
"""

from .brackets import (
    Bracket3,
    BracketError,
    BracketTooSmallError,
    ExtendedBracket5,
    ExtendedBracket7,
    InvariantBrokenError,
    NotABracketError,
    NotAscendingError,
    NotFiniteError,
    TrialAtCenterError,
    inner3,
    inner5,
)
from .models import CoincidentPointsError
from .result import SolverResult, Status
from .supm import (
    AdjustmentOverflowError,
    NonFiniteValueError,
    supm_minimize,
)
from .eupm import eupm_minimize
from .dupm import ChiConditionError, dupm_minimize
from .baselines import (
    brent_minimize,
    golden_section_minimize,
    mifflin_strodiot_minimize,
)
from .testfuncs import (
    Category,
    CountingOracle,
    OutOfDomainError,
    TestFunction,
    UnknownFunctionError,
    get_function,
    list_functions,
)
from .harness import (
    BenchmarkReport,
    BracketPointsError,
    TrialConfig,
    convergence_rate,
    generate_bracket,
    minimize_once,
    run_benchmark,
    run_sequence_experiment,
)

__version__ = "0.1.0"
