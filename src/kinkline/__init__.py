"""Derivative-free univariate minimization of piecewise-smooth functions.

Bracketing solvers built around a pair of one-sided quadratic
underestimators (fixed-constant, closed-form extremal and dynamically
escalated variants), the classic reference solvers they are benchmarked
against, a registry of scaled test functions, and a reproducible
benchmark harness.
"""

from .brackets import (
    Bracket3,
    BracketError,
    ExtendedBracket5,
    ExtendedBracket7,
    InvariantBrokenError,
    NotABracketError,
    NotAscendingError,
    TrialAtCenterError,
    apply_update,
    inner3,
    inner5,
    inner_length,
    make_extended5,
    make_extended7,
    outer_length,
    reflect,
)
from .models import (
    CoincidentPointsError,
    build_model,
    divided_diff1,
    divided_diff2,
    model_value,
    scaling_h,
)
from .result import SolverResult, Status
from .supm import (
    AdjustmentOverflowError,
    BracketTooSmallError,
    NonFiniteValueError,
    check_stop_rule,
    run_bracket_solver,
    run_solver,
    supm_minimize,
    supm_step,
)
from .eupm import (
    MINIMAL_SEQUENCES,
    bracket_check,
    eupm_minimize,
    eupm_step,
)
from .dupm import (
    ChiConditionError,
    alpha_floor,
    alpha_plus,
    chi,
    dupm_minimize,
    dupm_step,
    intersection_condition,
)
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
