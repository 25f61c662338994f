"""Registry of the benchmark test functions and an oracle wrapper.

Nineteen scaled univariate functions in three categories: smooth unimodal
(SU1..SU7), non-smooth unimodal with a kink at the minimizer (NU1..NU5)
and smooth multimodal (SM1..SM7).  Scale factors keep the third-derivative
variation of each function at unit order so results are comparable across
the set.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

_SQRT_E = math.sqrt(math.e)
_PI = math.pi


class Category(enum.Enum):
    SMOOTH_UNIMODAL = "smooth_unimodal"
    NONSMOOTH_UNIMODAL = "nonsmooth_unimodal"
    SMOOTH_MULTIMODAL = "smooth_multimodal"


class UnknownFunctionError(KeyError):
    pass


class OutOfDomainError(ValueError):
    pass


@dataclass(frozen=True)
class TestFunction:
    fid: str
    category: Category
    domain: tuple[float, float]
    evaluator: Callable[[float], float]
    formula: str

    def __post_init__(self):
        if not self.domain[0] < self.domain[1]:
            raise ValueError(f"degenerate domain {self.domain!r}")

    def __call__(self, x: float) -> float:
        return self.evaluator(x)


def _su1(x):
    return -math.exp(-0.5 * x * x) / _SQRT_E


def _su2(x):
    return x**4 / 24.0


def _su3(x):
    return (-math.sin(2.0 * x - 0.5 * _PI) - 3.0 * math.cos(x) - 0.5 * x) / 11.0


def _su4(x):
    return (
        0.5 * x * x
        - math.cos(5.0 * _PI * x) / (25.0 * _PI * _PI)
        - x * math.sin(5.0 * _PI * x) / (5.0 * _PI)
    ) / 2500.0


def _su5(x):
    return -(x ** (2.0 / 3.0) + (1.0 - x * x) ** (1.0 / 3.0)) / 250.0


def _su6(x):
    return (math.exp(x) + 1.0 / math.sqrt(x)) / 6000.0


def _su7(x):
    return -(16.0 * x * x - 24.0 * x + 5.0) * math.exp(-x) / 13.0


def _nu1(x):
    return -60000.0 * math.exp(-abs(x) / 50.0)


def _nu2(x):
    v = 1.0 / (x + 3.0)
    if x > 0.0:
        v = max(v, math.log(x))
    return v / 6.0


def _nu3(x):
    return max(1.0 / (x + 3.0), 1.0 / (x - 3.0) ** 2) / 24.0


def _nu4(x):
    return max(1.0 / (x + 3.0), math.exp(x)) / 160.0


def _nu5(x):
    return max(math.exp(-x), math.exp(x)) / 150.0


def _sm1(x):
    if x == 0.0:
        return 0.0
    return x**6 * (2.0 + math.sin(1.0 / x)) / 300.0


def _sm2(x):
    return -math.sin(5.0 * _PI * x) ** 6 / 80000.0


def _sm3(x):
    return -math.sin(5.0 * _PI * (x**0.75 - 0.05)) ** 6 / 250000.0


def _sm4(x):
    s = math.sin(16.0 * x / 15.0 - 1.0)
    return (s + s * s) / 5.0


def _sm5(x):
    return x * x / 4000.0 - math.cos(x) + 1.0


def _sm6(x):
    return (math.log(x - 2.0) ** 2 + math.log(10.0 - x) ** 2 - x**0.2) / 71.0


def _sm7(x):
    return (math.sin(x) + math.sin(10.0 * x / 3.0) + math.log(x) + 0.84 * x) / 40.0


_SU = Category.SMOOTH_UNIMODAL
_NU = Category.NONSMOOTH_UNIMODAL
_SM = Category.SMOOTH_MULTIMODAL

_REGISTRY: dict[str, TestFunction] = {
    f.fid: f
    for f in (
        TestFunction("SU1", _SU, (-1.0, 1.0), _su1, "-exp(-x^2/2)/sqrt(e)"),
        TestFunction("SU2", _SU, (-1.0, 1.0), _su2, "x^4/24"),
        TestFunction(
            "SU3", _SU, (-2.5, 3.0), _su3, "(-sin(2x - pi/2) - 3cos(x) - x/2)/11"
        ),
        TestFunction(
            "SU4",
            _SU,
            (-10.0, 10.0),
            _su4,
            "(x^2/2 - cos(5 pi x)/(25 pi^2) - x sin(5 pi x)/(5 pi))/2500",
        ),
        TestFunction(
            "SU5", _SU, (0.1, 0.9), _su5, "-(x^(2/3) + (1 - x^2)^(1/3))/250"
        ),
        TestFunction("SU6", _SU, (0.1, 3.0), _su6, "(exp(x) + 1/sqrt(x))/6000"),
        TestFunction(
            "SU7", _SU, (1.3, 3.9), _su7, "-(16x^2 - 24x + 5) exp(-x)/13"
        ),
        TestFunction("NU1", _NU, (-32.0, 32.0), _nu1, "-60000 exp(-|x|/50)"),
        TestFunction("NU2", _NU, (-2.0, 10.0), _nu2, "max(1/(x + 3), log(x))/6"),
        TestFunction(
            "NU3", _NU, (-2.0, 2.0), _nu3, "max(1/(x + 3), 1/(x - 3)^2)/24"
        ),
        TestFunction("NU4", _NU, (-2.0, 5.0), _nu4, "max(1/(x + 3), exp(x))/160"),
        TestFunction("NU5", _NU, (-5.0, 5.0), _nu5, "max(exp(-x), exp(x))/150"),
        TestFunction("SM1", _SM, (-1.0, 1.0), _sm1, "x^6 (2 + sin(1/x))/300"),
        TestFunction("SM2", _SM, (-1.0, 1.0), _sm2, "-sin(5 pi x)^6/80000"),
        TestFunction(
            "SM3",
            _SM,
            (0.01, 1.0),
            _sm3,
            "-sin(5 pi (x^(3/4) - 1/20))^6/250000",
        ),
        TestFunction(
            "SM4",
            _SM,
            (-1.0, 1.0),
            _sm4,
            "(sin(16x/15 - 1) + sin(16x/15 - 1)^2)/5",
        ),
        TestFunction("SM5", _SM, (-100.0, 100.0), _sm5, "x^2/4000 - cos(x) + 1"),
        TestFunction(
            "SM6",
            _SM,
            (2.5, 9.5),
            _sm6,
            "(log(x - 2)^2 + log(10 - x)^2 - x^(1/5))/71",
        ),
        TestFunction(
            "SM7",
            _SM,
            (0.5, 10.0),
            _sm7,
            "(sin(x) + sin(10x/3) + log(x) + 21x/25)/40",
        ),
    )
}


def get_function(fid: str) -> TestFunction:
    try:
        return _REGISTRY[fid.upper()]
    except KeyError:
        raise UnknownFunctionError(fid) from None


def list_functions() -> list[TestFunction]:
    """All registered functions in canonical order (SU, NU, SM)."""
    return list(_REGISTRY.values())


class CountingOracle:
    """Wrap an evaluator over ``domain``, counting every call in
    ``evaluations``.

    Queries outside the domain raise :class:`OutOfDomainError`; a relative
    slack of 1e-12 of the domain width absorbs endpoint rounding.
    """

    def __init__(self, fn: Callable[[float], float], domain: tuple[float, float]):
        a, b = domain
        self._fn = fn
        self._lo = a - 1e-12 * (b - a)
        self._hi = b + 1e-12 * (b - a)
        self._domain = domain
        self.evaluations = 0

    def __call__(self, x: float) -> float:
        if not self._lo <= x <= self._hi:
            a, b = self._domain
            raise OutOfDomainError(f"x={x!r} outside [{a}, {b}]")
        v = self._fn(x)
        self.evaluations += 1
        return v


def oracle_for(f: TestFunction) -> CountingOracle:
    """Counting oracle over a registered function's own domain."""
    return CountingOracle(f.evaluator, f.domain)
