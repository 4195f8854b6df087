"""Shared parameter types and error hierarchy."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class MathieuGeomError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(MathieuGeomError, ValueError):
    """A parameter violates its domain constraint (e.g. mu <= 0)."""


class EvalDomainError(MathieuGeomError, ValueError):
    """An evaluation point is outside the domain (e.g. |z| >= 1)."""


class TruncationError(MathieuGeomError, ArithmeticError):
    """The requested tolerance was not reached within the term cap."""


class NumericError(MathieuGeomError, ArithmeticError):
    """A numeric procedure failed (overflow, non-convergent quadrature)."""


class NormalizationError(MathieuGeomError, ValueError):
    """A coefficient sequence is not normalized (a_1 != 1)."""


class HypothesisError(MathieuGeomError, ValueError):
    """Parameters violate a theorem hypothesis (e.g. mu below mu_min)."""


class DegeneratePointError(MathieuGeomError, ArithmeticError):
    """The function vanishes at a sample point where a ratio is needed."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class CoherenceError(MathieuGeomError, RuntimeError):
    """A probe failed where the sufficient condition guarantees success."""


class ConfigurationError(MathieuGeomError, ValueError):
    """Invalid run configuration (empty grid, unknown id, ...)."""


@dataclass(frozen=True)
class ParamSet:
    """The parameter pair (mu, r), finite and positive, with r^2 finite and
    (mu + 1)(1 + log(1 + r^2)) <= 2^53: log a_n is mu + 1 times a difference
    of logs rounded to about 2^-53 (1 + log(1 + r^2)), so past that bound the
    rounding alone moves log a_n by more than 1 and terms overflow."""

    mu: float
    r: float

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("r", self.r)):
            # a float passes the first test; the Real test alone costs about 1 us
            if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ParameterDomainError(f"{name} must be a real number, got {value!r}")
            if not value > 0:
                raise ParameterDomainError(f"{name} must be > 0, got {value}")
            if value == math.inf:
                raise ParameterDomainError(f"{name} must be finite, got {value}")
        if self.r * self.r == math.inf:
            raise ParameterDomainError(f"r must have a finite square, got {self.r}")
        if not (self.mu + 1.0) * (1.0 + math.log1p(self.r * self.r)) <= 2.0**53:
            raise ParameterDomainError(f"mu overflows the coefficient formula at r = {self.r}: "
                                       f"(mu + 1)(1 + log(1 + r^2)) > 2^53, got {self.mu}")


def comparison_slack(lhs, rhs):
    """Slack for floating-point chain comparisons, elementwise on arrays.

    All chain inequalities in this package are tested with margin
    >= -slack where slack = 1e-12 * max(1, |lhs|, |rhs|).
    """
    return 1e-12 * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


def count(name: str, value, least: int) -> int:
    """value as an int, if it is an integer (not a bool) >= least; else
    ConfigurationError."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
