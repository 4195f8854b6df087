"""Shared parameter types and error hierarchy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MathieuGeomError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(MathieuGeomError, ValueError):
    """A parameter violates its domain constraint (e.g. mu <= 0)."""


class EvalDomainError(MathieuGeomError, ValueError):
    """An evaluation point is outside the domain (e.g. |z| >= 1)."""


class TruncationError(MathieuGeomError, ArithmeticError):
    """The requested tolerance was not reached within the term cap.

    Carries the partial result in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


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
    """The parameter pair (mu, r), both required to be finite and positive."""

    mu: float
    r: float

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("r", self.r)):
            if value is None or not value > 0:
                raise ParameterDomainError(f"{name} must be > 0, got {value}")
            if value == math.inf:
                raise ParameterDomainError(f"{name} must be finite, got {value}")


def comparison_slack(lhs, rhs):
    """Slack for floating-point chain comparisons, elementwise on arrays.

    All chain inequalities in this package are tested with margin
    >= -slack where slack = 1e-12 * max(1, |lhs|, |rhs|).
    """
    return 1e-12 * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
