"""Generalized Mathieu power series: evaluation and numerical
verification of close-to-convexity, starlikeness and half-plane
mapping properties on the unit disk."""

from .criteria import (
    CriterionReport,
    Status,
    check_fejer_halfplane,
    check_fejer_starlike,
    check_goodman,
    check_ozaki,
    fejer_kernel_sigma,
)
from .diskcheck import (
    DiskGrid,
    DiskReport,
    DiskStatus,
    Functional,
    verify_functional,
)
from .explorer import ThresholdRecord, bisect_failure_r, sweep
from .params import MathieuGeomError, ParamSet
from .series import (
    CoefficientSeq,
    EvalResult,
    Family,
    FunctionSequence,
    PanelRule,
    S_integral_rule,
    ZETA3,
    eval_S,
    eval_S_integral,
    eval_series,
)
from .thresholds import (
    INEQUALITY_CASES,
    ThresholdKind,
    A_of_x,
    A_tilde_of_x,
    digamma,
    threshold,
    trigamma,
    verify_inequality,
)

__version__ = "0.1.0"
