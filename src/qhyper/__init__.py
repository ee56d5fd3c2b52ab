"""Exact-arithmetic toolkit for generalized q-hypergeometric polynomials.

Implements q-shifted factorials, truncated formal power series over exact
rationals, the Cauchy-basis q-difference operator calculus, basic
hypergeometric series in terminating, formal, and numeric regimes, the
polynomial families they generate, and a randomized verification engine that
checks every supported identity either coefficientwise or numerically.
"""

from .families import (
    FamilyPoint,
    ParamVector,
    VanishingPochhammerError,
    asc_phi,
    asc_psi,
    cao_phi3,
    cao_psi3,
    cauchy_P,
    gen_hahn,
    psi_general,
    psi_sweep,
    sa_phi,
    sa_psi,
    v_poly,
)
from .hyper import (
    DivergentSeriesError,
    rphis_series_in_t,
    rphis_terminating,
)
from .operators import (
    CauchyPoly,
    op_apply_series,
    theta_basis,
    theta_pointwise,
)
from .report import IdentityReport
from .scalars import (
    Rat,
    RootOfUnityError,
    ScalarOverflowError,
    qbinom,
    qpoch,
    qpoch_inf,
    qpoch_shift,
)
from .series import (
    TruncSeries,
    cauchy_ratio_series,
    euler_inverse_series,
    euler_product_series,
)
from .verify import RunConfig, list_suites, run_suite

__version__ = "0.1.0"

__all__ = [
    "CauchyPoly",
    "DivergentSeriesError",
    "FamilyPoint",
    "IdentityReport",
    "ParamVector",
    "Rat",
    "RootOfUnityError",
    "RunConfig",
    "ScalarOverflowError",
    "TruncSeries",
    "VanishingPochhammerError",
    "asc_phi",
    "asc_psi",
    "cao_phi3",
    "cao_psi3",
    "cauchy_P",
    "cauchy_ratio_series",
    "euler_inverse_series",
    "euler_product_series",
    "gen_hahn",
    "list_suites",
    "op_apply_series",
    "psi_general",
    "psi_sweep",
    "qbinom",
    "qpoch",
    "qpoch_inf",
    "qpoch_shift",
    "rphis_series_in_t",
    "rphis_terminating",
    "run_suite",
    "sa_phi",
    "sa_psi",
    "theta_basis",
    "theta_pointwise",
    "v_poly",
]
