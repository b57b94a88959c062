"""Exact q-deformed Bernoulli machinery with built-in identity verification.

Everything is computed over the rationals (stdlib Fraction); there is no
floating point anywhere.  The package exposes the value computations
(bernoulli, series), the permutation-invariance expressions and their
verifier (symmetry), two independent oracles (padic Riemann sums and the
q -> 1 rational-function limit), and seeded suites behind the `qbern` CLI.
"""

from .exactnum import (
    PoleError,
    RatFuncQ,
    RationalLike,
    as_rational,
    binom,
    rat_str,
    ratfunc_limit,
    stirling1,
)
from .qcore import InadmissibleArg, QContext, qnum, qnum_add_split, qnum_scale_split
from .bernoulli import (
    carlitz_numbers,
    carlitz_numbers_ratfunc,
    carlitz_poly,
    carlitz_poly_values,
    classical_numbers,
    classical_poly,
    degenerate_qpoly,
)
from .series import (
    TruncSeries,
    ZeroLambda,
    binom_series,
    carlitz_degenerate,
    carlitz_series,
    kim_degenerate,
    kim_series,
    log1p_series,
    log_factor_series,
)
from .symmetry import (
    CapExceeded,
    SigmaView,
    SymmetryReport,
    WeightVector,
    kernel_K,
    thm1_coeffs,
    thm2_expr,
    thm3_expr,
    verify,
)
from .padic import (
    INF,
    PadicParams,
    convergence_report,
    riemann_sum_carlitz,
    riemann_sum_degenerate,
    riemann_sum_mu1,
    vp,
)
from .suites import (
    OracleReport,
    SuiteResult,
    oracle_report,
    q_lam_points,
    qlemma_suite,
    sample_q,
    sample_rational,
    series_factor_suite,
    stirling_mu1_suite,
    thm_suite,
)

__version__ = "0.1.0"

__all__ = [
    "PoleError", "RatFuncQ", "RationalLike", "as_rational", "binom",
    "rat_str", "ratfunc_limit", "stirling1",
    "InadmissibleArg", "QContext", "qnum", "qnum_add_split", "qnum_scale_split",
    "carlitz_numbers", "carlitz_numbers_ratfunc", "carlitz_poly", "carlitz_poly_values",
    "classical_numbers", "classical_poly", "degenerate_qpoly",
    "TruncSeries", "ZeroLambda", "binom_series", "carlitz_degenerate",
    "carlitz_series", "kim_degenerate", "kim_series", "log1p_series",
    "log_factor_series",
    "CapExceeded", "SigmaView", "SymmetryReport", "WeightVector", "kernel_K",
    "thm1_coeffs", "thm2_expr", "thm3_expr", "verify",
    "INF", "PadicParams", "convergence_report",
    "riemann_sum_carlitz", "riemann_sum_degenerate", "riemann_sum_mu1", "vp",
    "OracleReport", "SuiteResult", "oracle_report", "q_lam_points",
    "qlemma_suite", "sample_q", "sample_rational", "series_factor_suite",
    "stirling_mu1_suite", "thm_suite",
    "__version__",
]
