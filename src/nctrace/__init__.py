"""Symbolic and numeric toolkit for noncommutative stochastic calculus on
trace *-polynomials, with matrix Brownian motion verification."""

from .rational import QC
from .trace_poly import (
    ContractionModel,
    LinearityError,
    TracePolynomial,
    classify_linearity,
    compose_linear,
    derive,
    derive_k,
    drop_martingale_null,
    gamma_contract,
)
from .parsing import ParseError, format_polynomial, parse
from .evaluator import EvalContext, EvalError, eval_multilinear, eval_poly
from .matrix_alg import (
    ScalarFunctionSpec,
    divided_diff,
    esd_distance,
    moi,
    op_function,
    semicircle_cdf,
)
from .process_sim import (
    ProcessPath,
    RngStream,
    TimeGrid,
    load_ncp1,
    make_fv,
    save_ncp1,
    simulate_hbm,
    simulate_hbm_ensemble,
)
from .stoch_int import (
    BoundBiprocess,
    BoundTriprocess,
    ElementaryPredictable,
    qc_closed_form,
    quad_rs_sum,
    rs_integral,
)
from .ito import (
    convergence_study,
    functional_ito_residual,
    ito_residual,
    ito_rhs_symbolic,
)
from .selftest import run_selftest

__all__ = [
    "QC",
    "ContractionModel",
    "LinearityError",
    "TracePolynomial",
    "classify_linearity",
    "compose_linear",
    "derive",
    "derive_k",
    "drop_martingale_null",
    "gamma_contract",
    "ParseError",
    "format_polynomial",
    "parse",
    "EvalContext",
    "EvalError",
    "eval_multilinear",
    "eval_poly",
    "ScalarFunctionSpec",
    "divided_diff",
    "esd_distance",
    "moi",
    "op_function",
    "semicircle_cdf",
    "ProcessPath",
    "RngStream",
    "TimeGrid",
    "load_ncp1",
    "make_fv",
    "save_ncp1",
    "simulate_hbm",
    "simulate_hbm_ensemble",
    "BoundBiprocess",
    "BoundTriprocess",
    "ElementaryPredictable",
    "qc_closed_form",
    "quad_rs_sum",
    "rs_integral",
    "convergence_study",
    "functional_ito_residual",
    "ito_residual",
    "ito_rhs_symbolic",
    "run_selftest",
]

__version__ = "0.1.0"
