"""Rate-distortion bounds for distributed coding of symmetric Gaussian sources.

Compute, cross-validate and asymptotically analyze upper and lower bounds
on the sum rate for lossy distributed coding of L symmetrically correlated
Gaussian sources observed in symmetrically correlated Gaussian noise.

The pieces: `model` owns the parameterization and its spectral form;
`upper_bound` the achievable (test-channel) rate; `lower_bound` the
closed-form converse with its regime classification; `oracle` an
independent numerical solver for the converse program with KKT
certificates; `asymptotics` the large-L expressions and the limiting gap;
`simulate` the Monte-Carlo verification of the test channel; `cli` the
command-line front end (entry point `symrd`).
"""

from .errors import (
    ConvergenceError,
    DomainError,
    PrecisionError,
    SymrdError,
    ValidationError,
)
from .model import (
    SourceSpec,
    Spectrum,
    d_min,
    from_eigenvalues,
    parse_spec_text,
    source_variance,
    spectral_decompose,
    validate_spec,
)
from .upper_bound import (
    distortion_of,
    quadratic_root,
    rate_of,
    solve_lambda_q,
    upper_bound_rate,
)
from .lower_bound import (
    PIECE_R1C,
    PIECE_R1C_HAT,
    PIECE_R2C,
    PIECE_R2C_HAT,
    PIECE_RBAR,
    Branch,
    Regime,
    classify,
    lower_bound_piece,
    lower_bound_rate,
)
from .oracle import (
    KktCertificate,
    ProgramPoint,
    solve_program,
)
from .asymptotics import (
    AsymptoticRegime,
    Condition,
    asymptotic_gap,
    asymptotic_regime,
    asymptotic_row,
    lower_asymptotic,
    upper_asymptotic,
)
from .simulate import (
    SimConfig,
    SimResult,
    eigenbasis,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "SymrdError", "ValidationError", "DomainError", "ConvergenceError",
    "PrecisionError",
    "SourceSpec", "Spectrum", "validate_spec", "spectral_decompose",
    "from_eigenvalues", "d_min", "source_variance", "eigenbasis", "parse_spec_text",
    "distortion_of", "rate_of", "solve_lambda_q", "upper_bound_rate",
    "quadratic_root",
    "Branch", "Regime", "classify",
    "lower_bound_rate", "lower_bound_piece",
    "PIECE_RBAR", "PIECE_R1C", "PIECE_R2C", "PIECE_R1C_HAT", "PIECE_R2C_HAT",
    "ProgramPoint", "KktCertificate", "solve_program",
    "Condition", "AsymptoticRegime",
    "asymptotic_regime", "upper_asymptotic", "lower_asymptotic", "asymptotic_row",
    "asymptotic_gap",
    "SimConfig", "SimResult", "run_simulation",
    "__version__",
]
