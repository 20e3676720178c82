"""Series and quadrature machinery for diffusion problems driven by a
regularized fractional power of the Euler-type operator t^theta d/dt.

The package solves the one-dimensional initial-boundary-value problem with
homogeneous Dirichlet walls, and recovers a space-dependent source from the
final-time profile, both through sine-mode expansions whose time factors are
Mittag-Leffler functions of a stretched clock s = t^(1-theta).
"""

from .errors import IllPosedError, ValidationError
from .inverse import (
    InverseProblemSpec,
    InverseResult,
    reconstruct_source_field,
    solve_inverse,
)
from .operators import (
    EKParams,
    FracParams,
    SampledFunction,
    ek_integral,
    ek_integral_on_grid,
    ek_integrodiff,
    hyper_bessel,
    make_time_grid,
    reg_caputo_hb,
    reg_caputo_on_grid,
)
from .quadrature import (
    ml_product_matrix,
    ml_product_row,
    power_integral_at,
    power_kernel_weights,
)
from .scalar import (
    ConstantForcing,
    ScalarProblem,
    ZeroForcing,
    lambda_star,
    prabhakar_compose,
    solve_scalar,
    solve_scalar_constant,
    solve_second_kind,
)
from .special import (
    MLParams,
    gamma,
    ml_one,
    ml_one_array,
    ml_two,
    ml_two_array,
    sinpi,
    sinpi_array,
)
from .spectral import (
    DirectProblemSpec,
    SeparableForcing,
    SineSeries,
    SolutionField,
    TensorForcing,
    mode_forcing_term,
    sine_analyze,
    sine_synthesize,
    solve_direct,
)
from .verify import (
    VerificationReport,
    l1_caputo_solve,
    reduction_theta_zero,
    residual_direct,
    roundtrip_inverse,
    run_suite,
    suite_names,
    volterra_oracle,
)

__all__ = [
    "ConstantForcing",
    "DirectProblemSpec",
    "EKParams",
    "FracParams",
    "IllPosedError",
    "InverseProblemSpec",
    "InverseResult",
    "MLParams",
    "SampledFunction",
    "ScalarProblem",
    "SeparableForcing",
    "SineSeries",
    "SolutionField",
    "TensorForcing",
    "ValidationError",
    "VerificationReport",
    "ZeroForcing",
    "ek_integral",
    "ek_integral_on_grid",
    "ek_integrodiff",
    "gamma",
    "hyper_bessel",
    "l1_caputo_solve",
    "lambda_star",
    "make_time_grid",
    "ml_one",
    "ml_one_array",
    "ml_product_matrix",
    "ml_product_row",
    "ml_two",
    "ml_two_array",
    "mode_forcing_term",
    "power_integral_at",
    "power_kernel_weights",
    "prabhakar_compose",
    "reconstruct_source_field",
    "reduction_theta_zero",
    "reg_caputo_hb",
    "reg_caputo_on_grid",
    "residual_direct",
    "roundtrip_inverse",
    "run_suite",
    "sine_analyze",
    "sine_synthesize",
    "sinpi",
    "sinpi_array",
    "solve_direct",
    "solve_inverse",
    "solve_scalar",
    "solve_scalar_constant",
    "solve_second_kind",
    "suite_names",
    "volterra_oracle",
]

__version__ = "0.1.0"
