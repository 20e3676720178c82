"""Tests for the package's public surface."""

import hbdiff

PUBLIC = [
    "ConstantForcing", "DirectProblemSpec", "EKParams", "FracParams", "IllPosedError",
    "InverseProblemSpec", "InverseResult", "MLParams", "SampledFunction", "ScalarProblem",
    "SeparableForcing", "SineSeries", "SolutionField", "TensorForcing", "ValidationError",
    "VerificationReport", "ZeroForcing", "ek_integral", "ek_integral_on_grid",
    "ek_integrodiff", "gamma", "hyper_bessel", "l1_caputo_solve", "lambda_star",
    "make_time_grid", "ml_one", "ml_one_array", "ml_product_matrix", "ml_product_row",
    "ml_two", "ml_two_array", "power_integral_at",
    "power_kernel_weights", "prabhakar_compose", "reconstruct_source_field",
    "reduction_theta_zero", "reg_caputo_hb", "reg_caputo_on_grid", "residual_direct",
    "roundtrip_inverse", "run_suite", "sine_analyze", "sine_synthesize", "sinpi",
    "sinpi_array", "solve_direct", "solve_inverse", "solve_scalar", "solve_scalar_constant",
    "solve_second_kind", "suite_names", "volterra_oracle",
]


def test_public_names_are_exactly_the_published_52():
    assert len(PUBLIC) == 52
    assert sorted(hbdiff.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(hbdiff, name) is not None


def test_internal_helpers_stay_importable_by_module_path():
    from hbdiff.quadrature import lag_convolve, ml_lag_weights
    from hbdiff.scalar import solve_scalar_batch

    for fn in (lag_convolve, ml_lag_weights, solve_scalar_batch):
        assert callable(fn) and fn.__name__ not in hbdiff.__all__
