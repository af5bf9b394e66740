import importlib

import pytest

import tlbt

# what the CLI and the pipeline use, the errors they raise, and the
# classical BT baselines the paper compares against
PIPELINE = [
    "BalancedRepresentation",
    "BalancingResult",
    "BoundReport",
    "DimensionError",
    "ExperimentConfig",
    "GramianSet",
    "InputSignal",
    "NotPsdError",
    "ReducedModel",
    "SpectrumSeparationError",
    "StabilityError",
    "StateSpaceSystem",
    "Trajectory",
    "balance",
    "bt_h2_bound_infinite",
    "bt_hinf_bound",
    "expm",
    "generate_heat_model",
    "hinf_error_sampled",
    "infinite_gramians",
    "input_l2_norm",
    "load_system",
    "output_error",
    "select_order",
    "simulate",
    "time_limited_gramians",
    "tlbt_h2_bound",
    "tlbt_h2_bound_alt",
    "truncate",
]

# the test oracles and dense wrappers in tests/oracles.py, by the module
# of the package that once held them
ORACLES = {
    "apply_state_transform": "systems",
    "cross_gramian_quadrature": "gramians",
    "full_balancing_transform": "balancing",
    "gramian_quadrature_oracle": "gramians",
    "mixed_gramian": "gramians",
    "random_piecewise_constant": "systems",
    "reduced_gramian": "gramians",
    "solve_lyapunov": "linalg",
    "solve_sylvester": "linalg",
    "spd_factor": "linalg",
    "spectrum_separation": "linalg",
}


def test_the_public_names_are_the_pipeline():
    assert sorted(tlbt.__all__) == PIPELINE
    for name in PIPELINE:
        assert hasattr(tlbt, name), name


@pytest.mark.parametrize("name, module", sorted(ORACLES.items()))
def test_no_oracle_is_reachable_from_the_package(name, module):
    assert not hasattr(tlbt, name)
    assert not hasattr(importlib.import_module(f"tlbt.{module}"), name)
