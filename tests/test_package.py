import argparse
import dataclasses
import importlib
import inspect

import pytest

import tlbt
import tlbt.cli
import tlbt.mmio

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

# every settable option: the parameters and dataclass fields with a
# default of the public names and of tlbt.mmio, then the CLI flags. A
# change that adds or removes a knob edits this list.
OPTIONS = [
    "ExperimentConfig.dt",
    "ExperimentConfig.input",
    "ExperimentConfig.out",
    "ExperimentConfig.r",
    "ExperimentConfig.tau",
    "ExperimentConfig.tbar",
    "ExperimentConfig.tend",
    "InputSignal.times",
    "InputSignal.values",
    "ReducedModel.parent_name",
    "StateSpaceSystem.E",
    "StateSpaceSystem.name",
    "write_matrix(comment)",
]
FLAGS = [
    "--axis", "--config", "--dt", "--input", "--jobs", "--model", "--order",
    "--out", "--tbar", "--tend", "--tol", "--values", "--verify",
]

# names that left the package (the test oracles and dense wrappers, now
# in tests/oracles.py or gone), by the module of the package that held them
ORACLES = {
    "apply_state_transform": "systems",
    "cross_gramian_quadrature": "gramians",
    "full_balancing_transform": "balancing",
    "gramian_quadrature_oracle": "gramians",
    "hinf_error_sampled": "bounds",
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


def _defaulted(name, obj):
    if dataclasses.is_dataclass(obj):
        return [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING]
    if inspect.isfunction(obj):
        return [f"{name}({p.name})" for p in inspect.signature(obj).parameters.values()
                if p.default is not inspect.Parameter.empty]
    return []


def test_the_settable_options_are_pinned():
    public = [(name, getattr(tlbt, name)) for name in tlbt.__all__]
    public += [(name, getattr(tlbt.mmio, name)) for name in tlbt.mmio.__all__]
    assert sorted(o for name, obj in public for o in _defaulted(name, obj)) == OPTIONS
    flags = set()
    for action in tlbt.cli._build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags.update(f for a in sub._actions for f in a.option_strings if f.startswith("--"))
    assert sorted(flags - {"--help"}) == FLAGS
    assert len(OPTIONS) + len(FLAGS) == 26
