"""Balanced truncation and time-limited balanced truncation for LTI
systems, with computable output-error bounds validated against
time-domain simulation."""

from .balancing import (
    BalancingResult,
    ReducedModel,
    balance,
    select_order,
    truncate,
)
from .bounds import (
    BalancedRepresentation,
    BoundReport,
    bt_h2_bound_infinite,
    bt_hinf_bound,
    tlbt_h2_bound,
    tlbt_h2_bound_alt,
)
from .config import ExperimentConfig
from .errors import (
    DimensionError,
    NotPsdError,
    SpectrumSeparationError,
    StabilityError,
)
from .gramians import GramianSet, infinite_gramians, time_limited_gramians
from .linalg import expm
from .simulation import Trajectory, input_l2_norm, output_error, simulate
from .systems import InputSignal, StateSpaceSystem, generate_heat_model, load_system

__version__ = "0.1.0"

__all__ = [
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
