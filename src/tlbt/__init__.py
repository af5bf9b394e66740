"""Balanced truncation and time-limited balanced truncation for LTI
systems, with computable output-error bounds validated against
time-domain simulation."""

from .balancing import (
    BalancingResult,
    ReducedModel,
    balance,
    full_balancing_transform,
    select_order,
    truncate,
)
from .bounds import (
    BalancedRepresentation,
    BoundReport,
    bt_h2_bound_infinite,
    bt_hinf_bound,
    hinf_error_sampled,
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
from .gramians import (
    GramianSet,
    cross_gramian_quadrature,
    gramian_quadrature_oracle,
    infinite_gramians,
    mixed_gramian,
    reduced_gramian,
    time_limited_gramians,
)
from .linalg import (
    SpectrumSeparation,
    expm,
    solve_lyapunov,
    solve_sylvester,
    spd_factor,
    spectrum_separation,
)
from .simulation import Trajectory, input_l2_norm, output_error, simulate
from .systems import (
    InputSignal,
    StateSpaceSystem,
    apply_state_transform,
    generate_heat_model,
    load_system,
    random_piecewise_constant,
)

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
    "SpectrumSeparation",
    "SpectrumSeparationError",
    "StabilityError",
    "StateSpaceSystem",
    "Trajectory",
    "apply_state_transform",
    "balance",
    "bt_h2_bound_infinite",
    "bt_hinf_bound",
    "cross_gramian_quadrature",
    "expm",
    "full_balancing_transform",
    "generate_heat_model",
    "gramian_quadrature_oracle",
    "hinf_error_sampled",
    "infinite_gramians",
    "input_l2_norm",
    "load_system",
    "mixed_gramian",
    "output_error",
    "random_piecewise_constant",
    "reduced_gramian",
    "select_order",
    "simulate",
    "spd_factor",
    "spectrum_separation",
    "solve_lyapunov",
    "solve_sylvester",
    "time_limited_gramians",
    "tlbt_h2_bound",
    "tlbt_h2_bound_alt",
    "truncate",
]
