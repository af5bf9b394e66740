"""Experiment configuration of the command-line front end.

A configuration names the model source, the horizon and grid, exactly one
reduction control (a target order r or a tail tolerance tau), the input
signal, and where artifacts go. ``tlbt --config file.json`` reads one
from a JSON object keyed by the field names, with the command-line flags
merged over it, through :meth:`ExperimentConfig.from_dict`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real


__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one reduction/simulation experiment.

    Parameters
    ----------
    model : str
        Either ``gen:n,m,p`` for the generated heat model or a path to a
        JSON manifest naming Matrix Market files.
    tbar : float, optional
        Horizon of the time-limited Gramians and of the error bound.
    dt : float, optional
        Simulation step. Defaults are command-specific (tbar / 512 for
        simulate, tbar / 256 for sweeps).
    tend : float, optional
        Simulation end time, default tbar.
    r : int, optional
        Reduced order. Mutually exclusive with ``tau``.
    tau : float, optional
        Positive, finite tolerance for automatic order selection: the
        smallest r whose discarded singular values sum to at most tau.
    input : str
        Input signal spec: ``const:c`` or ``const:c1,...,cm``, ``star``,
        ``zero``, or ``table:path``.
    out : str
        Output directory; created if missing.
    """

    model: str
    tbar: float | None = None
    dt: float | None = None
    tend: float | None = None
    r: int | None = None
    tau: float | None = None
    input: str = "const:1"
    out: str = "out"

    def __post_init__(self):
        for name in ("model", "input", "out"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        # a bool is Real: it reaches the range check below, which refuses it
        for name in ("tau", "tbar", "dt", "tend"):
            if not isinstance(getattr(self, name), (type(None), Real)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not self.model:
            raise ValueError("model must be a nonempty string")
        if self.r is not None and self.tau is not None:
            raise ValueError("give exactly one of r and tau, not both")
        # bool is a subclass of int: JSON true must not pass as 1
        if self.r is not None and (isinstance(self.r, bool) or not isinstance(self.r, int) or self.r < 1):
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        if self.tau is not None and not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        for name in ("tau", "tbar", "dt", "tend"):
            val = getattr(self, name)
            if val is not None and (isinstance(val, bool) or not (val > 0 and math.isfinite(val))):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")

    def require_order_control(self) -> None:
        """Raise unless exactly one of r / tau is set."""
        if (self.r is None) == (self.tau is None):
            raise ValueError("exactly one of r and tau is required")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)
