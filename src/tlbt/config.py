"""Experiment configuration of the command-line front end.

A configuration names the model source, the horizon and grid, exactly one
reduction control (a target order r or a tail tolerance tau), the input
signal, and where artifacts go. It round-trips losslessly through JSON,
so a saved config reproduces a run bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields


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
        if not isinstance(self.model, str) or not self.model:
            raise ValueError("model must be a nonempty string")
        if self.r is not None and self.tau is not None:
            raise ValueError("give exactly one of r and tau, not both")
        if self.r is not None and (not isinstance(self.r, int) or self.r < 1):
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        if self.tau is not None and not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        for name in ("tau", "tbar", "dt", "tend"):
            val = getattr(self, name)
            if val is not None and not (val > 0 and math.isfinite(val)):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")

    def require_order_control(self) -> None:
        """Raise unless exactly one of r / tau is set."""
        if (self.r is None) == (self.tau is None):
            raise ValueError("exactly one of r and tau is required")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        return cls.from_dict(data)
