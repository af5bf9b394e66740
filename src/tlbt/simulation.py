"""Time-domain simulation with the implicit midpoint rule.

One step of (E) x' = A x + B u reads

    (E - dt/2 A) x_{k+1} = (E + dt/2 A) x_k + dt B u(t_k + dt/2),

an A-stable second-order one-step map. Each run factorizes the step
matrix once, samples the input once on the midpoint grid t_k + dt/2 and
forms the input terms dt B u as one block, so a step is a matvec and a
LAPACK getrs solve. Trajectories start from x(0) = 0 on the uniform grid
t_k = k dt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrs

from .balancing import ReducedModel
from .systems import InputSignal, StateSpaceSystem

__all__ = ["Trajectory", "simulate", "output_error", "input_l2_norm"]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled outputs on the uniform grid times[k] = k dt."""

    times: np.ndarray
    outputs: np.ndarray

    def save_csv(self, path) -> None:
        """Write "t, y_1, ..., y_p" rows with full float fidelity."""
        p = self.outputs.shape[1]
        header = ", ".join(["t"] + [f"y_{j + 1}" for j in range(p)])
        with open(path, "w", encoding="ascii") as fh:
            fh.write(header + "\n")
            for t, row in zip(self.times, self.outputs):
                fh.write(", ".join(f"{v:.17g}" for v in (t, *row)) + "\n")


def _grid_steps(t_end: float, dt: float) -> int:
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (t_end >= dt):
        raise ValueError(f"t_end must be at least dt, got t_end = {t_end}, dt = {dt}")
    steps = int(round(t_end / dt))
    if abs(steps * dt - t_end) > 1e-8 * max(t_end, 1.0):
        raise ValueError(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    return steps


def simulate(model, u: InputSignal, t_end: float, dt: float) -> Trajectory:
    """Integrate a model from x(0) = 0 under the input signal.

    Parameters
    ----------
    model : StateSpaceSystem or ReducedModel
    u : InputSignal
        Must produce vectors of the model's input dimension.
    t_end, dt : float
        Grid extent and step; t_end must be an integer multiple of dt.

    Returns
    -------
    Trajectory with t_end/dt + 1 rows.
    """
    if isinstance(model, ReducedModel):
        model = model.as_system()
    if not isinstance(model, StateSpaceSystem):
        raise TypeError(f"cannot simulate a {type(model).__name__}")
    if u.m != model.m:
        raise ValueError(f"input signal has {u.m} components but the model expects {model.m}")
    steps = _grid_steps(float(t_end), float(dt))
    a, b, c = model.A, model.B, model.C
    e = model.E if model.E is not None else np.eye(model.n)
    m_minus = e - (dt / 2.0) * a
    m_plus = e + (dt / 2.0) * a
    lu, piv = sla.lu_factor(m_minus)
    if np.any(np.diag(lu) == 0.0):
        raise ValueError(f"step matrix E - (dt/2) A is singular for dt = {dt}")
    times = np.arange(steps + 1) * dt
    inputs = u.sample(times[:-1] + dt / 2.0)
    if inputs.shape != (steps, model.m):
        raise ValueError(f"input signal sampled to shape {inputs.shape}, expected {(steps, model.m)}")
    forcing = dt * (inputs @ b.T)
    outputs = np.zeros((steps + 1, model.p))
    x = np.zeros(model.n)
    for k in range(steps):
        x, info = dgetrs(lu, piv, m_plus @ x + forcing[k], overwrite_b=1)
        if info != 0:
            raise ValueError(f"LAPACK getrs failed with info = {info}")
        outputs[k + 1] = c @ x
    if not np.all(np.isfinite(outputs)):
        raise OverflowError("simulation produced non-finite outputs")
    return Trajectory(times=times, outputs=outputs)


def output_error(full: Trajectory, reduced: Trajectory, tbar: float):
    """Pointwise output deviation of two trajectories on one grid.

    Returns (error series, max over t <= tbar, max over the whole grid);
    the series entry at t_k is ||y(t_k) - y_r(t_k)||_2.
    """
    if full.outputs.shape != reduced.outputs.shape:
        raise ValueError(
            f"trajectory shapes {full.outputs.shape} and {reduced.outputs.shape} do not match"
        )
    t_end = float(full.times[-1])
    if np.max(np.abs(full.times - reduced.times)) > 1e-12 * max(t_end, 1.0):
        raise ValueError("trajectories live on different grids")
    err = np.linalg.norm(full.outputs - reduced.outputs, axis=1)
    mask = full.times <= tbar * (1.0 + 1e-12)
    if not np.any(mask):
        raise ValueError(f"no grid point lies in [0, tbar = {tbar}]")
    return err, float(np.max(err[mask])), float(np.max(err))


def input_l2_norm(u: InputSignal, tbar: float, dt: float) -> float:
    """L2 norm of the input on [0, tbar], by the composite trapezoid rule
    on the grid t_k = k dt. Grid-dependent for rough signals."""
    steps = _grid_steps(float(tbar), float(dt))
    values = u.sample(np.arange(steps + 1) * dt)
    sq = np.einsum("ij,ij->i", values, values)
    total = dt * (np.sum(sq) - 0.5 * (sq[0] + sq[-1]))
    return float(np.sqrt(total))
