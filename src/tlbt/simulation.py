"""Time-domain simulation with the implicit midpoint rule.

One step of (E) x' = A x + B u reads

    (E - dt/2 A) x_{k+1} = (E + dt/2 A) x_k + dt B u(t_k + dt/2),

an A-stable second-order one-step map x_{k+1} = S x_k + D u_k. The first
run of a system at a step size factorizes the step matrix, solves once
for the step map S = (E - dt/2 A)^-1 (E + dt/2 A) and the drive
D = (E - dt/2 A)^-1 dt B, and builds the lifted block operators below
by doubling: four rounds of stacked products. The system keeps them,
keyed by dt, for as long as it lives (about n^2 + 16 (m + p) n doubles
each when m, p <= n), so later runs at that dt under other inputs skip
that work. A reduced model is simulated through a fresh system each
time, so nothing is kept for it. The input is sampled on the midpoint
grid t_k + dt/2 on the first run on that grid and kept read-only on the
signal, so the full model and its reduced models sample it once. The
map then runs in blocks of L = 16 steps. From a block's first state x
and its inputs u_0..u_{L-1}, its outputs and the next block's first
state are

    y_{i+1} = C S^(i+1) x + sum_{s<=i} C S^s D u_{i-s},    i < L,
    x_L     = S^L x + sum_{s<L} S^(L-1-s) D u_s,

so only the block-to-block recursion for x is sequential: one matvec
with S^L per block. The outputs of all blocks are then formed together:
row i of a block takes its free part from x, and its forced part from
one product of the window u_{i-L+1}, ..., u_i of the block's own
inputs (zero before the block) with the Markov parameters C S^s D
stacked. The windows are copied 64 blocks at a time, so their memory
does not grow with the grid. Each block's products have one fixed
shape, so the outputs on a grid are bitwise a prefix of those on any
longer grid. The last block is padded with zero inputs, and its rows
past the grid are dropped. A model with more inputs than states lifts
the forcing terms D u instead of u, and one with more outputs than
states lifts the states and applies C once at the end. Trajectories
start from x(0) = 0 on the uniform grid t_k = k dt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dgetrs

from .balancing import ReducedModel
from .systems import InputSignal, StateSpaceSystem, _memo

__all__ = ["Trajectory", "simulate", "output_error", "input_l2_norm"]

# steps per lifted block; a power of two, as the lifted operators are
# built by doubling
_BLOCK = 16
# blocks per windowed product
_CHUNK = 64


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


def _grid_steps(t_end: float, dt: float, name: str = "t_end") -> int:
    """The steps of dt from 0 to t_end; name is t_end's in the messages."""
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (t_end >= dt and np.isfinite(t_end)):
        raise ValueError(f"{name} must be at least dt and finite, got {name} = {t_end}, dt = {dt}")
    steps = int(round(t_end / dt))
    if abs(steps * dt - t_end) > 1e-8 * max(t_end, 1.0):
        raise ValueError(f"{name} = {t_end} is not an integer multiple of dt = {dt}")
    return steps


def _samples(u: InputSignal, steps: int, dt: float, midpoints: bool) -> np.ndarray:
    """u on the grid t_k = k dt, k <= steps, or on its midpoints
    t_k + dt/2, k < steps: sampled on first use and kept read-only on
    the signal, keyed by the grid, as the step operators are kept on a
    system."""
    def build():
        times = np.arange(steps + 1) * dt
        grid = times[:-1] + dt / 2.0 if midpoints else times
        values = u.sample(grid)
        if values.shape != (grid.size, u.m):
            raise ValueError(f"input signal sampled to shape {values.shape}, expected {(grid.size, u.m)}")
        values.flags.writeable = False
        return values

    return _memo(u.__dict__, ("samples", midpoints, steps, float(dt)), build)


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

    The step operators are built on the first run of a system at a dt
    and kept on the system while it lives (under the lock of its
    operator records, so threads sharing it build them once); a
    ReducedModel keeps none. A build that fails keeps nothing and fails
    again on the next attempt. The input's midpoint samples are kept on
    the signal the same way, keyed by the grid.
    """
    if isinstance(model, ReducedModel):
        model = model.as_system()
    if not isinstance(model, StateSpaceSystem):
        raise TypeError(f"cannot simulate a {type(model).__name__}")
    if u.m != model.m:
        raise ValueError(f"input signal has {u.m} components but the model expects {model.m}")
    steps = _grid_steps(float(t_end), float(dt))
    n, m, p = model.n, model.m, model.p
    drive, free, markov, reach, leap = _memo(
        model.__dict__, ("step", dt), lambda: _step_operators(model, dt))
    inputs = _samples(u, steps, dt, midpoints=True)
    blocks = -(-steps // _BLOCK)
    padded = np.zeros((blocks * _BLOCK, m))
    padded[:steps] = inputs
    w = padded.reshape(blocks, _BLOCK, m)
    if drive is not None:
        w = w @ drive.T
    k = w.shape[2]
    # the only sequential part: each block's first state from the last one's
    pushes = (w.reshape(blocks, 1, -1) @ reach)[:, 0]
    starts = np.zeros((blocks, n))
    for j in range(blocks - 1):
        starts[j + 1] = leap @ starts[j] + pushes[j]
    lifted = (starts[:, None, :] @ free).reshape(blocks, _BLOCK, -1)
    # row i of a block's window is its inputs w_{i-L+1}, ..., w_i, oldest
    # first and zero before the block; a chunk of blocks at a time bounds
    # the windows' copy
    for j in range(0, blocks, _CHUNK):
        part = w[j:j + _CHUNK]
        ahead = np.zeros((len(part), 2 * _BLOCK - 1, k))
        ahead[:, _BLOCK - 1:] = part
        windows = sliding_window_view(ahead.reshape(len(part), -1), _BLOCK * k, axis=1)[:, ::k]
        lifted[j:j + _CHUNK] += np.ascontiguousarray(windows) @ markov
    if p > n:
        lifted = lifted @ model.C.T
    outputs = np.zeros((steps + 1, p))
    outputs[1:] = lifted.reshape(-1, p)[:steps]
    if not np.all(np.isfinite(outputs)):
        raise OverflowError("simulation produced non-finite outputs")
    return Trajectory(times=np.arange(steps + 1) * dt, outputs=outputs)


def _step_operators(model: StateSpaceSystem, dt):
    """What the block loop of ``simulate`` reads for one step size:
    (drive, free, markov, reach, leap). drive is D when the model has
    more inputs than states (the forcing terms D u are then lifted) and
    None otherwise; the rest are ``_lifted``'s, with F = I when the
    model has more outputs than states and F = C otherwise."""
    n, m, p = model.n, model.m, model.p
    a, b, c = model.A, model.B, model.C
    e = model.E if model.E is not None else np.eye(n)
    lu, piv = sla.lu_factor(e - (dt / 2.0) * a)
    if np.any(np.diag(lu) == 0.0):
        raise ValueError(f"step matrix E - (dt/2) A is singular for dt = {dt}")
    maps, info = dgetrs(lu, piv, np.hstack([e + (dt / 2.0) * a, dt * b]), overwrite_b=1)
    if info != 0:
        raise ValueError(f"LAPACK getrs failed with info = {info}")
    step, drive = maps[:, :n], maps[:, n:]
    # lift the fewer of the m inputs and the n forcing terms D u, and of
    # the p outputs and the n states (C is then applied last)
    lifted = _lifted(step, np.eye(n) if m > n else drive, np.eye(n) if p > n else c)
    return (drive if m > n else None, *lifted)


def _lifted(step, drive, observe):
    """The lifted operators of one block of x_{k+1} = S x_k + D w_k, z_k = F x_k,
    with D of shape (n, k) and F of shape (q, n).

    Returns free (n, L q), whose row product with the block's first state
    x gives [F S x, ..., F S^L x]; markov (L k, q), the Markov parameters
    F S^s D of the block's lower block-Toeplitz input-output map stacked
    transposed from s = L-1 down to 0, whose row product with a window
    [w_{i-L+1}, ..., w_i] gives sum_s F S^s D w_{i-s}; reach (L k, n),
    the S^s D stacked the same way, whose row product with the block's
    inputs gives sum_s S^(L-1-s) D w_s; and leap = S^L. Each of the
    log2(L) rounds doubles both stacks with one product by S^j and
    squares S^j, so leap is matrix_power's.
    """
    n, k, q = drive.shape[0], drive.shape[1], observe.shape[0]
    rows, reach = np.empty((_BLOCK * q, n)), np.empty((_BLOCK * k, n))
    np.matmul(observe, step, out=rows[:q])
    reach[-k:] = drive.T
    power, j = step, 1
    while j < _BLOCK:
        np.matmul(rows[:j * q], power, out=rows[j * q:2 * j * q])
        np.matmul(reach[-j * k:], power.T, out=reach[-2 * j * k:-j * k])
        power, j = power @ power, 2 * j
    return rows.T, reach @ observe.T, reach, power


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
    on the grid t_k = k dt, whose samples are kept on the signal as
    ``simulate``'s are. Grid-dependent for rough signals."""
    steps = _grid_steps(float(tbar), float(dt))
    values = _samples(u, steps, dt, midpoints=False)
    sq = np.einsum("ij,ij->i", values, values)
    total = dt * (np.sum(sq) - 0.5 * (sq[0] + sq[-1]))
    return float(np.sqrt(total))
