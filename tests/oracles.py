"""Oracles and dense wrappers that check the tlbt pipeline from outside it.

None of this is on the pipeline's path: no CLI command and no pipeline
function calls it. The quadrature oracles integrate the Gramians'
defining integrals directly, independently of the Lyapunov/Sylvester
route. The solvers take dense matrices and factor them on every call,
then run the package's private kernels (the blocked Bartels-Stewart
solve, the Schur form), so the tests of these wrappers test the code
the pipeline runs; the PSD factor is one eigendecomposition of its own,
with its cutoff and its check as parameters. Each wrapper checks its
own arguments, and its equation's separation condition by the package's
one check, ``linalg._require_separated``; the private kernels leave
that to their caller. The exact Hankel singular values are read from
``hankel_reference.json``, which ``hankel_reference.py`` writes. The
simulation's lifted block operators are built one power of the step
map at a time.

The tests import these names with ``from oracles import ...``.
"""
import json
import math
import os

import numpy as np
from numpy.polynomial.legendre import leggauss

from tlbt.errors import DimensionError, NotPsdError
from tlbt.gramians import _check_horizon, _mixed_core, _reduced_gramian
from tlbt.linalg import (
    _check_residual,
    _require_separated,
    _schur_form,
    _solve_sylvester,
    _square,
    _symmetric,
    _trsyl,
    as_matrix,
    expm,
)
from tlbt.systems import InputSignal, StateSpaceSystem


# dense solvers and factors

def solve_sylvester(a1, a2, w) -> np.ndarray:
    """Solve A1 X + X A2^T = W for X by the Schur (Bartels-Stewart) method.

    Raises SpectrumSeparationError if Lambda(A1) and -Lambda(A2) overlap
    within tolerance, and ArithmeticError if the relative residual
    exceeds 1e-10.
    """
    a1 = _square(a1, "A1")
    a2 = _square(a2, "A2")
    w = as_matrix(w, "W")
    if w.shape != (a1.shape[0], a2.shape[0]):
        raise DimensionError(
            f"W must have shape {(a1.shape[0], a2.shape[0])} to match A1 and A2, got {w.shape}"
        )
    s1 = _schur_form(a1)
    s2 = _schur_form(a2)
    _require_separated(s1, s2, "solve_sylvester")
    return _solve_sylvester(s1, s2, w)


def solve_lyapunov(a, w) -> np.ndarray:
    """Solve A X + X A^T = W for symmetric W; the result is symmetrized.

    Same residual and separation guarantees as :func:`solve_sylvester`
    (here the condition is that Lambda(A) and -Lambda(A) do not overlap).
    """
    a = _square(a, "A")
    w = _square(w, "W")
    if w.shape != a.shape:
        raise DimensionError(f"W must have shape {a.shape} to match A, got {w.shape}")
    _symmetric(w, "W")
    s = _schur_form(a)
    _require_separated(s, s, "solve_lyapunov")
    # scipy's association order: bit-identical to its solver for n <= 64
    x = s.z.dot(_trsyl(s.t, s.t, s.z.T.dot(w.dot(s.z)), "solve_lyapunov")).dot(s.z.T)
    x = (x + x.T) / 2.0
    _check_residual(a @ x + x @ a.T - w, w, "solve_lyapunov")
    return x


def spd_factor(p, tol: float = 1e-12) -> np.ndarray:
    """Rank-revealing factor Z with P ~= Z Z^T for symmetric PSD P, from
    the eigenpairs with eigenvalue > tol ||P||_2, columns by decreasing
    eigenvalue, so ||P - Z Z^T||_2 <= 2 tol ||P||_2. Raises NotPsdError
    for an eigenvalue below -tol ||P||_2."""
    p = _symmetric(p, "P")
    evals, evecs = np.linalg.eigh((p + p.T) / 2.0)
    norm2 = float(np.max(np.abs(evals)))
    if evals[0] < -tol * norm2:
        raise NotPsdError(f"P has eigenvalue {evals[0]:.6e} below -{tol:g} * ||P||_2")
    keep = evals > tol * norm2
    return evecs[:, keep][:, ::-1] * np.sqrt(evals[keep][::-1])


# Gramians

def cross_gramian_quadrature(a1, b1, a2, b2, tbar: float, panels: int = 64) -> np.ndarray:
    """Composite Gauss-Legendre quadrature of int_0^tbar e^(A1 s) B1 B2^T e^(A2^T s) ds.

    Four nodes per panel; the integrand is entire, so the rule converges
    spectrally in the panel count.
    """
    a1 = as_matrix(a1, "A1")
    a2 = as_matrix(a2, "A2")
    b1 = as_matrix(b1, "B1")
    b2 = as_matrix(b2, "B2")
    if panels < 1:
        raise ValueError(f"panels must be positive, got {panels}")
    nodes, weights = leggauss(4)
    out = np.zeros((a1.shape[0], a2.shape[0]))
    h = tbar / panels
    for k in range(panels):
        mid = (k + 0.5) * h
        for x, w in zip(nodes, weights):
            s = mid + 0.5 * h * x
            left = expm(a1, s) @ b1
            right = expm(a2, s) @ b2
            out += (0.5 * h * w) * (left @ right.T)
    return out


def standard_form(sys: StateSpaceSystem) -> tuple[np.ndarray, np.ndarray]:
    """(E^-1 A, E^-1 B) by dense solves with E, or (A, B) without E."""
    if sys.E is None:
        return sys.A, sys.B
    return np.linalg.solve(sys.E, sys.A), np.linalg.solve(sys.E, sys.B)


def gramian_quadrature_oracle(sys: StateSpaceSystem, tbar: float, panels: int = 64) -> np.ndarray:
    """Reachability Gramian of the standard form over [0, tbar] by direct quadrature."""
    a, b = standard_form(sys)
    return cross_gramian_quadrature(a, b, a, b, tbar, panels)


def reduced_gramian(rom, tbar: float) -> np.ndarray:
    """Reachability Gramian of a reduced model over [0, tbar]: solves
    A11 Pr + Pr A11^T + B1 B1^T - Fr Fr^T = 0 with Fr = e^(A11 tbar) B1."""
    tbar = _check_horizon(tbar)
    a11 = as_matrix(rom.A11, "A11")
    b1 = as_matrix(rom.B1, "B1")
    s11 = _schur_form(a11)
    _require_separated(s11, s11, "solve_lyapunov")
    return _reduced_gramian(s11, b1, expm(a11, tbar) @ b1)


def mixed_gramian(sys: StateSpaceSystem, rom, tbar: float) -> np.ndarray:
    """Cross Gramian int_0^tbar e^(A s) B B1^T e^(A11^T s) ds coupling a
    system and its reduced model, via the Sylvester route.

    ``tbar`` may be math.inf (both operators must then be Hurwitz). The
    system enters through its standard form, so with a mass matrix E the
    integrand's left factor is e^(E^-1 A s) E^-1 B.
    """
    tbar = _check_horizon(tbar, allow_inf=True)
    a11 = as_matrix(rom.A11, "A11")
    b1 = as_matrix(rom.B1, "B1")
    fr = expm(a11, tbar) @ b1 if math.isfinite(tbar) else None
    s11 = _schur_form(a11)
    _require_separated(sys._operator(), s11, "solve_sylvester")
    # the dense Pm = X_P M of the core M in the operator record's coordinates
    return sys._operator().bases[0] @ _mixed_core(sys, s11, b1, fr, tbar)


# frequency response

def hinf_error_sampled(sys: StateSpaceSystem, rom, frequencies) -> float:
    """Largest transfer-function error sigma_max(H(i w) - Hr(i w)) over a
    frequency sample, by a dense solve on the explicit standard form per
    frequency. It samples the error and certifies nothing."""
    freqs = np.asarray(frequencies, dtype=float).ravel()
    if freqs.size == 0:
        raise ValueError("frequency sample is empty")
    a, b = standard_form(sys)
    eye_n, eye_r = np.eye(sys.n), np.eye(rom.r)
    worst = 0.0
    for w in freqs:
        try:
            h_full = sys.C @ np.linalg.solve(1j * w * eye_n - a, b)
            h_rom = rom.C1 @ np.linalg.solve(1j * w * eye_r - rom.A11, rom.B1)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"shifted pencil is singular at frequency w = {w:g}") from exc
        worst = max(worst, float(np.linalg.norm(h_full - h_rom, 2)))
    return worst


# exact reference values

def _hankel_case(model: str, horizon: str) -> dict:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "hankel_reference.json"),
              encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    (case,) = (c for c in cases if c["model"] == model and c["horizon"] == horizon)
    return case


def exact_hankel_values(model: str, horizon: str) -> np.ndarray:
    """The leading Hankel singular values of a model at a horizon ("0.05"
    or "inf"), as ``hankel_reference.py`` computed them at 120 digits
    from the model's closed-form eigenpairs."""
    return np.array([float(v) for v in _hankel_case(model, horizon)["singular_values"]])


def exact_hankel_count(model: str, horizon: str) -> int:
    """How many exact Hankel singular values of the README model exceed
    ``balance``'s cutoff of 1e-14 sigma_1 (from ``hankel_reference.py``)."""
    return _hankel_case(model, horizon)["above_cutoff"]


# state coordinates

def apply_state_transform(sys: StateSpaceSystem, s) -> StateSpaceSystem:
    """Similarity transform x -> S x, giving (S A S^-1, S B, C S^-1), of
    a system without a mass matrix."""
    if sys.E is not None:
        raise ValueError("state transforms are only supported for systems without a mass matrix")
    s = as_matrix(s, "S")
    if s.shape != (sys.n, sys.n):
        raise DimensionError(f"S must have shape {(sys.n, sys.n)}, got {s.shape}")
    cond = np.linalg.cond(s)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(f"S is numerically singular (condition estimate {cond:.3e})")
    s_inv = np.linalg.inv(s)
    return StateSpaceSystem(
        A=s @ sys.A @ s_inv,
        B=s @ sys.B,
        C=sys.C @ s_inv,
        name=f"{sys.name}-transformed",
    )


# inputs

def random_piecewise_constant(m: int, tbar: float, blocks: int, rng) -> InputSignal:
    """Random piecewise-constant signal on [0, tbar] with unit L2 norm.

    Block values are drawn uniformly from [-1, 1] and the whole signal is
    scaled so that its exact L2 norm over [0, tbar] is 1. The jumps are
    linear ramps of width 1e-9 tbar / blocks, so the signal fits the
    sample-table input kind; the norm perturbation from the ramps is far
    below any tolerance used with these signals.
    """
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    if tbar <= 0:
        raise ValueError(f"tbar must be positive, got {tbar}")
    edges = np.linspace(0.0, tbar, blocks + 1)
    width = tbar / blocks
    ramp = 1e-9 * width
    vals = rng.uniform(-1.0, 1.0, size=(blocks, m))
    norm_sq = float(np.sum(vals**2) * width)
    if norm_sq <= 0:
        vals[0, 0] = 1.0
        norm_sq = width
    vals /= math.sqrt(norm_sq)
    times = []
    rows = []
    for i in range(blocks):
        times.append(edges[i])
        rows.append(vals[i])
        times.append(edges[i + 1] - ramp)
        rows.append(vals[i])
    return InputSignal.from_table(np.array(times), np.array(rows))


# simulation

def lifted_operators(step, drive, observe, block: int = 16):
    """``simulation._lifted``'s (free, markov, reach, leap) for the block
    map x_{k+1} = S x_k + D w_k, z_k = F x_k, from the powers S^0..S^L
    taken one product at a time: free = [(F S)^T, ..., (F S^L)^T];
    markov and reach stack (F S^s D)^T and (S^s D)^T from s = L-1 down
    to 0; leap = S^L."""
    powers = [np.eye(step.shape[0])]
    for _ in range(block):
        powers.append(powers[-1] @ step)
    lags = range(block - 1, -1, -1)
    free = np.hstack([(observe @ powers[s]).T for s in range(1, block + 1)])
    markov = np.vstack([(observe @ (powers[s] @ drive)).T for s in lags])
    reach = np.vstack([(powers[s] @ drive).T for s in lags])
    return free, markov, reach, powers[block]
