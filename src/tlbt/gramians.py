"""Reachability and observability Gramians, unrestricted and time-limited.

The unrestricted pair solves

    A P + P A^T + B B^T = 0,      A^T Q + Q A + C^T C = 0,

and the time-limited pair on [0, tbar] solves

    A P + P A^T + B B^T - F F^T = 0,
    A^T Q + Q A + C^T C - G^T G = 0,

with F = e^(A tbar) B and G = C e^(A tbar). For systems with a mass
matrix E the equations generalize to

    A P E^T + E P A^T + B B^T - F F^T = 0   (F = E e^(E^-1 A tbar) E^-1 B),
    A^T Q E + E^T Q A + C^T C - G^T G = 0   (G = C e^(E^-1 A tbar)),

where the pair acting as Gramians is (P, E^T Q E); GramianSet stores the
equation solutions P and Q and exposes the weighted observability matrix.

Every equation is solved in standard form (E^-1 A, E^-1 B, C) on the
system's memoized Schur record, which also holds F and G per horizon; Q
comes from the standard-form solution Q_std as Q = E^-T Q_std E^-1.

An independent Gauss-Legendre quadrature of the defining integrals is
provided as a cross-check oracle for the Lyapunov route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DimensionError, NotPsdError, StabilityError
from .linalg import (
    _require_separated,
    _schur_form,
    _solve_lyapunov,
    _solve_sylvester,
    as_matrix,
    expm,
    solve_lyapunov,
    spd_factor,
)
from .systems import StateSpaceSystem

__all__ = [
    "GramianSet",
    "HorizonData",
    "infinite_gramians",
    "time_limited_gramians",
    "gramian_quadrature_oracle",
    "cross_gramian_quadrature",
    "reduced_gramian",
    "mixed_gramian",
]


@dataclass(frozen=True)
class HorizonData:
    """End-of-horizon propagators F = e^(A tbar) B and G = C e^(A tbar)
    (E-weighted variants for systems with a mass matrix)."""

    tbar: float
    F: np.ndarray
    G: np.ndarray


@dataclass
class GramianSet:
    """A reachability/observability Gramian pair for one horizon.

    ``horizon`` is math.inf for the unrestricted pair. ``P`` and ``Q``
    are the Lyapunov-equation solutions; for systems with a mass matrix
    the observability Gramian proper is E^T Q E, available through
    :meth:`observability_weighted`. ``lowrank_P``/``lowrank_Q`` hold
    optional rank-revealing factors (P ~= Z Z^T).
    """

    P: np.ndarray
    Q: np.ndarray
    horizon: float
    lowrank_P: np.ndarray | None = None
    lowrank_Q: np.ndarray | None = None
    horizon_data: HorizonData | None = None

    def observability_weighted(self, e=None) -> np.ndarray:
        if e is None:
            return self.Q
        e = as_matrix(e, "E")
        return e.T @ self.Q @ e


def _require_hurwitz(eigvals: np.ndarray, label: str) -> None:
    bad = eigvals[eigvals.real >= 0]
    if bad.size:
        worst = bad[np.argmax(bad.real)]
        raise StabilityError(
            f"{label} must be Hurwitz for an unrestricted Gramian; found "
            f"{bad.size} eigenvalue(s) with Re >= 0, e.g. {worst:.6g}"
        )


def _operator_label(sys: StateSpaceSystem) -> str:
    return "A" if sys.E is None else "E^-1 A"


def _check_horizon(tbar, allow_inf: bool = False) -> float:
    tbar = float(tbar)
    if allow_inf and tbar == math.inf:
        return tbar
    if not (tbar > 0 and math.isfinite(tbar)):
        raise ValueError(f"tbar must be positive and finite, got {tbar}")
    return tbar


def _clamp_psd(x: np.ndarray, label: str, tol: float = 1e-10) -> np.ndarray:
    """Zero out negligible negative eigenvalues; reject significant ones."""
    evals, evecs = np.linalg.eigh(x)
    norm2 = float(np.max(np.abs(evals))) if evals.size else 0.0
    if norm2 == 0.0:
        return x
    if evals[0] < -tol * norm2:
        raise NotPsdError(
            f"{label} has eigenvalue {evals[0]:.6e} below -{tol:g} * ||.||_2; "
            "the computed Gramian is not numerically PSD"
        )
    if evals[0] >= 0:
        return x
    clamped = np.maximum(evals, 0.0)
    y = (evecs * clamped) @ evecs.T
    return (y + y.T) / 2.0


def _gramian_set(sys: StateSpaceSystem, w_p, w_q, horizon: float, factor_tol,
                 horizon_data: HorizonData | None = None) -> GramianSet:
    """Solve A_std P + P A_std^T = W_p on the system's Schur record and
    A_std^T Q + Q A_std = W_q on a transient Schur form of A_std^T.

    With a mass matrix the second solution is the standard-form Q_std,
    and the generalized equation's Q = E^-T Q_std E^-1 is stored.
    """
    s = sys._operator().schur
    _require_separated(s, s, "solve_lyapunov")
    p = _clamp_psd(_solve_lyapunov(s, w_p), "P")
    q = _solve_lyapunov(_schur_form(s.a.T, spectrum=False), w_q)
    if sys.E is not None:
        q = np.linalg.solve(sys.E.T, np.linalg.solve(sys.E.T, q).T)
        q = (q + q.T) / 2.0
    q = _clamp_psd(q, "Q")
    gset = GramianSet(P=p, Q=q, horizon=horizon, horizon_data=horizon_data)
    if factor_tol is not None:
        gset.lowrank_P = spd_factor(p, factor_tol)
        gset.lowrank_Q = spd_factor(q, factor_tol)
    return gset


def infinite_gramians(sys: StateSpaceSystem, factor_tol: float | None = None) -> GramianSet:
    """Gramians over [0, inf) of a Hurwitz system.

    Parameters
    ----------
    sys : StateSpaceSystem
    factor_tol : float, optional
        When given, also store rank-revealing factors of P and Q computed
        at this relative eigenvalue cutoff.

    Returns
    -------
    GramianSet with horizon = math.inf.
    """
    op = sys._operator()
    _require_hurwitz(op.schur.eigvals, _operator_label(sys))
    return _gramian_set(sys, -op.b @ op.b.T, -op.c.T @ op.c, math.inf, factor_tol)


def time_limited_gramians(sys: StateSpaceSystem, tbar: float, factor_tol: float | None = None) -> GramianSet:
    """Gramians over [0, tbar], with the horizon propagators attached.

    Solvable whenever Lambda(A) and -Lambda(A) do not overlap; stability
    is not required.
    """
    tbar = _check_horizon(tbar)
    op = sys._operator()
    f, g = op.propagators(tbar)
    b, c = op.b, op.c
    data = HorizonData(tbar=tbar, F=f if sys.E is None else sys.E @ f, G=g)
    return _gramian_set(sys, f @ f.T - b @ b.T, g.T @ g - c.T @ c, tbar, factor_tol, data)


def cross_gramian_quadrature(a1, b1, a2, b2, tbar: float, panels: int = 64) -> np.ndarray:
    """Composite Gauss-Legendre quadrature of int_0^tbar e^(A1 s) B1 B2^T e^(A2^T s) ds.

    Four nodes per panel; the integrand is entire, so the rule converges
    spectrally in the panel count. Serves as an oracle independent of the
    Sylvester-equation route.
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


def gramian_quadrature_oracle(sys: StateSpaceSystem, tbar: float, panels: int = 64) -> np.ndarray:
    """Reachability Gramian over [0, tbar] by direct quadrature."""
    op = sys._operator()
    return cross_gramian_quadrature(op.a, op.b, op.a, op.b, tbar, panels)


def reduced_gramian(rom, tbar: float) -> np.ndarray:
    """Reachability Gramian of a reduced model over [0, tbar].

    Solves A11 Pr + Pr A11^T + B1 B1^T - Fr Fr^T = 0 with
    Fr = e^(A11 tbar) B1.
    """
    tbar = _check_horizon(tbar)
    a11 = as_matrix(rom.A11, "A11")
    b1 = as_matrix(rom.B1, "B1")
    fr = expm(a11, tbar) @ b1
    return _clamp_psd(solve_lyapunov(a11, fr @ fr.T - b1 @ b1.T), "Pr")


def mixed_gramian(sys: StateSpaceSystem, rom, tbar: float) -> np.ndarray:
    """Cross Gramian int_0^tbar e^(A s) B B1^T e^(A11^T s) ds coupling a
    system and its reduced model, via the Sylvester route.

    ``tbar`` may be math.inf (both operators must then be Hurwitz). For a
    mass matrix E the integrand's left factor is e^(E^-1 A s) E^-1 B and
    the result solves A X + E X A11^T + B B1^T - F Fr^T = 0.
    """
    tbar = _check_horizon(tbar, allow_inf=True)
    a11 = as_matrix(rom.A11, "A11")
    b1 = as_matrix(rom.B1, "B1")
    if b1.shape[1] != sys.m:
        raise DimensionError(f"B1 has {b1.shape[1]} columns but the system has m = {sys.m}")
    op = sys._operator()
    s11 = _schur_form(a11)
    if math.isfinite(tbar):
        f, _ = op.propagators(tbar)
        fr = expm(a11, tbar) @ b1
        w = f @ fr.T - op.b @ b1.T
    else:
        _require_hurwitz(op.schur.eigvals, _operator_label(sys))
        _require_hurwitz(s11.eigvals, "A11")
        w = -op.b @ b1.T
    _require_separated(op.schur, s11, "solve_sylvester")
    return _solve_sylvester(op.schur, s11, w)
