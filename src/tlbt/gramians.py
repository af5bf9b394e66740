"""Reachability and observability Gramians, unrestricted and time-limited.

The unrestricted pair solves

    A P + P A^T + B B^T = 0,      A^T Q + Q A + C^T C = 0,

and the time-limited pair on [0, tbar] solves

    A P + P A^T + B B^T - F F^T = 0,
    A^T Q + Q A + C^T C - G^T G = 0,

with F = e^(A tbar) B and G = C e^(A tbar). A system with a mass matrix
E is handled through its standard form (A, B, C) = (E^-1 A, E^-1 B, C),
and both Gramians are those of the standard form. (In the generalized
equations' terms, P is unchanged and Q is the observability Gramian
proper E^T Q_gen E.)

Both Gramians, the propagators and the mixed Gramian of a system and a
reduced model come from the system's memoized operator record
(``systems``), the one place that knows how A is factored: closed forms
on the eigenbasis of a symmetric-definite model, Bartels-Stewart on the
real Schur form of A for every other one. This module checks the
arguments and the hypotheses and wraps the result.

A :class:`GramianSet` is the hand-off to balancing and to the bounds.
The record hands each Gramian over factored, as a basis X and a factor
L of the core C with P = X C X^T and C ~= L L^T. A finite horizon's L
comes from pivoted Cholesky on both records: from the closed-form
columns of C on the eigenbasis, from the dense C on the Schur form,
stopping once the remaining diagonal sums to 1e-12 of C's largest
diagonal entry. The unrestricted pair, a hand-built set and a reduced
model's Gramian take L from one eigendecomposition of C, over the
eigenvalues above 1e-12 ||C||_2. Either way a core that is not
numerically PSD is refused. With a mass matrix the eigenbasis is
E-orthonormal, so the PSD check and the cutoffs apply in the E inner
product.

The independent Gauss-Legendre quadrature of the defining integrals
that checks the Lyapunov route is a test oracle, in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .linalg import _lyapunov_core, _psd_factor, _require_hurwitz, _symmetric
from .systems import StateSpaceSystem

__all__ = ["GramianSet", "infinite_gramians", "time_limited_gramians"]


@dataclass(frozen=True, init=False, eq=False)
class GramianSet:
    """A reachability/observability Gramian pair for one horizon, in
    standard form; ``horizon`` is math.inf for the unrestricted pair.

    ``lowrank_P`` and ``lowrank_Q`` are the rank-revealing factors
    Z = X L that balancing reads (see the module docstring), read-only,
    and ``P`` and ``Q`` are Z Z^T, formed on each read. A hand-built
    ``GramianSet(P=, Q=, horizon=)`` factors P and Q by one
    eigendecomposition each, with X = I, and checks the horizon. The
    set is frozen.
    """

    horizon: float
    lowrank_P: np.ndarray = field(repr=False)
    lowrank_Q: np.ndarray = field(repr=False)

    def __init__(self, P, Q, horizon: float):
        self._hold(_check_horizon(horizon, allow_inf=True),
                   *(_psd_factor(_symmetric(g, name), name) for name, g in (("P", P), ("Q", Q))))

    @classmethod
    def _of(cls, horizon: float, p: tuple, q: tuple) -> "GramianSet":
        """The set of an operator record's pairs (basis, factor) of P and Q."""
        gset = cls.__new__(cls)
        gset._hold(horizon, *(basis @ factor for basis, factor in (p, q)))
        return gset

    def _hold(self, horizon: float, z_p: np.ndarray, z_q: np.ndarray) -> None:
        n_p, n_q = z_p.shape[0], z_q.shape[0]
        if n_p != n_q:
            raise DimensionError(f"P and Q must have equal shapes, got {(n_p, n_p)} and {(n_q, n_q)}")
        z_p.flags.writeable = z_q.flags.writeable = False
        for name, value in (("horizon", horizon), ("lowrank_P", z_p), ("lowrank_Q", z_q)):
            object.__setattr__(self, name, value)

    P = property(lambda self: self.lowrank_P @ self.lowrank_P.T, doc="The dense reachability Gramian.")
    Q = property(lambda self: self.lowrank_Q @ self.lowrank_Q.T, doc="The dense observability Gramian.")


def _check_horizon(tbar, allow_inf: bool = False) -> float:
    tbar = float(tbar)
    if allow_inf and tbar == math.inf:
        return tbar
    if not (tbar > 0 and math.isfinite(tbar)):
        raise ValueError(f"tbar must be positive and finite, got {tbar}")
    return tbar


def infinite_gramians(sys: StateSpaceSystem) -> GramianSet:
    """Gramians over [0, inf) of a Hurwitz system.

    Returns
    -------
    GramianSet with horizon = math.inf.
    """
    op = sys._operator()
    _require_hurwitz(op, op.label, "an unrestricted Gramian")
    return GramianSet._of(math.inf, *op.gramians(math.inf))


def time_limited_gramians(sys: StateSpaceSystem, tbar: float) -> GramianSet:
    """Gramians over [0, tbar].

    Solvable whenever Lambda(A) and -Lambda(A) do not overlap (always on
    the eigenbasis of a symmetric-definite model); stability is not
    required.
    """
    tbar = _check_horizon(tbar)
    return GramianSet._of(tbar, *sys._operator().gramians(tbar))


def _reduced_gramian(s11, b1: np.ndarray, fr: np.ndarray) -> np.ndarray:
    """Reachability Gramian Pr of a reduced model over [0, tbar], the
    solution of A11 Pr + Pr A11^T + B1 B1^T - Fr Fr^T = 0 with
    Fr = e^(A11 tbar) B1, on the Schur form of A11; the caller checks
    that Lambda(A11) and -Lambda(A11) are separated."""
    w = s11.z @ _psd_factor(_lyapunov_core(s11, fr @ fr.T - b1 @ b1.T), "Pr")
    return w @ w.T


def _mixed_gramian(sys: StateSpaceSystem, s11, b1: np.ndarray, fr, tbar: float) -> np.ndarray:
    """Cross Gramian int_0^tbar e^(A s) B B1^T e^(A11^T s) ds of the
    system's standard form and a reduced model, on the Schur form of A11
    and Fr = e^(A11 tbar) B1 (None for tbar = inf, where both operators
    must be Hurwitz); the caller checks that Lambda(A) and -Lambda(A11)
    are separated."""
    if b1.shape[1] != sys.m:
        raise DimensionError(f"B1 has {b1.shape[1]} columns but the system has m = {sys.m}")
    op = sys._operator()
    if not math.isfinite(tbar):
        _require_hurwitz(op, op.label, "an unrestricted Gramian")
        _require_hurwitz(s11, "A11", "an unrestricted Gramian")
    return op.mixed(s11, b1, fr, tbar)
