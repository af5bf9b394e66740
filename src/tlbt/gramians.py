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
The record hands each Gramian over factored, in its own coordinates:
as a basis X and a factor L of the core C with P = X C X^T and
C ~= L L^T, where the bases X_P of P and X_Q of Q satisfy
X_Q^T X_P = I (``systems._Record``). The set keeps the pairs (X, L);
balancing and the bounds read the cores L, and the n-row factors
Z = X L are formed only when ``lowrank_P``, ``lowrank_Q``, ``P`` or
``Q`` is read. A finite horizon's L
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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import _lyapunov_core, _psd_factor, _require_hurwitz, _symmetric
from .systems import StateSpaceSystem, _lift

__all__ = ["GramianSet", "infinite_gramians", "time_limited_gramians"]


@dataclass(frozen=True, init=False, eq=False)
class GramianSet:
    """A reachability/observability Gramian pair for one horizon, in
    standard form; ``horizon`` is math.inf for the unrestricted pair.

    ``lowrank_P`` and ``lowrank_Q`` are the rank-revealing factors
    Z = X L (see the module docstring), read-only, and ``P`` and ``Q``
    are Z Z^T; all four are formed on each read. Balancing reads the
    cores L instead. A hand-built ``GramianSet(P=, Q=, horizon=)``
    factors P and Q by one eigendecomposition each, with X = I, and
    checks the horizon. The set is frozen.
    """

    horizon: float

    def __init__(self, P, Q, horizon: float):
        self._hold(_check_horizon(horizon, allow_inf=True),
                   *((None, _psd_factor(_symmetric(g, name), name)) for name, g in (("P", P), ("Q", Q))))

    @classmethod
    def _of(cls, horizon: float, p: tuple, q: tuple) -> "GramianSet":
        """The set of an operator record's pairs (basis, factor) of P and Q."""
        gset = cls.__new__(cls)
        gset._hold(horizon, p, q)
        return gset

    def _hold(self, horizon: float, p: tuple, q: tuple) -> None:
        # a core has n rows: a record's basis is n x n, a hand-built factor's is I
        n_p, n_q = p[1].shape[0], q[1].shape[0]
        if n_p != n_q:
            raise DimensionError(f"P and Q must have equal shapes, got {(n_p, n_p)} and {(n_q, n_q)}")
        p[1].flags.writeable = q[1].flags.writeable = False
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "_pairs", (p, q))

    def _cores(self, sys: StateSpaceSystem):
        """L_P, then L_Q, in the coordinates of the system's operator
        record, each on demand: a hand-built set, or one made on another
        record, is moved into them here, one side at a time."""
        if self._pairs[0][1].shape[0] != sys.n:
            raise DimensionError(f"the Gramians are of order {self._pairs[0][1].shape[0]} "
                                 f"but the system has n = {sys.n}")
        op = sys._operator()
        return (op.core(pair, side) for side, pair in enumerate(self._pairs))

    lowrank_P = property(lambda self: _lift(self._pairs[0]), doc="The factor Z_P of P ~= Z_P Z_P^T.")
    lowrank_Q = property(lambda self: _lift(self._pairs[1]), doc="The factor Z_Q of Q ~= Z_Q Z_Q^T.")

    P = property(lambda self: _outer(self.lowrank_P), doc="The dense reachability Gramian.")
    Q = property(lambda self: _outer(self.lowrank_Q), doc="The dense observability Gramian.")


def _outer(z: np.ndarray) -> np.ndarray:
    """Z Z^T, reading the factor Z once."""
    return z @ z.T


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


def _mixed_core(sys: StateSpaceSystem, s11, b1: np.ndarray, fr, tbar: float) -> np.ndarray:
    """Cross Gramian Pm = int_0^tbar e^(A s) B B1^T e^(A11^T s) ds of the
    system's standard form and a reduced model, as its core M in the
    operator record's coordinates (Pm = X_P M), on the Schur form of A11
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
