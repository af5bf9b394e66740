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
The record hands each Gramian over factored, as a basis X and a root R
with P = (X R)(X R)^T. The eigen record builds a finite horizon's R by
pivoted Cholesky from the closed-form columns of the core C with
P = X C X^T, stopping once the remaining diagonal sums to 1e-12 of C's
largest diagonal entry; its unrestricted pair, the Schur record and a
hand-built set take R from one eigendecomposition of C, cut at
eigenvalues of 1e-12 ||C||_2. Either way a core that is not
numerically PSD is refused. With a mass matrix the eigenbasis is
E-orthonormal, so the PSD check and the cutoffs apply in the E inner
product. Dense P and Q are formed only when read.

The independent Gauss-Legendre quadrature of the defining integrals
that checks the Lyapunov route is a test oracle, in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
import threading
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

    Each Gramian is held as P = X C X^T with C = R R^T: the operator
    record's basis X and the root R it factored the core C into, or
    X = I for a hand-built ``GramianSet(P=, Q=, horizon=)``.
    ``lowrank_P``/``lowrank_Q`` are the rank-revealing factors X Z, Z the
    leading columns of R. A finite horizon's pair on the eigenbasis of a
    symmetric-definite model comes from pivoted Cholesky, and R = Z
    (tr(C - Z Z^T) <= 1e-12 max C_ii). Every other pair, and a
    hand-built one, takes R from one eigendecomposition per core, which
    checks that C is numerically PSD (no eigenvalue below
    -1e-10 ||C||_2); R spans C's positive eigenvalues and Z its
    eigenvalues above 1e-12 ||C||_2. C has P's spectrum for an
    orthogonal X, and P E's for the E-orthonormal eigenbasis of a model
    with mass matrix E. Dense ``P`` and ``Q`` = (X R)(X R)^T are formed
    on first read, which releases the R kept for them. The set is
    frozen.
    """

    horizon: float
    lowrank_P: np.ndarray = field(repr=False)
    lowrank_Q: np.ndarray = field(repr=False)

    def __init__(self, P, Q, horizon: float):
        self._factor(horizon, P=(None, *_psd_factor(_symmetric(P, "P"), "P")),
                     Q=(None, *_psd_factor(_symmetric(Q, "Q"), "Q")))

    @classmethod
    def _of(cls, horizon: float, p: tuple, q: tuple) -> "GramianSet":
        """The set of an operator record's factors (X, R, k) of P and Q."""
        gset = cls.__new__(cls)
        gset._factor(horizon, P=p, Q=q)
        return gset

    def _factor(self, horizon: float, **factors) -> None:
        held = {}
        for name, (basis, root, k) in factors.items():
            object.__setattr__(self, "lowrank_" + name, root[:, :k] if basis is None else basis @ root[:, :k])
            held[name] = (basis, root)
        n_p, n_q = self.lowrank_P.shape[0], self.lowrank_Q.shape[0]
        if n_p != n_q:
            raise DimensionError(f"P and Q must have equal shapes, got {(n_p, n_p)} and {(n_q, n_q)}")
        for name, value in (("horizon", horizon), ("_held", held), ("_lock", threading.Lock())):
            object.__setattr__(self, name, value)

    def _dense(self, name: str) -> np.ndarray:
        with self._lock:
            held = self._held[name]
            if isinstance(held, tuple):
                w = held[1] if held[0] is None else held[0] @ held[1]
                held = self._held[name] = w @ w.T
            return held

    P = property(lambda self: self._dense("P"), doc="The dense reachability Gramian.")
    Q = property(lambda self: self._dense("Q"), doc="The dense observability Gramian.")


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
    w = s11.z @ _psd_factor(_lyapunov_core(s11, fr @ fr.T - b1 @ b1.T), "Pr")[0]
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
