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
of the core C with P = X C X^T and C = R R^T, and the number k of
leading columns of R that form the cut factor. The eigen record builds a
finite horizon's R by pivoted Cholesky from the closed-form columns of
C, stopping once the remaining diagonal sums to 1e-12 of C's largest
diagonal entry, and keeps all of it. Its unrestricted pair, the Schur
record and a hand-built set take R from one eigendecomposition of C,
over all positive eigenvalues, and k counts those above 1e-12 ||C||_2.
Either way a core that is not numerically PSD is refused. With a mass
matrix the eigenbasis is E-orthonormal, so the PSD check and the
cutoffs apply in the E inner product.

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

    ``lowrank_P`` and ``lowrank_Q`` are the cut factors Z = X R[:, :k]
    that balancing reads (see the module docstring). The set also holds
    each root X R over all of the core's positive eigenvalues, all
    read-only, and ``P`` and ``Q`` are (X R)(X R)^T, formed on each
    read, so they keep the core's eigenvalues below the cut. On the
    pivoted Cholesky route the root is Z itself. A hand-built
    ``GramianSet(P=, Q=, horizon=)`` factors P and Q by one
    eigendecomposition each, with X = I. The set is frozen.
    """

    horizon: float
    lowrank_P: np.ndarray = field(repr=False)
    lowrank_Q: np.ndarray = field(repr=False)

    def __init__(self, P, Q, horizon: float):
        self._hold(horizon, *((None, *_psd_factor(_symmetric(g, name), name)) for name, g in (("P", P), ("Q", Q))))

    @classmethod
    def _of(cls, horizon: float, p: tuple, q: tuple) -> "GramianSet":
        """The set of an operator record's factors (X, R, k) of P and Q."""
        gset = cls.__new__(cls)
        gset._hold(horizon, p, q)
        return gset

    def _hold(self, horizon: float, *factors) -> None:
        def times(basis, root):
            return root if basis is None else basis @ root

        roots = tuple(times(basis, root) for basis, root, _ in factors)
        n_p, n_q = (w.shape[0] for w in roots)
        if n_p != n_q:
            raise DimensionError(f"P and Q must have equal shapes, got {(n_p, n_p)} and {(n_q, n_q)}")
        # Z is the product of the k leading columns, not a view of the
        # root's: a GEMM's rounding depends on its width, and balancing
        # must not depend on the columns below the cut
        z_p, z_q = (w if k == root.shape[1] else times(basis, root[:, :k])
                    for w, (basis, root, k) in zip(roots, factors))
        for a in (*roots, z_p, z_q):
            a.flags.writeable = False
        for name, value in (("horizon", horizon), ("lowrank_P", z_p), ("lowrank_Q", z_q), ("_roots", roots)):
            object.__setattr__(self, name, value)

    P = property(lambda self: self._roots[0] @ self._roots[0].T, doc="The dense reachability Gramian.")
    Q = property(lambda self: self._roots[1] @ self._roots[1].T, doc="The dense observability Gramian.")


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
