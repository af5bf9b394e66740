"""Square-root balancing and truncation.

Given the standard-form Gramian factors P ~= Zp Zp^T and Q ~= Zq Zq^T of
a :class:`GramianSet`, the singular value decomposition U S V^T = Zq^T Zp
yields the truncation projectors

    W = Zq U_r S_r^(-1/2),    V = Zp V_r S_r^(-1/2),

with W^T V = I_r, and the reduced model (W^T A V, W^T B, C V) of the
standard form (A, B, C) = (E^-1 A, E^-1 B, C). The singular values are
the (time-limited) Hankel singular values. The system's operator
record (``systems``) forms W^T A V and W^T B on its own factorization of
A. :func:`balance` is the only balancing: for a positive definite pair
its full-order W and V are the balancing transform and its inverse
(W^T P W = V^T Q V = diag(sigma)), which is how the bounds' balanced-
coordinates route reads them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError
from .gramians import GramianSet
from .linalg import as_matrix
from .systems import StateSpaceSystem

__all__ = [
    "BalancingResult",
    "ReducedModel",
    "balance",
    "truncate",
    "select_order",
]

# singular values below this relative cutoff are treated as rank-deficient
_SIGMA_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class BalancingResult:
    """Projectors and singular values from one balancing run.

    ``singular_values`` holds the full computed spectrum (length n_hat,
    the numerical rank of the Gramian product); ``V`` and ``W`` are the
    n x r truncation bases.
    """

    singular_values: np.ndarray
    V: np.ndarray
    W: np.ndarray
    horizon: float
    r: int

    @property
    def n_hat(self) -> int:
        return self.singular_values.size

    def reduce_to(self, r: int) -> "BalancingResult":
        """Same factorization, truncated to a smaller order."""
        if not (1 <= r <= self.r):
            raise ValueError(f"r must be in [1, {self.r}], got {r}")
        return replace(self, V=self.V[:, :r], W=self.W[:, :r], r=r)


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Reduced realization (A11, B1, C1) of order r: A11 is r x r, B1 has
    r rows and C1 has r columns. The mass matrix of the parent system,
    if any, reduces to the identity."""

    A11: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    r: int
    horizon: float
    parent_name: str = "system"

    def __post_init__(self):
        r = self.r
        a11, b1, c1 = (as_matrix(getattr(self, name), name) for name in ("A11", "B1", "C1"))
        if a11.shape != (r, r):
            raise DimensionError(f"A11 must have shape {(r, r)} for r = {r}, got {a11.shape}")
        if b1.shape[0] != r:
            raise DimensionError(f"B1 has {b1.shape[0]} rows but r = {r}")
        if c1.shape[1] != r:
            raise DimensionError(f"C1 has {c1.shape[1]} columns but r = {r}")
        for name, mat in (("A11", a11), ("B1", b1), ("C1", c1)):
            object.__setattr__(self, name, mat)

    def as_system(self) -> StateSpaceSystem:
        return StateSpaceSystem(
            A=self.A11, B=self.B1, C=self.C1, name=f"{self.parent_name}-r{self.r}"
        )


def balance(gramians: GramianSet, sys: StateSpaceSystem) -> BalancingResult:
    """Square-root balancing of a system against a Gramian pair.

    Parameters
    ----------
    gramians : GramianSet
        Pair produced by :func:`tlbt.gramians.infinite_gramians` or
        :func:`tlbt.gramians.time_limited_gramians` for ``sys``; its
        factors are used as they are.
    sys : StateSpaceSystem

    Returns
    -------
    BalancingResult
        Of order n_hat, the numerical rank of the Gramian product;
        ``reduce_to(r)`` truncates it.

    Raises
    ------
    ValueError
        For a degenerate pair.
    """
    n = sys.n
    zp, zq = gramians.lowrank_P, gramians.lowrank_Q
    if zp.shape[0] != n or zq.shape[0] != n:
        raise DimensionError(f"Gramians of order {zp.shape[0]} do not match the system dimension {n}")
    if zp.shape[1] == 0 or zq.shape[1] == 0:
        raise ValueError("degenerate Gramian pair: a Gramian factor has rank 0")
    u, sigma, vt = np.linalg.svd(zq.T @ zp, full_matrices=False)
    n_hat = int(np.count_nonzero(sigma > _SIGMA_RTOL * sigma[0])) if sigma.size else 0
    if n_hat == 0:
        raise ValueError("degenerate Gramian pair: all singular values are numerically zero")
    sigma = sigma[:n_hat]
    scale = 1.0 / np.sqrt(sigma)
    w = zq @ (u[:, :n_hat] * scale)
    v = zp @ (vt[:n_hat, :].T * scale)
    return BalancingResult(singular_values=sigma, V=v, W=w, horizon=gramians.horizon, r=n_hat)


def truncate(sys: StateSpaceSystem, bal: BalancingResult) -> ReducedModel:
    """Petrov-Galerkin reduction (W^T A V, W^T B, C V) of order bal.r of
    the standard form (A, B, C) = (E^-1 A, E^-1 B, C)."""
    if bal.V.shape[0] != sys.n:
        raise DimensionError(
            f"balancing bases have {bal.V.shape[0]} rows but the system dimension is {sys.n}"
        )
    a11, b1 = sys._operator().project(bal.W, bal.V)
    return ReducedModel(
        A11=a11,
        B1=b1,
        C1=sys.C @ bal.V,
        r=bal.r,
        horizon=bal.horizon,
        parent_name=sys.name,
    )


def select_order(singular_values, tau: float) -> int:
    """Smallest order r >= 1 whose discarded tail sum does not exceed tau.

    ``singular_values`` must be nonincreasing and positive; returns the
    full length if even the empty tail is needed.
    """
    sigma = _singular_values(singular_values)
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    # tails[r] = sum of sigma[r:], the part discarded when keeping r values;
    # tails[n] = 0 <= tau, so some r qualifies
    tails = np.concatenate([np.cumsum(sigma[::-1])[::-1], [0.0]])
    return int(np.argmax(tails[1:] <= tau)) + 1


def _singular_values(values) -> np.ndarray:
    """``values`` as a flat float array, checked to be a nonempty,
    positive and nonincreasing list of singular values."""
    sigma = np.asarray(values, dtype=float).ravel()
    if sigma.size == 0:
        raise ValueError("singular value list is empty")
    if np.any(sigma <= 0) or np.any(np.diff(sigma) > 0):
        raise ValueError("singular values must be positive and nonincreasing")
    return sigma
