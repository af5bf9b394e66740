"""Square-root balancing and truncation.

Given the standard-form Gramian factors P ~= Zp Zp^T and Q ~= Zq Zq^T of
a :class:`GramianSet`, the singular value decomposition U S V^T = Zq^T Zp
yields the truncation projectors

    W = Zq U_r S_r^(-1/2),    V = Zp V_r S_r^(-1/2),

with W^T V = I_r, and the reduced model (W^T A V, W^T B, C V) of the
standard form (A, B, C) = (E^-1 A, E^-1 B, C). The singular values are
the (time-limited) Hankel singular values. The system's operator
record (``systems``) forms W^T A V and W^T B on its own factorization of
A. The bounds' balanced-coordinates route builds the dense transform S
with S P S^T = S^-T Q S^-1 = diag(sigma) from the factors of positive
definite Gramians; its dense-argument wrapper, for tests, is in
``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError
from .gramians import GramianSet
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
    """Reduced realization (A11, B1, C1) of order r. The mass matrix of
    the parent system, if any, reduces to the identity."""

    A11: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    r: int
    horizon: float
    parent_name: str = "system"

    def as_system(self) -> StateSpaceSystem:
        return StateSpaceSystem(
            A=self.A11, B=self.B1, C=self.C1, name=f"{self.parent_name}-r{self.r}"
        )


def balance(gramians: GramianSet, sys: StateSpaceSystem, r: int | None = None) -> BalancingResult:
    """Square-root balancing of a system against a Gramian pair.

    Parameters
    ----------
    gramians : GramianSet
        Pair produced by :func:`tlbt.gramians.infinite_gramians` or
        :func:`tlbt.gramians.time_limited_gramians` for ``sys``; its
        factors are used as they are.
    sys : StateSpaceSystem
    r : int, optional
        Truncation order; defaults to the numerical rank n_hat.

    Returns
    -------
    BalancingResult

    Raises
    ------
    ValueError
        For r > n_hat (the message reports n_hat) or a degenerate pair.
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
    if r is None:
        r = n_hat
    if not (1 <= r <= n_hat):
        raise ValueError(f"requested order r = {r} is outside [1, n_hat = {n_hat}]")
    scale = 1.0 / np.sqrt(sigma[:r])
    w = zq @ (u[:, :r] * scale)
    v = zp @ (vt[:r, :].T * scale)
    return BalancingResult(singular_values=sigma, V=v, W=w, horizon=gramians.horizon, r=r)


def _balancing_transform(zp: np.ndarray, zq: np.ndarray):
    """Dense balancing transform (S, S_inv, sigma) with
    S P S^T = S^-T Q S^-1 = diag(sigma), from the rank-revealing factors
    of positive definite P and Q. Raises for rank-deficient input and
    suggests the projection route."""
    n = zp.shape[0]
    if zp.shape[1] < n or zq.shape[1] < n:
        raise ValueError(
            f"P and Q must be positive definite (numerical ranks {zp.shape[1]}, {zq.shape[1]} < n = {n}); "
            "for semidefinite pairs use balance(), which truncates instead"
        )
    u, sigma, vt = np.linalg.svd(zq.T @ zp, full_matrices=False)
    if sigma[-1] <= _SIGMA_RTOL * sigma[0]:
        raise ValueError("Gramian product is numerically rank deficient; use balance() instead")
    scale = 1.0 / np.sqrt(sigma)
    s = (scale[:, None] * u.T) @ zq.T
    s_inv = zp @ (vt.T * scale)
    err = np.linalg.norm(s @ s_inv - np.eye(n))
    if err > 1e-8 * math.sqrt(n):
        raise ArithmeticError(
            f"balancing transform failed the identity check: ||S S^-1 - I|| = {err:.3e}; "
            "the Gramian pair is too ill-conditioned for a dense transform"
        )
    return s, s_inv, sigma


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
    sigma = np.asarray(singular_values, dtype=float).ravel()
    if sigma.size == 0:
        raise ValueError("singular value list is empty")
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    if np.any(sigma <= 0) or np.any(np.diff(sigma) > 0):
        raise ValueError("singular values must be positive and nonincreasing")
    # tail[r] = sum of sigma[r:], the part discarded when keeping r values
    tails = np.concatenate([np.cumsum(sigma[::-1])[::-1], [0.0]])
    for r in range(1, sigma.size + 1):
        if tails[r] <= tau:
            return r
    return sigma.size
