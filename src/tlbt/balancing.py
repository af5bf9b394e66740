"""Square-root balancing and truncation.

Given the standard-form Gramian factors P ~= Zp Zp^T and Q ~= Zq Zq^T of
a :class:`GramianSet`, the singular value decomposition U S V^T = Zq^T Zp
yields the truncation projectors

    W = Zq U_r S_r^(-1/2),    V = Zp V_r S_r^(-1/2),

with W^T V = I_r, and the reduced model (W^T A V, W^T B, C V) of the
standard form (A, B, C) = (E^-1 A, E^-1 B, C). The singular values are
the (time-limited) Hankel singular values.

Both steps run in the coordinates of the system's operator record
(``systems``): there Zp = X_P Lp and Zq = X_Q Lq with X_Q^T X_P = I, so
Zq^T Zp = Lq^T Lp, and V = X_P Vc, W = X_Q Wc with the core projectors
Vc = Lp V_r S_r^(-1/2) and Wc = Lq U_r S_r^(-1/2). The record forms the
reduced model from Vc and Wc on its own factorization of A; the n x r
bases V and W are formed only when read. A hand-built Gramian pair or
:class:`BalancingResult`, or one made on another record, is moved into
the record's coordinates once. :func:`balance` is the only balancing:
for a positive definite pair its full-order W and V are the balancing
transform and its inverse (W^T P W = V^T Q V = diag(sigma)), which is
how the bounds' balanced-coordinates route reads them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .gramians import GramianSet
from .linalg import as_matrix
from .systems import StateSpaceSystem, _lift, _readonly

__all__ = [
    "BalancingResult",
    "ReducedModel",
    "balance",
    "truncate",
    "select_order",
]

# singular values below this relative cutoff are treated as rank-deficient
_SIGMA_RTOL = 1e-14


@dataclass(frozen=True, init=False, eq=False)
class BalancingResult:
    """Projectors and singular values from one balancing run.

    ``singular_values`` holds the full computed spectrum (length n_hat,
    the numerical rank of the Gramian product); ``V`` and ``W`` are the
    n x r truncation bases, read-only and formed on each read from the
    core projectors that truncation reads (see the module docstring).
    """

    singular_values: np.ndarray
    horizon: float
    r: int

    def __init__(self, singular_values, V, W, horizon: float, r: int):
        self._hold(singular_values, horizon, r, (None, _readonly(V)), (None, _readonly(W)))

    @classmethod
    def _of(cls, singular_values, horizon: float, r: int, v: tuple, w: tuple) -> "BalancingResult":
        """The result on the pairs (basis, core) of V and W."""
        bal = cls.__new__(cls)
        bal._hold(singular_values, horizon, r, v, w)
        return bal

    def _hold(self, singular_values, horizon: float, r: int, v: tuple, w: tuple) -> None:
        for name, value in (("singular_values", singular_values), ("horizon", horizon), ("r", r),
                            ("_pairs", (v, w))):
            object.__setattr__(self, name, value)

    V = property(lambda self: _lift(self._pairs[0]), doc="The n x r basis V, W^T V = I.")
    W = property(lambda self: _lift(self._pairs[1]), doc="The n x r basis W.")

    @property
    def n_hat(self) -> int:
        return self.singular_values.size

    def reduce_to(self, r: int) -> "BalancingResult":
        """Same factorization, truncated to a smaller order."""
        r = _check_order(r, 1, self.r)
        return self._of(self.singular_values, self.horizon, r, *((basis, core[:, :r]) for basis, core in self._pairs))


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
    lp, lq = gramians._cores(sys)
    if lp.shape[1] == 0 or lq.shape[1] == 0:
        raise ValueError("degenerate Gramian pair: a Gramian factor has rank 0")
    u, sigma, vt = np.linalg.svd(lq.T @ lp, full_matrices=False)
    n_hat = int(np.count_nonzero(sigma > _SIGMA_RTOL * sigma[0])) if sigma.size else 0
    if n_hat == 0:
        raise ValueError("degenerate Gramian pair: all singular values are numerically zero")
    sigma = sigma[:n_hat]
    scale = 1.0 / np.sqrt(sigma)
    x_p, x_q = sys._operator().bases
    return BalancingResult._of(sigma, gramians.horizon, n_hat, (x_p, lp @ (vt[:n_hat, :].T * scale)),
                               (x_q, lq @ (u[:, :n_hat] * scale)))


def truncate(sys: StateSpaceSystem, bal: BalancingResult) -> ReducedModel:
    """Petrov-Galerkin reduction (W^T A V, W^T B, C V) of order bal.r of
    the standard form (A, B, C) = (E^-1 A, E^-1 B, C), formed by the
    operator record from the core projectors."""
    rows = bal._pairs[0][1].shape[0]
    if rows != sys.n:
        raise DimensionError(f"balancing bases have {rows} rows but the system dimension is {sys.n}")
    op = sys._operator()
    vc, wc = (op.core(pair, side) for side, pair in enumerate(bal._pairs))
    a11, b1, c1 = op.project(wc, vc)
    return ReducedModel(A11=a11, B1=b1, C1=c1, r=bal.r, horizon=bal.horizon, parent_name=sys.name)


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


def _check_order(r, low: int, high: int) -> int:
    """r as an int; ValueError unless it is an integer in [low, high]
    (a bool is not: True must not pass as 1)."""
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
        raise ValueError(f"r must be an integer, got {r!r}")
    if not (low <= r <= high):
        raise ValueError(f"r must be in [{low}, {high}], got {r}")
    return int(r)


def _singular_values(values) -> np.ndarray:
    """``values`` as a flat float array, checked to be a nonempty,
    positive and nonincreasing list of singular values."""
    sigma = np.asarray(values, dtype=float).ravel()
    if sigma.size == 0:
        raise ValueError("singular value list is empty")
    if np.any(sigma <= 0) or np.any(np.diff(sigma) > 0):
        raise ValueError("singular values must be positive and nonincreasing")
    return sigma
