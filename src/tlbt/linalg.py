"""Dense linear-algebra kernels used throughout the toolkit.

Provides the matrix exponential, Sylvester/Lyapunov solvers, a
rank-revealing factorization of symmetric positive semidefinite matrices,
and a spectrum-separation check that guards the solvers' uniqueness
condition.

Every Sylvester/Lyapunov solve is Bartels-Stewart on real Schur forms;
the triangular equation goes through a recursive blocked kernel (after
Jonsson and Kagstrom's RECSY) whose leaves are LAPACK dtrsyl calls. The
public solvers factor their arguments on every call. A system's operator
is factored once and its Schur form kept on the system (see
``systems``); the package's Gramian routines solve on that form, and
on the same form for A^T when the operator is exactly symmetric.

Matrices are numpy float64 arrays in C (row-major) order. The functions
here keep no state, so they are safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, NotPsdError, SpectrumSeparationError

__all__ = [
    "SpectrumSeparation",
    "as_matrix",
    "expm",
    "solve_sylvester",
    "solve_lyapunov",
    "spd_factor",
    "spectrum_separation",
]

# the blocked Sylvester kernel hands diagonal blocks of at most this
# order to LAPACK dtrsyl
_TRSYL_BLOCK = 64


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-d float64 array.

    Rejects empty or non-finite input; error messages name the offending
    matrix so callers can pass through user-facing labels.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must have at least one row and one column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _square(a, name: str) -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def _symmetric(a, name: str) -> np.ndarray:
    """Square matrix that is symmetric to 1e-10 relative (Frobenius)."""
    arr = _square(a, name)
    if np.linalg.norm(arr - arr.T) > 1e-10 * max(np.linalg.norm(arr), 1e-300):
        raise ValueError(f"{name} must be symmetric")
    return arr


@dataclass(frozen=True)
class SpectrumSeparation:
    """Result of a pairwise eigenvalue-separation check.

    ``min_sum_abs`` is min |lambda_i + mu_j| over eigenvalues lambda of the
    first matrix and mu of the second; ``worst_pair`` is an attaining pair.
    ``is_separated`` reports min_sum_abs > tolerance.
    """

    min_sum_abs: float
    is_separated: bool
    tolerance: float
    worst_pair: tuple[complex, complex]


def spectrum_separation(a1, a2, tol: float | None = None) -> SpectrumSeparation:
    """Check Lambda(A1) and -Lambda(A2) for overlap.

    Parameters
    ----------
    a1, a2 : array_like
        Square matrices; they may have different sizes.
    tol : float, optional
        Separation threshold. Defaults to 1e-8 * (||A1||_2 + ||A2||_2).

    Returns
    -------
    SpectrumSeparation
    """
    a1 = _square(a1, "A1")
    a2 = _square(a2, "A2")
    if tol is None:
        tol = 1e-8 * (np.linalg.norm(a1, 2) + np.linalg.norm(a2, 2))
    return _separation(np.linalg.eigvals(a1), np.linalg.eigvals(a2), tol)


def _separation(lam: np.ndarray, mu: np.ndarray, tol: float) -> SpectrumSeparation:
    sums = np.abs(lam[:, None] + mu[None, :])
    i, j = np.unravel_index(np.argmin(sums), sums.shape)
    min_sum = float(sums[i, j])
    return SpectrumSeparation(
        min_sum_abs=min_sum,
        is_separated=min_sum > tol,
        tolerance=float(tol),
        worst_pair=(complex(lam[i]), complex(mu[j])),
    )


@dataclass(frozen=True)
class _SchurForm:
    """Real Schur form A = Z T Z^T of a square matrix.

    ``symmetric`` records A^T == A exactly. ``eigvals`` are read off T's
    1x1 and 2x2 diagonal blocks and ``norm2`` is ||A||_2 (for a
    symmetric A its spectral radius, otherwise an SVD); both are None
    for a form built without its spectrum.
    """

    a: np.ndarray
    t: np.ndarray
    z: np.ndarray
    symmetric: bool
    eigvals: np.ndarray | None = None
    norm2: float | None = None

    def separation(self, other: "_SchurForm") -> SpectrumSeparation:
        """Separation of Lambda(A) and -Lambda(other) at the default
        tolerance 1e-8 * (||A||_2 + ||other||_2)."""
        return _separation(self.eigvals, other.eigvals, 1e-8 * (self.norm2 + other.norm2))

    def transposed(self) -> "_SchurForm":
        """Schur form of A^T: this form itself when A is exactly
        symmetric (LAPACK would receive the same numbers), otherwise a
        fresh factorization without its spectrum."""
        return self if self.symmetric else _schur_form(self.a.T, spectrum=False)


def _schur_form(a: np.ndarray, spectrum: bool = True) -> _SchurForm:
    t, z = sla.schur(a, output="real")
    t.flags.writeable = False
    z.flags.writeable = False
    symmetric = np.array_equal(a, a.T)
    if not spectrum:
        return _SchurForm(a, t, z, symmetric)
    lam = _schur_eigvals(t)
    norm2 = float(np.max(np.abs(lam))) if symmetric else float(np.linalg.norm(a, 2))
    return _SchurForm(a, t, z, symmetric, lam, norm2)


def _schur_eigvals(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a standardized real Schur form: a 2x2 diagonal
    block [[a, b], [c, a]] holds a +- i sqrt(|b| |c|)."""
    lam = np.diag(t).astype(complex)
    i = np.flatnonzero(np.diag(t, -1))
    im = np.sqrt(np.abs(t[i, i + 1])) * np.sqrt(np.abs(t[i + 1, i]))
    lam[i] += 1j * im
    lam[i + 1] -= 1j * im
    return lam


def _require_separated(s1: _SchurForm, s2: _SchurForm, context: str) -> None:
    sep = s1.separation(s2)
    if not sep.is_separated:
        lam, mu = sep.worst_pair
        raise SpectrumSeparationError(
            f"{context}: eigenvalue pair lambda={lam:.6g}, mu={mu:.6g} has "
            f"|lambda + mu| = {sep.min_sum_abs:.3e} <= tolerance {sep.tolerance:.3e}; "
            "the equation has no unique solution"
        )


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^(A t) via scaling-and-squaring with Pade
    approximants (Pade degree picked by the standard norm thresholds).

    Raises OverflowError if the result leaves the representable range.
    """
    a = _square(a, "A")
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    out = sla.expm(a * t)
    if not np.all(np.isfinite(out)):
        raise OverflowError(
            f"matrix exponential overflowed for t = {t:g} (||A t||_2 = {np.linalg.norm(a * t, 2):.3e})"
        )
    return out



def solve_sylvester(a1, a2, w) -> np.ndarray:
    """Solve A1 X + X A2^T = W for X by the Schur (Bartels-Stewart) method.

    Parameters
    ----------
    a1 : (n, n) array_like
    a2 : (r, r) array_like
    w : (n, r) array_like

    Returns
    -------
    X : (n, r) ndarray

    Raises
    ------
    SpectrumSeparationError
        If Lambda(A1) and -Lambda(A2) overlap within tolerance.
    ArithmeticError
        If the relative residual of the computed solution exceeds 1e-10.
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
    return _solve_lyapunov(s, w)


def _solve_sylvester(s1: _SchurForm, s2: _SchurForm, w: np.ndarray) -> np.ndarray:
    """A1 X + X A2^T = W on the Schur forms of A1 and A2; the caller
    checks separation. The products keep scipy's association order, so
    for n, r <= 64 the result is bit-identical to scipy's solver."""
    f = np.dot(np.dot(s1.z.T, w), s2.z)
    y = _trsyl(s1.t, s2.t, f, "solve_sylvester")
    x = np.dot(np.dot(s1.z, y), s2.z.T)
    _check_residual(s1.a @ x + x @ s2.a.T - w, w, "solve_sylvester")
    return x


def _solve_lyapunov(s: _SchurForm, w: np.ndarray) -> np.ndarray:
    """A X + X A^T = W on the Schur form of A, symmetrized; the caller
    checks separation. Bit-identical to scipy's solver for n <= 64."""
    f = s.z.T.dot(w.dot(s.z))
    y = _trsyl(s.t, s.t, f, "solve_lyapunov")
    x = s.z.dot(y).dot(s.z.T)
    x = (x + x.T) / 2.0
    _check_residual(s.a @ x + x @ s.a.T - w, w, "solve_lyapunov")
    return x


def _trsyl(t1: np.ndarray, t2: np.ndarray, f: np.ndarray, context: str) -> np.ndarray:
    """Solve T1 Y + Y T2^T = F for upper quasi-triangular T1 and T2.

    Recursive blocked Bartels-Stewart: split the larger dimension between
    diagonal blocks, solve the trailing part, fold it into the leading
    right-hand side with one matmul, then solve the leading part. Blocks
    of order at most _TRSYL_BLOCK go to LAPACK dtrsyl.
    """
    n, r = f.shape
    if n <= _TRSYL_BLOCK and r <= _TRSYL_BLOCK:
        y, scale, info = sla.lapack.dtrsyl(t1, t2, f, tranb="T")
        if info < 0:
            raise ValueError(f"{context}: dtrsyl rejected its argument {-info}")
        if info == 1 or scale != 1.0:
            raise ArithmeticError(
                f"{context}: dtrsyl perturbed the triangular equation (info = {info}, "
                f"scale = {scale:.3e}); the spectra are too close or the solution overflows"
            )
        return y
    if n >= r:
        k = _split(t1)
        y2 = _trsyl(t1[k:, k:], t2, f[k:], context)
        y1 = _trsyl(t1[:k, :k], t2, f[:k] - t1[:k, k:] @ y2, context)
        return np.vstack((y1, y2))
    k = _split(t2)
    y2 = _trsyl(t1, t2[k:, k:], f[:, k:], context)
    y1 = _trsyl(t1, t2[:k, :k], f[:, :k] - y2 @ t2[:k, k:].T, context)
    return np.hstack((y1, y2))


def _split(t: np.ndarray) -> int:
    """Midpoint of a quasi-triangular T, moved past a 2x2 block it would cut."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


def _check_residual(res, w, context: str, tol: float = 1e-10) -> None:
    wnorm = np.linalg.norm(w)
    rnorm = np.linalg.norm(res)
    if rnorm > tol * max(wnorm, 1e-300):
        raise ArithmeticError(
            f"{context}: relative residual {rnorm / max(wnorm, 1e-300):.3e} exceeds {tol:.0e}; "
            "the spectra are likely too close to violating the separation condition"
        )


def spd_factor(p, tol: float = 1e-12) -> np.ndarray:
    """Rank-revealing factor Z with P ~= Z Z^T for symmetric PSD P.

    Built from the eigenpairs of P with eigenvalue > tol * ||P||_2;
    eigenvalues in [-tol * ||P||_2, tol * ||P||_2] are treated as zero and
    dropped, so ||P - Z Z^T||_2 <= 2 * tol * ||P||_2.

    Parameters
    ----------
    p : (n, n) array_like
        Symmetric positive semidefinite matrix.
    tol : float
        Relative eigenvalue cutoff.

    Returns
    -------
    Z : (n, k) ndarray
        Columns ordered by decreasing eigenvalue; k may be 0 for P = 0.

    Raises
    ------
    NotPsdError
        If some eigenvalue is below -tol * ||P||_2.
    """
    p = _symmetric(p, "P")
    return _psd_factor((p + p.T) / 2.0, "P", tol, tol)[1]


def _psd_factor(p: np.ndarray, label: str, tol: float = 1e-12,
                neg_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """One eigendecomposition of a symmetric P, two results: P with its
    negligible negative eigenvalues zeroed, and the factor Z of
    :func:`spd_factor` at cutoff ``tol``.

    Raises NotPsdError for an eigenvalue below -neg_tol * ||P||_2.
    """
    evals, evecs = np.linalg.eigh(p)
    norm2 = float(np.max(np.abs(evals))) if evals.size else 0.0
    if norm2 == 0.0:
        return p, np.zeros((p.shape[0], 0))
    if evals[0] < -neg_tol * norm2:
        raise NotPsdError(
            f"{label} has eigenvalue {evals[0]:.6e} below -{neg_tol:g} * ||{label}||_2; "
            "the matrix is not numerically PSD"
        )
    keep = evals > tol * norm2
    z = evecs[:, keep][:, ::-1] * np.sqrt(evals[keep][::-1])
    if evals[0] >= 0:
        return p, z
    y = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    return (y + y.T) / 2.0, z
