"""Dense linear-algebra kernels used throughout the toolkit.

Provides the matrix exponential, Sylvester/Lyapunov solvers, two
rank-revealing factorizations of symmetric positive semidefinite
matrices (one eigendecomposition of a dense matrix, or pivoted Cholesky
of one given by its diagonal and columns, or of a dense one with its
remainder checked), the package's one check of each spectral condition
(``_require_separated`` and ``_require_hurwitz``), and samples of an
impulse response C e^(A s) B on a graded Gauss-Legendre mesh. Only
``as_matrix`` and ``expm`` are public.

The kernels take factored matrices but do not choose a factorization: a
system's operator is factored once, and how, by its operator record in
``systems``, which calls the private kernels here. Every
Sylvester/Lyapunov solve is Bartels-Stewart on real Schur forms (or, for
an eigenbasis, on row blocks of its diagonal); the triangular equation
goes through a recursive blocked kernel (after Jonsson and Kagstrom's
RECSY) whose leaves are LAPACK dtrsyl calls. The solvers take Schur
forms and leave the separation check to their caller. Dense wrappers
that factor their arguments on every call, for tests, are in
``tests/oracles.py``.

The mesh: 4-node composite Gauss-Legendre on [0, tbar] with 64 panels,
or 32 for the coarse estimate. When the operator is stiff, the panels
that meet s = 0 are graded geometrically: 2K panels of the finest width,
then K panels for each doubling of the width (K = 16, or 8 on the coarse
mesh), so every decay rate of the kernel is resolved where it matters.
Without an eigenbasis the samples come from one batched expm at the
finest width, squared up once per doubling; entries that would
underflow into subnormal numbers are flushed to zero on the way. On an
eigenbasis, ``_exp_finite`` returns an exact zero for e^x below e^-700.

Matrices are numpy float64 arrays in C (row-major) order. The functions
here keep no state, so they are safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, NotPsdError, SpectrumSeparationError, StabilityError

__all__ = ["as_matrix", "expm"]

# the blocked Sylvester kernel hands diagonal blocks of at most this
# order to LAPACK dtrsyl
_TRSYL_BLOCK = 64

# the kernel mesh: panels on [0, tbar], panels per run of equal width,
# and the largest |rate| * width of the finest panels
_PANELS = 64
_RUN = 16
_FINEST_RATE_WIDTH = 0.25
# entries of the mesh's exponentials below this times their matrix's
# largest entry are flushed to zero
_FLUSH = np.finfo(float).eps ** 2
# e^x of an eigenbasis is 0 for x below this: e^-700 ~ 1e-304 is normal
_EXP_FLOOR = -700.0
# 4-node Gauss-Legendre rule on [-1, 1] in closed form
_GL_NODES = np.array([-1.0, -1.0, 1.0, 1.0]) * np.sqrt(3.0 / 7.0 + np.array([2.0, -2.0, -2.0, 2.0]) / 7.0 * math.sqrt(1.2))
_GL_WEIGHTS = (18.0 + np.array([-1.0, 1.0, 1.0, -1.0]) * math.sqrt(30.0)) / 36.0
_GL_OFFSETS = (_GL_NODES + 1.0) / 2.0


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
class _SchurForm:
    """Real Schur form A = Z T Z^T of a square matrix, with the
    eigenvalues ``eigvals`` read off T's 1x1 and 2x2 diagonal blocks and
    ``norm2`` = ||A||_2."""

    a: np.ndarray
    t: np.ndarray
    z: np.ndarray
    eigvals: np.ndarray
    norm2: float

    def transposed(self) -> "_SchurForm":
        """Schur form of A^T from this one: with J the reversal
        permutation, A^T = (Z J)(J T^T J)(Z J)^T, and J T^T J is upper
        quasi-triangular with the same standardized 2x2 blocks."""
        t = np.ascontiguousarray(self.t.T[::-1, ::-1])
        z = np.ascontiguousarray(self.z[:, ::-1])
        t.flags.writeable = False
        z.flags.writeable = False
        return _SchurForm(self.a.T, t, z, self.eigvals, self.norm2)


def _schur_form(a: np.ndarray) -> _SchurForm:
    t, z = sla.schur(a, output="real")
    t.flags.writeable = False
    z.flags.writeable = False
    return _SchurForm(a, t, z, _schur_eigvals(t), float(np.linalg.norm(a, 2)))


def _schur_eigvals(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a standardized real Schur form: a 2x2 diagonal
    block [[a, b], [c, a]] holds a +- i sqrt(|b| |c|)."""
    lam = np.diag(t).astype(complex)
    i = np.flatnonzero(np.diag(t, -1))
    im = np.sqrt(np.abs(t[i, i + 1])) * np.sqrt(np.abs(t[i + 1, i]))
    lam[i] += 1j * im
    lam[i + 1] -= 1j * im
    return lam


def _require_separated(s1, s2, what: str) -> None:
    """Raise SpectrumSeparationError, naming ``what``, unless min |lambda + mu|
    over Lambda(A1) x Lambda(A2) exceeds 1e-8 (||A1||_2 + ||A2||_2), read
    from ``eigvals`` and ``norm2`` of the Schur forms or operator records."""
    sums = np.abs(s1.eigvals[:, None] + s2.eigvals[None, :])
    i, j = np.unravel_index(np.argmin(sums), sums.shape)
    min_sum, tol = float(sums[i, j]), 1e-8 * (s1.norm2 + s2.norm2)
    if not min_sum > tol:
        lam, mu = complex(s1.eigvals[i]), complex(s2.eigvals[j])
        raise SpectrumSeparationError(
            f"{what}: eigenvalue pair lambda={lam:.6g}, mu={mu:.6g} has "
            f"|lambda + mu| = {min_sum:.3e} <= tolerance {tol:.3e}; "
            "the equation has no unique solution"
        )


def _require_hurwitz(s, label: str, use: str) -> None:
    """Raise StabilityError, saying ``label`` must be Hurwitz for ``use``, unless
    every eigenvalue of the Schur form or operator record ``s`` has Re < 0."""
    bad = s.eigvals[s.eigvals.real >= 0]
    if bad.size:
        worst = bad[np.argmax(bad.real)]
        raise StabilityError(f"{label} must be Hurwitz for {use}; found {bad.size} "
                             f"eigenvalue(s) with Re >= 0, e.g. {worst:.6g}")


def expm(a, t: float) -> np.ndarray:
    """Matrix exponential e^(A t) via scaling-and-squaring with Pade
    approximants (Pade degree picked by the standard norm thresholds).

    Raises OverflowError if the result leaves the representable range.
    """
    a = _square(a, "A")
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = sla.expm(a * t)
    if not np.all(np.isfinite(out)):
        raise OverflowError(
            f"matrix exponential overflowed for t = {t:g} (||A t||_2 = {np.linalg.norm(a * t, 2):.3e})"
        )
    return out


def _solve_sylvester(s1: _SchurForm, s2: _SchurForm, w: np.ndarray) -> np.ndarray:
    """A1 X + X A2^T = W on the Schur forms of A1 and A2; the caller
    checks separation. The products keep scipy's association order, so
    for n, r <= 64 the result is bit-identical to scipy's solver."""
    f = np.dot(np.dot(s1.z.T, w), s2.z)
    y = _trsyl(s1.t, s2.t, f, "solve_sylvester")
    x = np.dot(np.dot(s1.z, y), s2.z.T)
    _check_residual(s1.a @ x + x @ s2.a.T - w, w, "solve_sylvester")
    return x


def _lyapunov_core(s: _SchurForm, w: np.ndarray) -> np.ndarray:
    """The core Y, symmetrized, of the solution X = Z Y Z^T of A X + X A^T = W
    on the Schur form A = Z T Z^T; the caller checks separation. The
    residual is checked in Schur coordinates (Z is orthogonal)."""
    f = s.z.T.dot(w.dot(s.z))
    y = _trsyl(s.t, s.t, f, "solve_lyapunov")
    y = (y + y.T) / 2.0
    _check_residual(s.t @ y + y @ s.t.T - f, f, "solve_lyapunov")
    return y


def _solve_sylvester_diagonal(lam: np.ndarray, s2: _SchurForm, w: np.ndarray) -> np.ndarray:
    """diag(lam) X + X A2^T = W on the Schur form of A2; the caller
    checks separation. The rows decouple, so they are solved in blocks of
    _TRSYL_BLOCK, and no n x n diag(lam) is formed."""
    f = w @ s2.z
    y = np.vstack([_trsyl(np.diag(lam[i:i + _TRSYL_BLOCK]), s2.t, f[i:i + _TRSYL_BLOCK],
                          "solve_sylvester") for i in range(0, lam.size, _TRSYL_BLOCK)])
    x = y @ s2.z.T
    _check_residual(lam[:, None] * x + x @ s2.a.T - w, w, "solve_sylvester")
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


def _check_residual(res, w, context: str) -> None:
    wnorm = np.linalg.norm(w)
    rnorm = np.linalg.norm(res)
    if rnorm > 1e-10 * max(wnorm, 1e-300):
        raise ArithmeticError(
            f"{context}: relative residual {rnorm / max(wnorm, 1e-300):.3e} exceeds 1e-10; "
            "the spectra are likely too close to violating the separation condition"
        )


def _psd_factor(p: np.ndarray, label: str) -> np.ndarray:
    """One eigendecomposition of a symmetric P: the rank-revealing factor
    Z with P ~= Z Z^T from its eigenpairs above 1e-12 ||P||_2, columns by
    decreasing eigenvalue, so the eigenvalues below that cut, and the
    negligible negative ones, are zeroed.

    Raises NotPsdError for an eigenvalue below -1e-10 ||P||_2.
    """
    evals, evecs = np.linalg.eigh(p)
    norm2 = float(np.max(np.abs(evals)))
    if evals[0] < -1e-10 * norm2:
        raise NotPsdError(
            f"{label} has eigenvalue {evals[0]:.6e} below -1e-10 * ||{label}||_2; "
            "the matrix is not numerically PSD"
        )
    keep = evals > 1e-12 * norm2
    return evecs[:, keep][:, ::-1] * np.sqrt(evals[keep][::-1])


def _pivoted_cholesky(diag: np.ndarray, column, label: str) -> np.ndarray:
    """Greedy pivoted Cholesky factor L (n x k) of a symmetric C given by
    its diagonal ``diag`` and ``column(j)`` = C[:, j], with C ~= L L^T
    (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 2012).

    Each step pivots on the largest entry of the Schur complement's
    diagonal, which is updated by subtraction; it stops once that
    diagonal sums to at most 1e-12 max(diag). The complement is then
    PSD up to rounding, so ||C - L L^T||_2 <= 1e-12 ||C||_2, the bound
    of ``_psd_factor``'s cutoff. The work is k calls of ``column`` and
    O(n k^2); no n x n matrix is formed.

    Raises NotPsdError when a diagonal entry falls below
    -1e-10 max(diag).
    """
    tol, neg_tol = 1e-12, 1e-10
    d = np.array(diag, dtype=float)
    n = d.size
    scale = float(np.max(d))
    # row k holds column k of L
    rows = np.empty((min(n, 64), n))
    k = 0
    while True:
        if np.min(d) < -neg_tol * scale:
            raise NotPsdError(
                f"{label} has a pivoted Cholesky remainder {np.min(d):.6e} on its diagonal, below "
                f"-{neg_tol:g} times its largest diagonal entry; the matrix is not numerically PSD"
            )
        if k == n or d.sum() <= tol * scale:
            # a copy of the k rows, so the factor keeps no spare rows alive
            return rows[:k].copy().T
        j = int(np.argmax(d))
        if k == rows.shape[0]:
            rows = np.vstack((rows, np.empty((min(n, 2 * k) - k, n))))
        row = rows[k]
        row[:] = column(j)
        row -= rows[:k, j] @ rows[:k]
        row /= math.sqrt(d[j])
        d -= row * row
        d[j] = 0.0
        k += 1


def _dense_cholesky(c: np.ndarray, label: str) -> np.ndarray:
    """``_pivoted_cholesky`` of a dense symmetric C, checked: raises
    NotPsdError unless ||C - L L^T||_F <= 1e-10 max(diag C). The stop on
    the trace alone accepts an indefinite part whose diagonal is small,
    such as a coupling of 1e-6 between two diagonal entries of 1e-13."""
    low = _pivoted_cholesky(c.diagonal(), lambda j: c[j], label)
    gap = np.linalg.norm(c - low @ low.T)
    if gap > 1e-10 * np.max(c.diagonal()):
        raise NotPsdError(f"{label} is off its pivoted Cholesky factor's product by {gap:.6e}, above 1e-10 "
                          "times its largest diagonal entry; the matrix is not numerically PSD")
    return low


def _exp_finite(x: np.ndarray) -> np.ndarray:
    """Elementwise e^x, in place of x, with an exact 0 wherever x is
    below _EXP_FLOOR, so no result is subnormal; raises OverflowError
    instead of returning inf. np.exp runs 20-150 times slower on
    arguments whose results underflow (from about -708) than on normal
    ones, so those arguments never reach it."""
    below = x < _EXP_FLOOR
    underflows = bool(below.any())
    if underflows:
        np.maximum(x, _EXP_FLOOR, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    if underflows:
        x[below] = 0.0
    if not np.all(np.isfinite(x)):
        raise OverflowError("exponential overflowed")
    return x


def _mesh_levels(tbar: float, norm: float) -> int:
    """Width doublings between the finest graded panels and the uniform
    width tbar / 64, so that 2 * norm * (finest width) <= 0.25: the
    squared kernel's fastest rate is resolved on the panels at s = 0."""
    x = 2.0 * norm * (tbar / _PANELS) / _FINEST_RATE_WIDTH
    return max(0, math.ceil(math.log2(x))) if x > 1.0 else 0


def _mesh_runs(levels: int) -> tuple[list[int], list[int]]:
    """The fine mesh as runs of 16 equal panels, in time order: run i has
    panels of width w0 * 2^js[i] and starts at s = w0 * starts[i], with
    w0 = (tbar / 64) / 2^levels. The first 32 panels have the finest
    width, each doubling of the width gets 16, and the last 48 have the
    uniform width tbar / 64; the coarse mesh pairs up the panels of
    every run. Every start is 0, a power of two or 48 * 2^levels."""
    js = [0] + ([0] if levels else []) + list(range(1, levels)) + [levels] * 3
    starts = [0] + [2**k for k in range(4, levels + 6)] + [48 * 2**levels]
    return js, starts


def _mesh_nodes(tbar: float, levels: int, coarse: bool) -> tuple[np.ndarray, np.ndarray]:
    """Node times of the fine or the coarse mesh, shape (run, node,
    panel), and the square roots of the node weights, shape (run, node):
    within a run a weight depends on the node only. A fine run lists its
    even panels first (0, 2, ..., 14, 1, 3, ..., 15): they start where
    the coarse panels do."""
    w0 = tbar / _PANELS / 2.0**levels
    js, starts = _mesh_runs(levels)
    width = (w0 * 2.0 ** (np.array(js) + coarse))[:, None, None]
    panels = np.arange(_RUN >> coarse) if coarse else np.arange(_RUN).reshape(-1, 2).T.ravel()
    panels = panels[None, None, :]
    times = np.array(starts)[:, None, None] * w0 + width * (panels + _GL_OFFSETS[None, :, None])
    return times, np.sqrt(0.5 * width[:, :, 0] * _GL_WEIGHTS[None, :])


def _mesh_exponentials(a: np.ndarray, tbar: float, levels: int, at: float | None = None):
    """e^(A w0) and e^(A c_i w0) for the four node offsets c_i, stacked
    (5, n, n), at the finest panel width w0 of the meshes, from one
    batched expm; with ``at`` also e^(A at) from the same call. Returns
    (e^(A at) or None, the stack)."""
    w0 = tbar / _PANELS / 2.0**levels
    t = np.concatenate(([at] if at is not None else [], [w0], _GL_OFFSETS * w0))
    with np.errstate(over="ignore", invalid="ignore"):
        out = sla.expm(a[None, :, :] * t[:, None, None])
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed on the kernel mesh (tbar = {tbar:g})")
    return (out[0], out[1:]) if at is not None else (None, out)


def _mesh_samples(base: np.ndarray, b: np.ndarray, c: np.ndarray, levels: int, roots) -> tuple:
    """sqrt(w) C e^(A s) B at the fine and at the coarse nodes (``roots``
    holds sqrt(w) of both meshes, from ``_mesh_nodes``), each of shape
    (run, node, p, panel * m) with the panels in the order of
    ``_mesh_nodes``, so a weighted sum of squares is a dot product; and
    int ||e^(A s) B||_F^2 ds by the fine rule.

    ``base`` is the stack of ``_mesh_exponentials``: the step e^(A w) and
    the node exponentials e^(A c_i w) at the finest width w = w0; squaring
    it j times gives them at width w0 2^j. The runs go in time order,
    carrying e^(A s) B from one to the next, with the stacks of four
    consecutive widths at hand: a run of width w reaches its even panel
    starts by doubling with the steps of widths 2w, 4w and 8w, and its
    odd ones by one step of width w; it reads its own nodes, and for its
    coarse panels, which start at its even panels, the nodes of width 2w."""
    js, _ = _mesh_runs(levels)
    (n, m), p = b.shape, c.shape[0]
    half = _RUN // 2 * m
    fine = np.empty((len(js), 4, p, _RUN * m))
    coarse = np.empty((len(js), 4, p, half))
    ladder = [_flushed(base.copy())]
    for _ in range(3):
        ladder.append(_squared(ladder[-1]))
    # e^(A s) B at the panel starts of a run, even panels first
    y = np.empty((n, _RUN * m))
    y[:, :m] = b
    at, energy = None, 0.0
    for k, j in enumerate(js):
        if j != at:
            if at is not None:
                ladder = ladder[1:] + [_squared(ladder[-1])]
            at = j
            nodes = ladder[0][1:] * roots[0][k][:, None, None]
            coarse_rows = (c @ ladder[1][1:]) * roots[1][k][:, None, None]
        for i in (1, 2, 3):
            np.matmul(ladder[i][0], y[:, :m << i - 1], out=y[:, m << i - 1:m << i])
        np.matmul(ladder[0][0], y[:, :half], out=y[:, half:])
        at_nodes = nodes @ y
        np.matmul(c, at_nodes, out=fine[k])
        energy += float(np.vdot(at_nodes, at_nodes))
        np.matmul(coarse_rows, y[:, :half], out=coarse[k])
        np.matmul(ladder[0][0], y[:, -m:], out=y[:, :m])
    return fine, coarse, energy


def _flushed(x: np.ndarray) -> np.ndarray:
    """Each matrix of the stack x, in place, with the entries below
    eps^2 times its largest entry set to zero, a change far below the
    rounding of any product with it. The exponentials of a stiff
    operator fill with entries that underflow as they are squared up,
    and a product that meets subnormal numbers runs several times slower
    (up to 7x for a squaring of a 400 x 400 upwind rod's step)."""
    mag = np.abs(x)
    x[mag < _FLUSH * mag.max(axis=(-2, -1), keepdims=True)] = 0.0
    return x


def _squared(x: np.ndarray) -> np.ndarray:
    """x @ x for each matrix of the stack x, flushed."""
    return _flushed(x @ x)
