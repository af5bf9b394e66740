"""State-space models, model generators, and input signals.

A system is x' = A x + B u, y = C x, optionally with a nonsingular mass
matrix E on the left of x'. A system's matrices are immutable after
construction (its arrays are marked read-only).

Each system memoizes, on first use, one record of its standard-form
operator A_std = E^-1 A, the only code that knows how A_std is factored.
A symmetric-definite model (A exactly symmetric, E absent or exactly
symmetric and positive definite: the generated heat models and
finite-element rods with a consistent mass matrix) gets one generalized
symmetric eigendecomposition A X = E X diag(lambda), X^T E X = I, read
in closed form from the sine basis when A and E are symmetric
tridiagonal Toeplitz (every uniform-grid rod) and done by the dense
generalized ``eigh`` otherwise, and works from lambda, X, X^T B and C X
alone. From order ``_DST_MIN`` on the sine basis X is never formed: it
is applied to thin blocks as a discrete sine transform by FFT, so the
record holds no n x n array (a finite horizon's
Gramians are factored by pivoted Cholesky from the closed-form columns
of their cores, with no n x n core formed); every other model gets
the real Schur form of A_std, and only that record forms A_std and
B_std = E^-1 B (by one solve with E). Both records answer the same calls
(Gramians, propagators, mixed Gramian, projection, kernel samples) and
build each per-horizon entry once under a lock, so systems can still be
shared freely across threads.
"""
from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import mmio
from .errors import DimensionError
from .linalg import (
    _EXP_FLOOR,
    _exp_finite,
    _mesh_exponentials,
    _mesh_nodes,
    _mesh_samples,
    _pivoted_cholesky,
    _psd_factor,
    _require_separated,
    _schur_form,
    _SchurForm,
    _lyapunov_core,
    _solve_sylvester,
    _solve_sylvester_diagonal,
    _square,
    as_matrix,
    expm,
)

__all__ = [
    "StateSpaceSystem",
    "InputSignal",
    "load_system",
    "generate_heat_model",
]

# E is accepted as nonsingular when its condition estimate stays below 1/_E_COND_TOL
_E_COND_TOL = 1e-12

_INPUT_KINDS = ("constant", "star", "zero", "table")

# guards building the operator records, their horizon entries and the
# step operators `simulation.simulate` keeps per step size
_RECORD_LOCK = threading.Lock()


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class StateSpaceSystem:
    """Linear time-invariant system (E) x' = A x + B u, y = C x.

    A is n x n, B is n x m, C is p x n; E is an optional nonsingular
    n x n mass matrix (None means identity). Systems compare and hash
    by identity.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray | None = None
    name: str = "system"

    def __post_init__(self):
        a = _square(self.A, "A")
        n = a.shape[0]
        b = as_matrix(self.B, "B")
        if b.shape[0] != n:
            raise DimensionError(f"B has {b.shape[0]} rows but A is {n} x {n}")
        c = as_matrix(self.C, "C")
        if c.shape[1] != n:
            raise DimensionError(f"C has {c.shape[1]} columns but A is {n} x {n}")
        object.__setattr__(self, "A", _readonly(a))
        object.__setattr__(self, "B", _readonly(b))
        object.__setattr__(self, "C", _readonly(c))
        if self.E is not None:
            e = as_matrix(self.E, "E")
            if e.shape != (n, n):
                raise DimensionError(f"E must have shape {(n, n)} to match A, got {e.shape}")
            lam = _toeplitz_symbol(e)
            if lam is None and np.array_equal(e, e.T):
                lam = np.linalg.eigvalsh(e)
            if lam is None:
                cond = np.linalg.cond(e)
            else:
                # the singular values of a symmetric matrix are |eigenvalues|
                lam = np.abs(lam)
                cond = lam.max() / lam.min() if lam.min() > 0.0 else np.inf
            if not np.isfinite(cond) or cond > 1.0 / _E_COND_TOL:
                raise ValueError(f"E is numerically singular (condition estimate {cond:.3e})")
            object.__setattr__(self, "E", _readonly(e))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def _operator(self) -> "_Record":
        """The memoized record of this system's standard-form operator."""
        return _memo(self.__dict__, "_record", lambda: _factored(self))


def _memo(store: dict, key, build):
    """store[key], built by build() under the records' lock on first use."""
    with _RECORD_LOCK:
        if key not in store:
            store[key] = build()
        return store[key]


def _factored(sys: StateSpaceSystem) -> "_Record":
    """The eigen record of a symmetric-definite model, from the sine
    basis when A and E are symmetric tridiagonal Toeplitz
    (``_sine_pairs``, tried first: a match proves the symmetry, so the
    n x n comparison with the transpose is left to the others) and by
    the dense generalized ``eigh`` otherwise; the Schur record of every
    other one."""
    a, e = sys.A, sys.E
    try:
        pairs = _sine_pairs(a, e)
        if pairs is not None or (np.array_equal(a, a.T) and (e is None or np.array_equal(e, e.T))):
            return _EigenRecord(sys, *(sla.eigh(a, e) if pairs is None else pairs))
    except np.linalg.LinAlgError:  # E is not positive definite
        pass
    return _SchurRecord(sys)


def _toeplitz_symbol(t: np.ndarray) -> np.ndarray | None:
    """The eigenvalues (d + 2o) - 4o sin^2(k pi / (2n + 2)), k = 1..n, of
    a t that is tridiagonal Toeplitz with diagonal d and both
    off-diagonals o, so symmetric, whose k-th eigenvector is
    sin(i k pi / (n + 1)), i = 1..n; the form has no cancellation where
    d + 2o vanishes. None for any other t, and for n = 1. Only the
    three diagonals and a count of nonzeros are read, so no n x n array
    is formed."""
    n = t.shape[0]
    if n < 2:
        return None
    d, o = t[0, 0], t[0, 1]
    diag, off = np.diagonal(t), np.diagonal(t, 1)
    if not (np.all(diag == d) and np.all(off == o) and np.all(np.diagonal(t, -1) == o)
            and np.count_nonzero(t) == np.count_nonzero(diag) + 2 * np.count_nonzero(off)):
        return None
    s = np.sin(np.arange(1, n + 1) * (math.pi / (2 * n + 2))) ** 2
    return (d + 2.0 * o) - 4.0 * o * s


def _dst1(m: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I along axis 0, sqrt(2 / (n+1))
    sum_i m_i sin(i k pi / (n+1)) for k = 1..n: minus the imaginary part
    of one real FFT of the odd extension (0, m, 0, -m reversed), halved."""
    n = m.shape[0]
    z = np.zeros((2 * n + 2, *m.shape[1:]))
    z[1:n + 1] = m
    z[n + 2:] = -m[::-1]
    return np.fft.rfft(z, axis=0)[1:n + 1].imag * -math.sqrt(0.5 / (n + 1))


class _SineBasis:
    """X = S[:, order] diag(scale) of an order-n sine basis, S the
    orthonormal DST-I matrix, never formed: X @ M, M @ X and the same
    with ``.T`` (X^T) go through ``_dst1``, O(n log n) per column of M,
    for an M with n rows (columns on the right). numpy defers ``M @ X``
    to ``__rmatmul__``."""

    __array_ufunc__ = None

    def __init__(self, order: np.ndarray, scale: np.ndarray, transposed: bool = False):
        for arr in (order, scale):
            arr.flags.writeable = False
        self.order, self.scale, self._transposed = order, scale, transposed

    @property
    def T(self) -> "_SineBasis":
        return _SineBasis(self.order, self.scale, not self._transposed)

    def __matmul__(self, m) -> np.ndarray:
        return self._apply(np.asarray(m, dtype=float), self._transposed)

    def __rmatmul__(self, m) -> np.ndarray:
        # M @ X = (X^T M^T)^T
        return self._apply(np.asarray(m, dtype=float).T, not self._transposed).T

    def _apply(self, m: np.ndarray, transposed: bool) -> np.ndarray:
        """X^T m when transposed, else X m."""
        n = self.order.size
        if m.ndim == 0 or m.shape[0] != n:
            raise ValueError(f"sine basis of order {n} cannot multiply an operand of shape {m.shape}")
        scale = self.scale.reshape(n, *(1,) * (m.ndim - 1))
        if transposed:
            return _dst1(m)[self.order] * scale
        w = np.empty_like(m)
        w[self.order] = m * scale
        return _dst1(w)


# the order from which `_sine_pairs` applies the basis by FFT instead of
# forming it: `reduce` plus `bound` (1 BLAS thread) measured the table
# faster at n = 400 and 420, where n + 1 is prime and numpy's FFT of
# length 2(n+1) takes its slow path, and the FFT faster or level from
# 512 on at every order tried, prime n + 1 included (n = 800: 41 ms
# against 57 ms)
_DST_MIN = 512


def _sine_pairs(a: np.ndarray, e: np.ndarray | None) -> tuple | None:
    """(lambda, X, Y = E X) of the pencil (A, E), lambda ascending and
    X^T E X = I, from the symbols alpha of A and eps of E (1 without E):
    lambda_k = alpha_k / eps_k, x_k(i) = sqrt(2 / (n+1))
    sin(i k pi / (n+1)) / sqrt(eps_k) and y_k = eps_k x_k, since x_k is
    an eigenvector of E. X and Y are dense arrays below order
    ``_DST_MIN`` and ``_SineBasis`` operators from it on. None unless A
    and E are symmetric tridiagonal Toeplitz; LinAlgError when eps is
    not positive."""
    alpha = _toeplitz_symbol(a)
    eps = np.ones(a.shape[0]) if e is None else _toeplitz_symbol(e)
    if alpha is None or eps is None:
        return None
    if not np.all(eps > 0.0):
        raise np.linalg.LinAlgError("E is not positive definite")
    lam = alpha / eps
    order = np.argsort(lam, kind="stable")
    if a.shape[0] >= _DST_MIN:
        scale = 1.0 / np.sqrt(eps[order])
        x = _SineBasis(order, scale)
        return lam[order], x, x if e is None else _SineBasis(order, scale * eps[order])
    n, period = a.shape[0], 2 * a.shape[0] + 2
    # sin(j pi / (n+1)) for j in [0, 2n+2), each from an argument in [0, pi/2]
    r = np.arange(period) % (n + 1)
    table = np.sin(np.minimum(r, n + 1 - r) * (math.pi / (n + 1)))
    table[n + 1:] *= -1.0
    # i k mod (2n + 2), 32 rows i at a time: numpy divides by a scalar
    # faster than it takes an integer modulo, and a small block is faster
    # than one n x n index and keeps it out of the peak memory
    k = order + 1
    x = np.empty((n, n))
    for lo in range(0, n, 32):
        index = np.multiply.outer(np.arange(lo + 1, min(lo + 32, n) + 1), k)
        index -= index // period * period
        table.take(index, out=x[lo:lo + 32])
    x *= math.sqrt(2.0 / (n + 1)) / np.sqrt(eps[order])
    return lam[order], x, x if e is None else x * eps[order]


class _Record:
    """Standard-form operator of one system, factored once; both records answer:

    - ``eigvals`` and ``norm2`` of A_std, and ``label`` (its name in
      messages);
    - ``gramians(tbar)``: the Gramians of the standard form over
      [0, tbar], the unrestricted pair for tbar = inf (the caller checks
      that A_std is Hurwitz), each factored as a triple (basis, root, k)
      with P = (basis root)(basis root)^T up to the factorization's
      rounding and cutoff (``gramians.GramianSet``), and basis
      root[:, :k] its rank-revealing factor; NotPsdError, naming P or Q,
      for a core that is not numerically PSD;
    - ``mixed(s11, b1, fr, tbar)``: the mixed Gramian Pm with
      A_std Pm + Pm A11^T = F Fr^T - B_std B1^T on the Schur form ``s11``
      of A11, Fr = e^(A11 tbar) B1 (None, and no F term, for tbar = inf);
      the caller checks separation;
    - ``project(W, V)``: (W^T A_std V, W^T B_std);
    - ``propagators`` and ``kernel_samples``, memoized per horizon.
    """

    def __init__(self, sys: StateSpaceSystem):
        self.label = "A" if sys.E is None else "E^-1 A"
        self._memos: dict = {}

    def propagators(self, tbar: float) -> tuple[np.ndarray, np.ndarray]:
        """F = e^(A_std tbar) B_std and G = C e^(A_std tbar); the n x n
        exponential itself is not kept."""
        return _memo(self._memos, ("propagators", tbar),
                     lambda: tuple(_readonly(x) for x in self._propagators(tbar)))

    def kernel_samples(self, tbar: float, levels: int) -> tuple:
        """The square roots of the fine and the coarse quadrature weights
        (``linalg._mesh_nodes``); the impulse response C e^(A_std s) B_std
        at the fine and at the coarse nodes, weighted and laid out as by
        ``linalg._mesh_samples``; the L2 norm of its rounding envelope
        by the fine rule: of |C X| e^(lambda s) |X^T B| on the
        eigenbasis, ||C||_F ||e^(A_std s) B_std||_F otherwise; and a
        bound on the L2 norm of the terms the samples leave out: the
        eigenbasis drops each term with lambda_k s below
        ``linalg._EXP_FLOOR`` (on each mesh run the leading modes, which
        are below it at every node, and single entries of the others),
        so e^floor ||sum_k |C X|_k |X^T B|_k||_F sqrt(tbar); 0 otherwise."""
        return _memo(self._memos, ("kernel", tbar, levels), lambda: self._kernel_samples(tbar, levels))


def _expm1_rate(rates: np.ndarray, tbar: float) -> np.ndarray:
    """int_0^tbar e^(r s) ds = expm1(r tbar) / r for each rate r, tbar
    where r = 0; overflow gives inf."""
    phi = rates * tbar
    with np.errstate(over="ignore", invalid="ignore"):
        np.expm1(phi, out=phi)
        np.divide(phi, rates, out=phi, where=rates != 0.0)
    phi[rates == 0.0] = tbar
    return phi


class _EigenRecord(_Record):
    """Eigenbasis of a symmetric-definite pencil: A X = E X diag(lambda)
    with X^T E X = I, so A_std = X diag(lambda) Y^T with Y = E X (Y = X
    without a mass matrix; formed here unless given), kept with
    ``xb`` = X^T B and ``cx`` = C X. X and Y are dense arrays, or
    ``_SineBasis`` operators for a sine basis from order ``_DST_MIN`` on;
    the record only multiplies them with thin blocks, and so does
    ``gramians.GramianSet`` with the basis it is handed.
    The closed forms take X^T E X = I as exact, so they carry the
    orthogonality error of the basis ``_factored`` chose (the sine
    basis's rounding, or the dense ``eigh``'s).
    ``norm2`` is max |lambda|, the norm of A_std in the E inner product."""

    def __init__(self, sys: StateSpaceSystem, lam: np.ndarray, x: np.ndarray, y: np.ndarray | None = None):
        super().__init__(sys)
        if y is None:
            y = x if sys.E is None else sys.E @ x
        for arr in (lam, x, y):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        self.eigvals, self.x, self.y = lam, x, y
        self.norm2 = float(np.max(np.abs(lam)))
        self.xb = _readonly(x.T @ sys.B)
        self.cx = _readonly(sys.C @ x)

    def _propagators(self, tbar: float):
        decay = _exp_finite(self.eigvals * tbar)
        return self.x @ (decay[:, None] * self.xb), (self.cx * decay) @ self.y.T

    def gramians(self, tbar: float) -> tuple[tuple, tuple]:
        """Closed forms P = X ((X^T B)(X^T B)^T o Phi) X^T and
        Q = Y ((C X)^T (C X) o Phi) Y^T with
        Phi_ij = expm1((l_i + l_j) tbar) / (l_i + l_j) (tbar when
        l_i + l_j = 0), or -1 / (l_i + l_j) for tbar = inf. A finite
        horizon's cores are factored by pivoted Cholesky from their
        columns, so no n x n core is formed; the unrestricted pair's by
        one eigendecomposition each."""
        lam = self.eigvals
        gens = (("P", self.x, self.xb), ("Q", self.y, self.cx.T))
        if math.isfinite(tbar):
            top = _expm1_rate(2.0 * lam, tbar)
            if not np.all(np.isfinite(top)):
                raise OverflowError(f"time-limited Gramian overflowed (largest rate {2.0 * np.max(lam):.3e}, "
                                    f"tbar = {tbar:g})")

            def factor(name, basis, g):
                # the core's entries are (g_i . g_j) Phi_ij
                root = _pivoted_cholesky(np.einsum("ij,ij->i", g, g) * top,
                                         lambda j: (g @ g[j]) * _expm1_rate(lam + lam[j], tbar), name)
                return basis, root, root.shape[1]

            return tuple(factor(*gen) for gen in gens)
        phi = -1.0 / (lam[:, None] + lam[None, :])
        return tuple((basis, *_psd_factor(g @ g.T * phi, name)) for name, basis, g in gens)

    def mixed(self, s11: _SchurForm, b1: np.ndarray, fr, tbar: float) -> np.ndarray:
        # Pm = X M with Lambda M + M A11^T = e^(Lambda tbar) X^T B Fr^T - X^T B B1^T
        w = -self.xb @ b1.T
        if fr is not None:
            w += (_exp_finite(self.eigvals * tbar)[:, None] * self.xb) @ fr.T
        return self.x @ _solve_sylvester_diagonal(self.eigvals, s11, w)

    def project(self, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # ((W^T X) Lambda (Y^T V), (W^T X)(X^T B))
        wx = w.T @ self.x
        return (wx * self.eigvals) @ (self.y.T @ v), wx @ self.xb

    def _kernel_samples(self, tbar: float, levels: int) -> tuple:
        (times, root), (times_c, root_c) = (_mesh_nodes(tbar, levels, coarse) for coarse in (False, True))
        lam = self.eigvals
        n, (p, m) = lam.size, (self.cx.shape[0], self.xb.shape[1])
        # K(s) = sum_k (C X)_k e^(lambda_k s) (X^T B)_k, one row of p m entries per k
        signed = (self.cx.T[:, :, None] * self.xb[:, None, :]).reshape(n, p * m)
        absolute = (np.abs(self.cx).T[:, :, None] * np.abs(self.xb)[:, None, :]).reshape(n, p * m)

        def decay(t):
            # e^(lambda_k s) at a run's nodes for the live modes k: lambda is
            # ascending, so the modes below the floor at the run's first node
            # are a prefix, and they are below it at every node
            live = int(np.searchsorted(lam * t.min(), _EXP_FLOOR))
            return _exp_finite(np.outer(t, lam[live:])), live

        def weighted(products, w, out):
            # rows at a run's nodes (node, panel) to (node, p, panel, m), weighted, into out
            rows = products.reshape(w.size, -1, p, m).transpose(0, 2, 1, 3)
            np.multiply(rows, w[:, None, None, None], out=out.reshape(rows.shape))

        fine = np.empty((*root.shape, p, times.shape[-1] * m))
        coarse = np.empty((*root_c.shape, p, times_c.shape[-1] * m))
        envelope = 0.0
        # one run at a time, so the node-by-state exponential stays at most (64 x n)
        for k in range(root.shape[0]):
            e, live = decay(times[k])
            weighted(e @ signed[live:], root[k], fine[k])
            rows = (e @ absolute[live:]).reshape(*times.shape[1:], -1)
            envelope += float(np.sum(root[k][:, None] ** 2 * np.einsum("ikj,ikj->ik", rows, rows)))
            e, live = decay(times_c[k])
            weighted(e @ signed[live:], root_c[k], coarse[k])
        # each term left out is at most e^floor |C X|_k |X^T B|_k entrywise
        dropped = math.exp(_EXP_FLOOR) * float(np.linalg.norm(absolute.sum(axis=0))) * math.sqrt(tbar)
        return (root, root_c), fine, coarse, math.sqrt(envelope), dropped


class _SchurRecord(_Record):
    """Real Schur form ``schur`` of A_std, for every other model, kept
    with ``a`` = A_std, ``b`` = B_std and ``c`` = C."""

    def __init__(self, sys: StateSpaceSystem):
        super().__init__(sys)
        self.a, self.b, self.c = sys.A, sys.B, sys.C
        if sys.E is not None:
            # one LU of E for both
            ab = np.linalg.solve(sys.E, np.hstack([sys.A, sys.B]))
            self.a, self.b = _readonly(ab[:, :sys.n]), _readonly(ab[:, sys.n:])
        self.schur = _schur_form(self.a)
        self.eigvals, self.norm2 = self.schur.eigvals, self.schur.norm2

    def _propagators(self, tbar: float):
        phi = expm(self.a, tbar)
        return phi @ self.b, self.c @ phi

    def gramians(self, tbar: float) -> tuple[tuple, tuple]:
        """Bartels-Stewart on the Schur form of A_std for P, and for Q on
        the Schur form of A_std^T that it gives with the order of the
        Schur vectors reversed, as the pairs (Schur vectors, core)."""
        b, c = self.b, self.c
        if math.isfinite(tbar):
            f, g = self.propagators(tbar)
            w_p, w_q = f @ f.T - b @ b.T, g.T @ g - c.T @ c
        else:
            w_p, w_q = -b @ b.T, -c.T @ c
        _require_separated(self, self, "solve_lyapunov")
        return tuple((s.z, *_psd_factor(_lyapunov_core(s, w), name))
                     for name, s, w in (("P", self.schur, w_p), ("Q", self.schur.transposed(), w_q)))

    def mixed(self, s11: _SchurForm, b1: np.ndarray, fr, tbar: float) -> np.ndarray:
        w = -self.b @ b1.T
        if fr is not None:
            w += self.propagators(tbar)[0] @ fr.T
        return _solve_sylvester(self.schur, s11, w)

    def project(self, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return w.T @ self.a @ v, w.T @ self.b

    def _kernel_samples(self, tbar: float, levels: int) -> tuple:
        roots = tuple(_mesh_nodes(tbar, levels, coarse)[1] for coarse in (False, True))
        base = _mesh_exponentials(self.a, tbar, levels)[1]
        fine, coarse, energy = _mesh_samples(base, self.b, self.c, levels, roots)
        return roots, fine, coarse, float(np.linalg.norm(self.c)) * math.sqrt(energy), 0.0


def load_system(manifest) -> StateSpaceSystem:
    """Build a system from a JSON manifest mapping roles to Matrix Market files.

    ``manifest`` is either the path of a JSON document like
    ``{"A": "A.mtx", "B": "B.mtx", "C": "C.mtx", "E": "E.mtx"}`` ("E"
    optional) or an equivalent mapping. Relative paths resolve against
    the manifest's directory. The system is named after the manifest's
    file name, or "system" for a mapping.
    """
    if isinstance(manifest, (str, os.PathLike)):
        manifest_path = str(manifest)
        if not os.path.isfile(manifest_path):
            raise FileNotFoundError(f"manifest not found: {manifest_path}")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            try:
                mapping = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{manifest_path}: invalid JSON manifest ({exc})") from exc
        base = os.path.dirname(os.path.abspath(manifest_path))
        name = os.path.splitext(os.path.basename(manifest_path))[0]
    else:
        mapping, base, name = dict(manifest), ".", "system"
    if not isinstance(mapping, dict):
        raise ValueError("manifest must be a JSON object mapping roles to file paths")
    missing = [role for role in ("A", "B", "C") if role not in mapping]
    if missing:
        raise ValueError(f"manifest is missing required roles: {', '.join(missing)}")

    def _load(role):
        p = mapping[role]
        if not os.path.isabs(p):
            p = os.path.join(base, p)
        if not os.path.isfile(p):
            raise FileNotFoundError(f"matrix file for role {role!r} not found: {p}")
        return mmio.read_matrix(p)

    a = _load("A")
    b = _load("B")
    c = _load("C")
    e = _load("E") if "E" in mapping and mapping["E"] else None
    return StateSpaceSystem(A=a, B=b, C=c, E=e, name=name)


def generate_heat_model(n: int, m: int, p: int) -> StateSpaceSystem:
    """Finite-difference semi-discretized heat equation on the unit interval.

    A = (n+1)^2 * tridiag(1, -2, 1), B collects the first m columns of the
    identity, C the last p rows. Deterministic; no mass matrix.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not (1 <= m <= n):
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if not (1 <= p <= n):
        raise ValueError(f"p must be in [1, {n}], got {p}")
    h2 = float((n + 1) ** 2)
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, i] = -2.0 * h2
    a[i[:-1], i[1:]] = a[i[1:], i[:-1]] = h2
    b = np.eye(n, m)
    c = np.eye(p, n, k=n - p)
    return StateSpaceSystem(A=a, B=b, C=c, name=f"heat-{n}-{m}-{p}")


@dataclass(frozen=True, eq=False)
class InputSignal:
    """Time-dependent input u(t) on t >= 0.

    Kinds: ``constant`` (fixed vector), ``star`` (the 7-component mixed
    trigonometric/decay benchmark signal), ``zero``, and ``table``
    (linear interpolation of samples, constant extrapolation beyond the
    last sample). ``sample`` evaluates a whole time grid at once;
    ``evaluate`` (and calling the signal) is its one-point case.
    """

    kind: str
    m: int
    values: np.ndarray | None = None
    times: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _INPUT_KINDS:
            raise ValueError(f"kind must be one of {', '.join(_INPUT_KINDS)}, got {self.kind!r}")
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if self.kind == "star" and self.m != 7:
            raise ValueError(f"m must be 7 for the star signal, got {self.m}")
        # values is (rows, m), one row for a constant; times is (1, rows), for a table only
        for name, kinds in (("values", ("constant", "table")), ("times", ("table",))):
            arr = getattr(self, name)
            if (arr is None) == (self.kind in kinds):
                raise ValueError(f"{name} must be {'given' if arr is None else 'absent'} for a {self.kind} signal")
            if arr is not None:
                arr = _readonly(arr)
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name} contains non-finite entries")
                object.__setattr__(self, name, arr)
        v, t = self.values, self.times
        if self.kind == "constant" and v.shape != (1, self.m):
            raise ValueError(f"values must have shape {(1, self.m)} for a constant signal, got {v.shape}")
        if self.kind == "table":
            if t.ndim != 2 or t.shape[0] != 1 or t.size < 1:
                raise ValueError(f"times must have shape (1, k) with k >= 1, got {t.shape}")
            if v.shape != (t.size, self.m):
                raise ValueError(f"values must have one row of values per timestamp and {self.m} columns, "
                                 f"got shape {v.shape} for {t.size} timestamps")
            if np.any(np.diff(t[0]) <= 0):
                raise ValueError("times must be strictly increasing")
            if t[0, 0] < 0:
                raise ValueError(f"times must be nonnegative, first is {t[0, 0]}")

    @classmethod
    def constant(cls, values) -> "InputSignal":
        v = np.asarray(values, dtype=float).ravel()
        return cls(kind="constant", m=v.size, values=v[None, :])

    @classmethod
    def star(cls) -> "InputSignal":
        return cls(kind="star", m=7)

    @classmethod
    def zero(cls, m: int) -> "InputSignal":
        return cls(kind="zero", m=m)

    @classmethod
    def from_table(cls, times, values) -> "InputSignal":
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        return cls(kind="table", m=v.shape[1], values=v, times=np.asarray(times, dtype=float).reshape(1, -1))

    def sample(self, times) -> np.ndarray:
        """Evaluate on a 1-D grid of times t >= 0; row k of the
        (len(times), m) result is u(times[k])."""
        t = np.asarray(times, dtype=float).ravel()
        if t.size and np.min(t) < 0:
            raise ValueError(f"input signals are defined on t >= 0, got t = {np.min(t)}")
        if self.kind == "constant":
            return np.repeat(self.values, t.size, axis=0)
        if self.kind == "zero":
            return np.zeros((t.size, self.m))
        if self.kind == "star":
            return np.column_stack(
                [
                    np.sin(4.0 * t * math.pi / 100.0),
                    np.cos(t * math.pi / 100.0),
                    np.full(t.size, 3.0),
                    np.exp(-2.0 * t),
                    np.cos(t / 100.0) * np.exp(-t),
                    1.0 / (1.0 + t * t),
                    1.0 / (1.0 + np.sqrt(t)),
                ]
            )
        # table: linear interpolation, constant extrapolation
        return np.column_stack([np.interp(t, self.times[0], self.values[:, j]) for j in range(self.m)])

    def evaluate(self, t: float) -> np.ndarray:
        """Evaluate at a scalar time t >= 0."""
        return self.sample([t])[0]

    __call__ = evaluate

