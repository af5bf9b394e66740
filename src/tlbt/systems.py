"""State-space models, model generators, and input signals.

A system is x' = A x + B u, y = C x, optionally with a nonsingular mass
matrix E on the left of x'. A system's matrices are immutable after
construction (its arrays are marked read-only).

Each system memoizes, on first use, one record of its standard-form
operator A_std = E^-1 A: the real Schur form (T, Z) of A_std, two n x n
arrays (with a mass matrix also A_std itself and the n x m B_std), and
per horizon tbar the n x m block e^(A_std tbar) B_std and the p x n block
C e^(A_std tbar). When A_std is exactly symmetric (the heat models
without a mass matrix) the same Schur form also serves A_std^T. Every
entry is a deterministic function of the system and the horizon, built
once under a lock, so systems can still be shared freely across threads.
"""
from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import mmio
from .errors import DimensionError
from .linalg import _schur_form, as_matrix, expm

__all__ = [
    "StateSpaceSystem",
    "InputSignal",
    "load_system",
    "generate_heat_model",
    "apply_state_transform",
    "random_piecewise_constant",
]

# E is accepted as nonsingular when its condition estimate stays below 1/_E_COND_TOL
_E_COND_TOL = 1e-12

# guards building the operator records and their horizon entries
_RECORD_LOCK = threading.Lock()


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StateSpaceSystem:
    """Linear time-invariant system (E) x' = A x + B u, y = C x.

    A is n x n, B is n x m, C is p x n; E is an optional nonsingular
    n x n mass matrix (None means identity).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray | None = None
    name: str = "system"

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"A must be square, got shape {a.shape}")
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
            cond = np.linalg.cond(e)
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

    def _operator(self) -> "_OperatorRecord":
        """The memoized record of this system's standard-form operator."""
        with _RECORD_LOCK:
            rec = self.__dict__.get("_record")
            if rec is None:
                rec = _OperatorRecord(self)
                object.__setattr__(self, "_record", rec)
            return rec


class _OperatorRecord:
    """Standard-form operator of one system, factored once.

    ``a``/``b`` are A_std = E^-1 A and B_std = E^-1 B (the system's own A
    and B without a mass matrix), ``schur`` the real Schur form of A_std
    with its eigenvalues, 2-norm and exact-symmetry flag, ``label`` its
    name in messages.
    """

    def __init__(self, sys: StateSpaceSystem):
        if sys.E is None:
            self.a, self.b, self.label = sys.A, sys.B, "A"
        else:
            self.label = "E^-1 A"
            self.a = np.linalg.solve(sys.E, sys.A)
            self.b = np.linalg.solve(sys.E, sys.B)
            self.a.flags.writeable = False
            self.b.flags.writeable = False
        self.c = sys.C
        self.schur = _schur_form(self.a)
        self._horizons: dict = {}

    def propagators(self, tbar: float) -> tuple[np.ndarray, np.ndarray]:
        """F = e^(A_std tbar) B_std and G = C e^(A_std tbar); the n x n
        exponential itself is not kept."""
        with _RECORD_LOCK:
            if tbar not in self._horizons:
                phi = expm(self.a, tbar)
                f, g = phi @ self.b, self.c @ phi
                f.flags.writeable = False
                g.flags.writeable = False
                self._horizons[tbar] = (f, g)
            return self._horizons[tbar]


def load_system(manifest, name: str | None = None) -> StateSpaceSystem:
    """Build a system from a JSON manifest mapping roles to Matrix Market files.

    ``manifest`` is either the path of a JSON document like
    ``{"A": "A.mtx", "B": "B.mtx", "C": "C.mtx", "E": "E.mtx"}`` ("E"
    optional) or an equivalent mapping. Relative paths resolve against
    the manifest's directory.
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
        if name is None:
            name = os.path.splitext(os.path.basename(manifest_path))[0]
    else:
        mapping = dict(manifest)
        base = "."
        if name is None:
            name = "system"
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
    a = h2 * (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
    b = np.eye(n)[:, :m].copy()
    c = np.eye(n)[n - p:, :].copy()
    return StateSpaceSystem(A=a, B=b, C=c, name=f"heat-{n}-{m}-{p}")


def apply_state_transform(sys: StateSpaceSystem, s) -> StateSpaceSystem:
    """Similarity transform x -> S x, giving (S A S^-1, S B, C S^-1).

    Only defined for systems without a mass matrix.
    """
    if sys.E is not None:
        raise ValueError("state transforms are only supported for systems without a mass matrix")
    s = as_matrix(s, "S")
    if s.shape != (sys.n, sys.n):
        raise DimensionError(f"S must have shape {(sys.n, sys.n)}, got {s.shape}")
    cond = np.linalg.cond(s)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(f"S is numerically singular (condition estimate {cond:.3e})")
    s_inv = np.linalg.inv(s)
    return StateSpaceSystem(
        A=s @ sys.A @ s_inv,
        B=s @ sys.B,
        C=sys.C @ s_inv,
        name=f"{sys.name}-transformed",
    )


@dataclass(frozen=True)
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
    label: str = field(default="")

    @classmethod
    def constant(cls, values) -> "InputSignal":
        v = np.atleast_1d(np.asarray(values, dtype=float)).ravel()
        if v.size < 1 or not np.all(np.isfinite(v)):
            raise ValueError("constant input needs a finite, nonempty vector")
        return cls(kind="constant", m=v.size, values=_readonly(v[None, :]), label="const")

    @classmethod
    def star(cls) -> "InputSignal":
        return cls(kind="star", m=7, label="star")

    @classmethod
    def zero(cls, m: int) -> "InputSignal":
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        return cls(kind="zero", m=m, label="zero")

    @classmethod
    def from_table(cls, times, values) -> "InputSignal":
        t = np.asarray(times, dtype=float).ravel()
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if t.size < 1 or v.shape[0] != t.size:
            raise ValueError(f"table needs one row of values per timestamp, got {v.shape[0]} rows for {t.size} timestamps")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("table contains non-finite entries")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("table timestamps must be strictly increasing")
        if t[0] < 0:
            raise ValueError(f"table timestamps must be nonnegative, first is {t[0]}")
        return cls(kind="table", m=v.shape[1], values=_readonly(v), times=_readonly(t[None, :]), label="table")

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


def random_piecewise_constant(m: int, tbar: float, blocks: int, rng, ramp: float | None = None) -> InputSignal:
    """Random piecewise-constant signal on [0, tbar] with unit L2 norm.

    Block values are drawn uniformly from [-1, 1] and the whole signal is
    scaled so that its exact L2 norm over [0, tbar] is 1. The jumps are
    realized as very short linear ramps (width ``ramp``, default
    1e-9 * tbar / blocks) so the signal fits the sample-table input kind;
    the norm perturbation from the ramps is far below any tolerance used
    with these signals.
    """
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    if tbar <= 0:
        raise ValueError(f"tbar must be positive, got {tbar}")
    edges = np.linspace(0.0, tbar, blocks + 1)
    width = tbar / blocks
    if ramp is None:
        ramp = 1e-9 * width
    vals = rng.uniform(-1.0, 1.0, size=(blocks, m))
    norm_sq = float(np.sum(vals**2) * width)
    if norm_sq <= 0:
        vals[0, 0] = 1.0
        norm_sq = width
    vals /= math.sqrt(norm_sq)
    times = []
    rows = []
    for i in range(blocks):
        times.append(edges[i])
        rows.append(vals[i])
        times.append(edges[i + 1] - ramp)
        rows.append(vals[i])
    return InputSignal.from_table(np.array(times), np.array(rows))
