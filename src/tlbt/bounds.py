"""Output-error bounds for balanced truncation on finite and infinite
horizons.

For a reduced model (A11, B1, C1) of (A, B, C) on a horizon [0, tbar],
the time-limited squared H2-type mismatch

    eps^2 = tr(C P C^T) + tr(C1 Pr C1^T) - 2 tr(C Pm C1^T)

(with P the time-limited reachability Gramian, Pr its reduced-model
analogue, and Pm the mixed Gramian) bounds the output error pointwise:

    max_{t in [0, tbar]} ||y(t) - y_r(t)||_2  <=  eps * ||u||_{L2[0, tbar]}.

An equivalent representation of eps^2 written in balanced coordinates
splits into the classical-looking leading trace, a remainder that decays
exponentially in tbar for stable systems, and a nonpositive correction:

    eps^2 = tr(S2 (B2 B2^T + 2 Pm2 A21^T)) + R - tr((F1 - Fr)(F1 - Fr)^T S1),
    R = -2 tr(G1^T G Pm) + tr(G1^T G1 Pr) + tr(F1 F1^T S1),

with S = diag(sigma) the balanced Gramian, F = e^(A tbar) B and
G = C e^(A tbar) partitioned conformally. Classical unrestricted bounds
(the 2-sum Hankel bound and the infinite-horizon leading trace) and a
sampled frequency-response error are included for comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balancing import ReducedModel, _balancing_transform
from .errors import DimensionError, SpectrumSeparationError, StabilityError
from .gramians import GramianSet, mixed_gramian, reduced_gramian
from .linalg import (
    _schur_form,
    _solve_lyapunov,
    _solve_sylvester,
    as_matrix,
    expm,
    spectrum_separation,
)

__all__ = [
    "BoundReport",
    "RemainderDiagnostics",
    "tlbt_h2_bound",
    "tlbt_h2_bound_alt",
    "remainder_diagnostics",
    "bt_hinf_bound",
    "bt_h2_bound_infinite",
    "hinf_error_sampled",
]

# negative radicands larger than this (relative to the leading trace) are
# treated as numerical inconsistency rather than rounding
_RADICAND_RTOL = 1e-12

DEFAULT_VERIFICATION_CAP = 500


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the time-limited output-error bound.

    ``epsilon`` multiplies the input's L2 norm on [0, horizon] to bound
    the worst output deviation on that window. The three ``term_*``
    fields are the traces whose combination gives epsilon^2; the
    ``alt_*`` fields are only set when the balanced-coordinates
    representation was evaluated.
    """

    epsilon: float
    term_cpc: float
    term_cprc: float
    term_cpmc: float
    horizon: float
    r: int
    alt_leading: float | None = None
    alt_remainder: float | None = None
    alt_last: float | None = None

    @property
    def epsilon_squared(self) -> float:
        return self.epsilon * self.epsilon

    def to_dict(self) -> dict:
        out = {
            "epsilon": self.epsilon,
            "term_cpc": self.term_cpc,
            "term_cprc": self.term_cprc,
            "term_cpmc": self.term_cpmc,
            "horizon": self.horizon,
            "r": self.r,
        }
        for key in ("alt_leading", "alt_remainder", "alt_last"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass(frozen=True)
class RemainderDiagnostics:
    """Frobenius-norm certificates for the remainder term R.

    Each summand of R obeys a product bound:

        |tr(G1^T G Pm)|  <= norm_G1 * norm_G * norm_PM   (= bound_cross),
        tr(G1^T G1 Pr)   <= norm_G1^2 * trace_Pr         (= bound_obs),
        tr(F1 F1^T S1)   <= norm_F1^2 * trace_Sigma1     (= bound_reach),

    so |R| <= 2 * bound_cross + bound_obs + bound_reach. For a Hurwitz
    system every certificate decays exponentially in the horizon.
    """

    norm_F1: float
    norm_G1: float
    norm_G: float
    norm_PM: float
    trace_Sigma1: float
    trace_Pr: float
    bound_cross: float
    bound_obs: float
    bound_reach: float

    def total_remainder_bound(self) -> float:
        return 2.0 * self.bound_cross + self.bound_obs + self.bound_reach


def _check_hypotheses(s, a11):
    """Check the bound's spectral hypotheses; ``s`` is the Schur form of
    the full operator A. Returns the Schur form of A11."""
    s11 = _schur_form(a11)
    for sep, label in ((spectrum_separation(a11, a11), "Lambda(A11) and -Lambda(A11)"),
                       (s.separation(s11), "Lambda(A) and -Lambda(A11)")):
        if not sep.is_separated:
            lam, mu = sep.worst_pair
            raise SpectrumSeparationError(
                f"the error-bound hypothesis that {label} do not intersect fails: "
                f"pair lambda={lam:.6g}, mu={mu:.6g} has |lambda + mu| = {sep.min_sum_abs:.3e}"
            )
    return s11


def _epsilon_from_radicand(radicand: float, scale: float) -> float:
    if radicand < 0:
        if radicand < -_RADICAND_RTOL * max(scale, 0.0):
            raise ArithmeticError(
                f"bound radicand {radicand:.6e} is negative beyond rounding "
                f"(leading trace {scale:.6e}); the Gramians are numerically inconsistent"
            )
        return 0.0
    return math.sqrt(radicand)


def tlbt_h2_bound(sys, rom: ReducedModel, p_tbar, tbar: float, p_factor=None) -> BoundReport:
    """Time-limited output-error bound from the Gramian traces.

    Parameters
    ----------
    sys : StateSpaceSystem
    rom : ReducedModel
        Reduction of ``sys`` (any projection with conforming dimensions).
    p_tbar : (n, n) array_like
        Time-limited reachability Gramian of ``sys`` on [0, tbar]. May be
        None when ``p_factor`` is given.
    tbar : float
    p_factor : (n, k) array_like, optional
        Low-rank factor Z with P ~= Z Z^T; when given, the leading trace
        is evaluated as ||C Z||_F^2 instead of tr(C P C^T).

    Returns
    -------
    BoundReport
    """
    tbar = float(tbar)
    if not (tbar > 0 and math.isfinite(tbar)):
        raise ValueError(f"tbar must be positive and finite, got {tbar}")
    a11 = as_matrix(rom.A11, "A11")
    c1 = as_matrix(rom.C1, "C1")
    if c1.shape[0] != sys.p:
        raise DimensionError(f"C1 has {c1.shape[0]} rows but the system has p = {sys.p}")
    if rom.r > sys.n:
        raise DimensionError(f"reduced order {rom.r} exceeds the system dimension {sys.n}")
    _check_hypotheses(sys._operator().schur, a11)
    if p_factor is not None:
        z = as_matrix(p_factor, "P factor")
        term_cpc = float(np.sum((sys.C @ z) ** 2))
    else:
        p = as_matrix(p_tbar, "P")
        term_cpc = float(np.trace(sys.C @ p @ sys.C.T))
    pr = reduced_gramian(rom, tbar)
    pm = mixed_gramian(sys, rom, tbar)
    term_cprc = float(np.sum((c1 @ pr) * c1))
    term_cpmc = float(np.sum((sys.C @ pm) * c1))
    radicand = term_cpc + term_cprc - 2.0 * term_cpmc
    eps = _epsilon_from_radicand(radicand, term_cpc)
    return BoundReport(
        epsilon=eps,
        term_cpc=term_cpc,
        term_cprc=term_cprc,
        term_cpmc=term_cpmc,
        horizon=tbar,
        r=rom.r,
    )


def _balanced_realization(sys, gramians: GramianSet, r: int, cap: int) -> dict:
    """Balanced realization (A, B, C) of the standard form, the balanced
    singular values, and the Schur forms of A and of its leading r x r
    block A11, whose spectral hypotheses are checked."""
    n = sys.n
    if n > cap:
        raise ValueError(
            f"balanced-coordinates verification is capped at n = {cap} (got n = {n}); "
            "raise cap explicitly if this is intended"
        )
    if not (1 <= r <= n):
        raise ValueError(f"r must be in [1, {n}], got {r}")
    if gramians.P.shape != (n, n):
        raise DimensionError(f"Gramians of shape {gramians.P.shape} do not match n = {n}")
    s, s_inv, sigma = _balancing_transform(gramians.lowrank_P, gramians.lowrank_Q)
    op = sys._operator()
    a_bal = s @ op.a @ s_inv
    s_bal = _schur_form(a_bal)
    return {
        "sigma": sigma,
        "A": a_bal,
        "B": s @ op.b,
        "C": sys.C @ s_inv,
        "schur": s_bal,
        "schur11": _check_hypotheses(s_bal, a_bal[:r, :r]),
        "r": r,
    }


def _balanced_partition(sys, gramians: GramianSet, r: int, tbar: float, cap: int) -> dict:
    """The balanced realization plus its horizon propagators F and G and
    the reduced and mixed Gramians Pr, PM in balanced coordinates."""
    d = _balanced_realization(sys, gramians, r, cap)
    phi = expm(d["A"], tbar)
    b1 = d["B"][:r, :]
    fr = expm(d["A"][:r, :r], tbar) @ b1
    f_bal = phi @ d["B"]
    d.update(
        F=f_bal,
        G=d["C"] @ phi,
        Fr=fr,
        Pr=_solve_lyapunov(d["schur11"], fr @ fr.T - b1 @ b1.T),
        PM=_solve_sylvester(d["schur"], d["schur11"], f_bal @ fr.T - d["B"] @ b1.T),
    )
    return d


def _remainder_terms(d):
    r = d["r"]
    sigma1 = d["sigma"][:r]
    g1 = d["G"][:, :r]
    f1 = d["F"][:r, :]
    cross = float(np.sum(g1 * (d["G"] @ d["PM"])))
    obs = float(np.sum((g1 @ d["Pr"]) * g1))
    reach = float(np.sum(sigma1 * np.sum(f1 * f1, axis=1)))
    return cross, obs, reach


def tlbt_h2_bound_alt(sys, gramians: GramianSet, r: int, tbar: float,
                      cap: int = DEFAULT_VERIFICATION_CAP) -> BoundReport:
    """Same bound as :func:`tlbt_h2_bound`, evaluated in balanced
    coordinates as leading trace + remainder + correction.

    Requires positive definite Gramians (dense balancing transform). The
    implied reduced model is the order-r balanced truncation.
    """
    tbar = float(tbar)
    if not (tbar > 0 and math.isfinite(tbar)):
        raise ValueError(f"tbar must be positive and finite, got {tbar}")
    d = _balanced_partition(sys, gramians, r, tbar, cap)
    sigma = d["sigma"]
    sigma1, sigma2 = sigma[:r], sigma[r:]
    a21 = d["A"][r:, :r]
    b2 = d["B"][r:, :]
    pm2 = d["PM"][r:, :]
    f1 = d["F"][:r, :]
    c1 = d["C"][:, :r]
    leading = float(np.sum(sigma2 * (np.sum(b2 * b2, axis=1) + 2.0 * np.sum(pm2 * a21, axis=1))))
    cross, obs, reach = _remainder_terms(d)
    remainder = -2.0 * cross + obs + reach
    diff = f1 - d["Fr"]
    last = -float(np.sum(sigma1 * np.sum(diff * diff, axis=1)))
    eps_sq = leading + remainder + last
    term_cpc = float(np.sum(sigma * np.sum(d["C"] ** 2, axis=0)))
    term_cprc = float(np.sum((c1 @ d["Pr"]) * c1))
    term_cpmc = float(np.sum((d["C"] @ d["PM"]) * c1))
    eps = _epsilon_from_radicand(eps_sq, term_cpc)
    return BoundReport(
        epsilon=eps,
        term_cpc=term_cpc,
        term_cprc=term_cprc,
        term_cpmc=term_cpmc,
        horizon=tbar,
        r=r,
        alt_leading=leading,
        alt_remainder=remainder,
        alt_last=last,
    )


def remainder_diagnostics(sys, gramians: GramianSet, r: int, tbar: float,
                          cap: int = DEFAULT_VERIFICATION_CAP) -> RemainderDiagnostics:
    """Frobenius certificates for the remainder of the balanced
    representation at horizon tbar."""
    tbar = float(tbar)
    if not (tbar > 0 and math.isfinite(tbar)):
        raise ValueError(f"tbar must be positive and finite, got {tbar}")
    d = _balanced_partition(sys, gramians, r, tbar, cap)
    sigma1 = d["sigma"][:r]
    f1 = d["F"][:r, :]
    g1 = d["G"][:, :r]
    norm_f1 = float(np.linalg.norm(f1))
    norm_g1 = float(np.linalg.norm(g1))
    norm_g = float(np.linalg.norm(d["G"]))
    norm_pm = float(np.linalg.norm(d["PM"]))
    trace_sigma1 = float(np.sum(sigma1))
    trace_pr = float(np.trace(d["Pr"]))
    return RemainderDiagnostics(
        norm_F1=norm_f1,
        norm_G1=norm_g1,
        norm_G=norm_g,
        norm_PM=norm_pm,
        trace_Sigma1=trace_sigma1,
        trace_Pr=trace_pr,
        bound_cross=norm_g1 * norm_g * norm_pm,
        bound_obs=norm_g1 * norm_g1 * trace_pr,
        bound_reach=norm_f1 * norm_f1 * trace_sigma1,
    )


def bt_hinf_bound(hankel_values, r: int) -> float:
    """Classical twice-the-tail bound on the H-infinity error of
    unrestricted balanced truncation at order r."""
    sigma = np.asarray(hankel_values, dtype=float).ravel()
    if sigma.size == 0:
        raise ValueError("singular value list is empty")
    if np.any(sigma <= 0) or np.any(np.diff(sigma) > 0):
        raise ValueError("singular values must be positive and nonincreasing")
    if not (0 <= r <= sigma.size):
        raise ValueError(f"r must be in [0, {sigma.size}], got {r}")
    return float(2.0 * np.sum(sigma[r:]))


def bt_h2_bound_infinite(sys, gramians: GramianSet, r: int,
                         cap: int = DEFAULT_VERIFICATION_CAP) -> float:
    """Squared H2 error bound of unrestricted balanced truncation:
    tr(S2 (B2 B2^T + 2 Pm2 A21^T)) in balanced coordinates.

    ``gramians`` must be the unrestricted pair of a Hurwitz system.
    """
    if math.isfinite(gramians.horizon):
        raise ValueError("the unrestricted H2 bound needs Gramians with horizon = inf")
    if np.any(sys._operator().schur.eigvals.real >= 0):
        raise StabilityError("the unrestricted H2 bound requires a Hurwitz system")
    d = _balanced_realization(sys, gramians, r, cap)
    b_bal = d["B"]
    pm = _solve_sylvester(d["schur"], d["schur11"], -b_bal @ b_bal[:r, :].T)
    a21 = d["A"][r:, :r]
    b2 = b_bal[r:, :]
    pm2 = pm[r:, :]
    return float(np.sum(d["sigma"][r:] * (np.sum(b2 * b2, axis=1) + 2.0 * np.sum(pm2 * a21, axis=1))))


def hinf_error_sampled(sys, rom: ReducedModel, frequencies) -> float:
    """Largest transfer-function error sigma_max(H(i w) - Hr(i w)) over a
    frequency sample."""
    freqs = np.asarray(frequencies, dtype=float).ravel()
    if freqs.size == 0:
        raise ValueError("frequency sample is empty")
    op = sys._operator()
    eye_n, eye_r = np.eye(sys.n), np.eye(rom.r)
    worst = 0.0
    for w in freqs:
        try:
            h_full = sys.C @ np.linalg.solve(1j * w * eye_n - op.a, op.b)
            h_rom = rom.C1 @ np.linalg.solve(1j * w * eye_r - rom.A11, rom.B1)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"shifted pencil is singular at frequency w = {w:g}") from exc
        err = np.linalg.norm(h_full - h_rom, 2)
        worst = max(worst, float(err))
    return worst
