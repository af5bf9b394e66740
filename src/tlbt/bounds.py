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
G = C e^(A tbar) partitioned conformally. The balanced form is not
solved afresh: with the dense balancing transform S it takes the trace
route's objects into balanced coordinates (F_bal = S F, G_bal = G S^-1,
Pm_bal = S Pm), so both forms share one Schur form of A, one set of
propagators and one mixed Gramian. Classical unrestricted bounds (the
2-sum Hankel bound and the infinite-horizon leading trace) and a
sampled frequency-response error are included for comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balancing import ReducedModel, _balancing_transform
from .errors import DimensionError, SpectrumSeparationError, StabilityError
from .gramians import GramianSet, _check_horizon, mixed_gramian, reduced_gramian
from .linalg import _schur_form, as_matrix, expm, spectrum_separation

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
    the full operator A."""
    s11 = _schur_form(a11)
    for sep, label in ((spectrum_separation(a11, a11), "Lambda(A11) and -Lambda(A11)"),
                       (s.separation(s11), "Lambda(A) and -Lambda(A11)")):
        if not sep.is_separated:
            lam, mu = sep.worst_pair
            raise SpectrumSeparationError(
                f"the error-bound hypothesis that {label} do not intersect fails: "
                f"pair lambda={lam:.6g}, mu={mu:.6g} has |lambda + mu| = {sep.min_sum_abs:.3e}"
            )


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
    tbar = _check_horizon(tbar)
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


def _balanced_coordinates(sys, gramians: GramianSet, r: int, tbar: float) -> dict:
    """The order-r balanced truncation and the trace route's objects in
    balanced coordinates x_bal = S x, by change of coordinates: the
    realization (S A S^-1, S B, C S^-1), F_bal = S F, G_bal = G S^-1,
    PM_bal = S Pm, and the reduced model's Pr and Fr. Lambda(A_bal) =
    Lambda(A), so the hypotheses are checked on A's Schur form. With
    tbar = inf only the realization and PM are formed."""
    n = sys.n
    if not (1 <= r <= n):
        raise ValueError(f"r must be in [1, {n}], got {r}")
    if gramians.P.shape != (n, n):
        raise DimensionError(f"Gramians of shape {gramians.P.shape} do not match n = {n}")
    s, s_inv, sigma = _balancing_transform(gramians.lowrank_P, gramians.lowrank_Q)
    op = sys._operator()
    a_bal = s @ op.a @ s_inv
    b_bal = s @ op.b
    c_bal = sys.C @ s_inv
    rom = ReducedModel(A11=a_bal[:r, :r], B1=b_bal[:r, :], C1=c_bal[:, :r], r=r, horizon=tbar)
    _check_hypotheses(op.schur, rom.A11)
    d = {"sigma": sigma, "A": a_bal, "B": b_bal, "C": c_bal, "r": r,
         "PM": s @ mixed_gramian(sys, rom, tbar)}
    if math.isfinite(tbar):
        f, g = op.propagators(tbar)
        d.update(F=s @ f, G=g @ s_inv, Pr=reduced_gramian(rom, tbar),
                 Fr=expm(rom.A11, tbar) @ rom.B1)
    return d


def _leading_trace(d) -> float:
    """tr(S2 (B2 B2^T + 2 PM2 A21^T)) over the discarded block."""
    r = d["r"]
    b2, pm2, a21 = d["B"][r:, :], d["PM"][r:, :], d["A"][r:, :r]
    return float(np.sum(d["sigma"][r:] * (np.sum(b2 * b2, axis=1) + 2.0 * np.sum(pm2 * a21, axis=1))))


def tlbt_h2_bound_alt(sys, gramians: GramianSet, r: int, tbar: float) -> BoundReport:
    """Same bound as :func:`tlbt_h2_bound`, evaluated in balanced
    coordinates as leading trace + remainder + correction.

    Requires positive definite Gramians (dense balancing transform). The
    implied reduced model is the order-r balanced truncation. The
    propagators and the mixed Gramian are those of the trace route,
    moved into balanced coordinates, so agreement with
    :func:`tlbt_h2_bound` checks the identity between the two
    representations on shared Gramians, not the equation solves
    themselves (those are checked against quadrature).
    """
    tbar = _check_horizon(tbar)
    d = _balanced_coordinates(sys, gramians, r, tbar)
    sigma = d["sigma"]
    sigma1 = sigma[:r]
    g1, f1, c1 = d["G"][:, :r], d["F"][:r, :], d["C"][:, :r]
    leading = _leading_trace(d)
    cross = float(np.sum(g1 * (d["G"] @ d["PM"])))
    obs = float(np.sum((g1 @ d["Pr"]) * g1))
    reach = float(np.sum(sigma1 * np.sum(f1 * f1, axis=1)))
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


def remainder_diagnostics(sys, gramians: GramianSet, r: int, tbar: float) -> RemainderDiagnostics:
    """Frobenius certificates for the remainder of the balanced
    representation at horizon tbar."""
    d = _balanced_coordinates(sys, gramians, r, _check_horizon(tbar))
    f1, g1 = d["F"][:r, :], d["G"][:, :r]
    norm_f1 = float(np.linalg.norm(f1))
    norm_g1 = float(np.linalg.norm(g1))
    norm_g = float(np.linalg.norm(d["G"]))
    norm_pm = float(np.linalg.norm(d["PM"]))
    trace_sigma1 = float(np.sum(d["sigma"][:r]))
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


def bt_h2_bound_infinite(sys, gramians: GramianSet, r: int) -> float:
    """Squared H2 error bound of unrestricted balanced truncation:
    tr(S2 (B2 B2^T + 2 Pm2 A21^T)) in balanced coordinates.

    ``gramians`` must be the unrestricted pair of a Hurwitz system.
    """
    if math.isfinite(gramians.horizon):
        raise ValueError("the unrestricted H2 bound needs Gramians with horizon = inf")
    if np.any(sys._operator().schur.eigvals.real >= 0):
        raise StabilityError("the unrestricted H2 bound requires a Hurwitz system")
    return _leading_trace(_balanced_coordinates(sys, gramians, r, math.inf))


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
