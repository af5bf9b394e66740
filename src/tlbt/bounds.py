"""Output-error bounds for balanced truncation on finite and infinite
horizons.

For a reduced model (A11, B1, C1) of (A, B, C) on a horizon [0, tbar],
the time-limited H2-type mismatch bounds the output error pointwise,

    max_{t in [0, tbar]} ||y(t) - y_r(t)||_2  <=  eps * ||u||_{L2[0, tbar]},

whenever eps^2 >= int_0^tbar ||K(s)||_F^2 ds with the error kernel
K(s) = C e^(A s) B - C1 e^(A11 s) B1 (Cauchy-Schwarz). The certificate
is that integral as a sum of squares, so nothing cancels:

    eps = sqrt(I_64 + |I_64 - I_32|) + R,

where I_N is 4-node composite Gauss-Legendre on N panels of ||K(s)||_F^2
(graded toward s = 0 for stiff operators, see ``linalg``), so the change
under panel doubling is added as quadrature slack, and R bounds the L2
norm of the forward rounding bound of the computed kernel,
rho(s) = g_{n+2} |C X| e^(Lambda s) |X^T B| + g_{r+2} |C1| |e^(A11 s) B1|
with g_k = k u:

    R = g_{n+2} (|| |C X| e^(Lambda s) |X^T B| ||_L2 + D) + D + g_{r+2} ||C1||_F ||e^(A11 s) B1||_L2

(Minkowski, and |C1| |Y| <= ||C1||_F ||Y||_F entrywise; without an
eigenbasis ||C||_F ||e^(A s) B||_L2 replaces the first norm and D = 0).
D covers the terms the eigenbasis samples leave out: every term whose
exponent lambda_k s lies below f = -700 (``linalg._EXP_FLOOR``), on the
fine and on the coarse mesh alike. On each mesh run those are the
leading modes whose lambda_k s is below f at the run's first node, and
so at all of its nodes, plus single entries below f, which become exact
zeros instead of subnormal numbers. A term left out is at most
e^f |C X|_k |X^T B|_k entrywise, so at every node of either mesh the
samples are within e^f sum_k |C X|_k |X^T B|_k of the kernel's, and
within that of the envelope's; its L2 norm on [0, tbar] is
D = e^f ||sum_k |C X|_k |X^T B|_k||_F sqrt(tbar). D is about 1e-304
of the kernel's scale: it keeps eps a proof without changing its value.
R is the rounding of the products that form the samples given the
computed factorizations; the error of the factorizations themselves (the
eigenbasis's X and Lambda, the expm at the finest panel width and its
squarings up the mesh) is outside it, and is checked by the tests
against an independent quadrature rather than bounded. The full model's
samples are kept per horizon on the system; each reduced model adds one
batched expm of A11, squarings of it and O(r^2 m N) products.

The paper writes the same integral as three Gramian traces,

    tr(C P C^T) + tr(C1 Pr C1^T) - 2 tr(C Pm C1^T)

(with P the time-limited reachability Gramian, Pr its reduced-model
analogue, and Pm the mixed Gramian). The full model's two are read in
the operator record's coordinates (``systems``): tr(C P C^T) = ||(C X_P) L_P||_F^2
for the factor P = Z Z^T, Z = X_P L_P, that a ``GramianSet`` holds, and
tr(C Pm C1^T) from (C X_P) M for Pm = X_P M, so neither P nor an n-row
factor is formed.
Once the reduced model is good the
three traces agree to more digits than the arithmetic carries, so their
combination is rounding noise; they are kept in the report as the
paper's cross-check and do not enter eps. :func:`tlbt_h2_bound` (the
API and ``tlbt bound``) reports them; the callers that read eps alone,
the TLBT rows of ``tlbt sweep`` and ``tlbt simulate``, call
``_epsilon``, the same steps without Pr and Pm, so a reduced model
costs them one Schur form, one batched expm of five r x r matrices and
its own kernel samples. The paper's hypotheses, Lambda(A)
and Lambda(A11) each disjoint from -Lambda(A11), make Pm and Pr unique;
both go through the solvers' own check, ``linalg._require_separated``,
on both routes.

An equivalent representation of the trace form written in balanced coordinates
splits into the classical-looking leading trace, a remainder that decays
exponentially in tbar for stable systems, and a nonpositive correction:

    eps^2 = tr(S2 (B2 B2^T + 2 Pm2 A21^T)) + R - tr((F1 - Fr)(F1 - Fr)^T S1),
    R = -2 tr(G1^T G Pm) + tr(G1^T G1 Pr) + tr(F1 F1^T S1),

with S = diag(sigma) the balanced Gramian, F = e^(A tbar) B and
G = C e^(A tbar) partitioned conformally. Balanced coordinates are
x_bal = W^T x with the full-order bases W = X_Q Wc and V = X_P Vc of
:func:`balance` (W^T V = Wc^T Vc = I), so F_bal = Wc^T (X_Q^T F),
G_bal = (G X_P) Vc, PM_bal = Wc^T M, and the first r columns of the
balanced A are W^T A V_r, projected by the system's operator record;
both forms share the factorization of A and the propagators, and
neither an n x n balanced A nor W and V themselves are formed. The order-r balanced truncation is a
reduced model of its own: its A11 gets one Schur form and one expm, and
Pr and Pm are solved again on them. The terms, their sum and
Frobenius certificates of the remainder come from one evaluation. Classical
unrestricted bounds (the 2-sum Hankel bound and the infinite-horizon
leading trace) are included for comparison.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .balancing import ReducedModel, _check_order, _singular_values, balance
from .errors import DimensionError
from .gramians import GramianSet, _check_horizon, _mixed_core, _reduced_gramian
from .linalg import (
    _mesh_exponentials,
    _mesh_levels,
    _mesh_samples,
    _require_hurwitz,
    _require_separated,
    _schur_form,
    as_matrix,
    expm,
)

__all__ = [
    "BalancedRepresentation",
    "BoundReport",
    "tlbt_h2_bound",
    "tlbt_h2_bound_alt",
    "bt_hinf_bound",
    "bt_h2_bound_infinite",
]

# negative radicands larger than this (relative to the leading trace) are
# treated as numerical inconsistency rather than rounding
_RADICAND_RTOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the time-limited output-error bound.

    ``epsilon`` multiplies the input's L2 norm on [0, horizon] to bound
    the worst output deviation on that window. The three ``term_*``
    fields are the paper's Gramian traces, whose combination
    term_cpc + term_cprc - 2 term_cpmc is the trace form of epsilon^2
    (see the module docstring); they do not enter epsilon.
    """

    epsilon: float
    term_cpc: float
    term_cprc: float
    term_cpmc: float
    horizon: float
    r: int

    @property
    def epsilon_squared(self) -> float:
        return self.epsilon * self.epsilon

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BalancedRepresentation:
    """The trace form of eps^2 in balanced coordinates, with Frobenius
    certificates for its remainder (see the module docstring).

    ``epsilon_squared`` is leading + remainder + last, unclamped, so
    rounding may leave it slightly negative; the ``term_*`` fields are
    the three Gramian traces in balanced coordinates. Each summand of
    the remainder obeys a product bound:

        |tr(G1^T G Pm)|  <= norm_G1 * norm_G * norm_PM   (= bound_cross),
        tr(G1^T G1 Pr)   <= norm_G1^2 * trace_Pr         (= bound_obs),
        tr(F1 F1^T S1)   <= norm_F1^2 * trace_Sigma1     (= bound_reach),

    so |remainder| <= 2 * bound_cross + bound_obs + bound_reach. For a
    Hurwitz system every certificate decays exponentially in the horizon.
    """

    leading: float
    remainder: float
    last: float
    term_cpc: float
    term_cprc: float
    term_cpmc: float
    horizon: float
    r: int
    norm_F1: float
    norm_G1: float
    norm_G: float
    norm_PM: float
    trace_Sigma1: float
    trace_Pr: float
    bound_cross: float
    bound_obs: float
    bound_reach: float

    @property
    def epsilon_squared(self) -> float:
        return self.leading + self.remainder + self.last

    def total_remainder_bound(self) -> float:
        return 2.0 * self.bound_cross + self.bound_obs + self.bound_reach


def _check_hypotheses(op, s11):
    """The bound's hypotheses on the record of A and the Schur form of A11:
    the separation conditions that its Pr and Pm solves rely on."""
    _require_separated(s11, s11, "bound hypothesis Lambda(A11) and -Lambda(A11) disjoint (the Pr equation)")
    _require_separated(op, s11, "bound hypothesis Lambda(A) and -Lambda(A11) disjoint (the Pm equation)")


def tlbt_h2_bound(sys, rom: ReducedModel, p_tbar, tbar: float) -> BoundReport:
    """Time-limited output-error bound: eps from the sum of squares of
    the error kernel, with the paper's three Gramian traces recorded
    beside it (see the module docstring).

    ``tlbt bound`` and the API get the traces from here; the TLBT rows
    of ``tlbt sweep`` and ``tlbt simulate`` read eps alone and take it
    from ``_epsilon``, the same steps without Pr and Pm.

    Parameters
    ----------
    sys : StateSpaceSystem
    rom : ReducedModel
        Reduction of ``sys`` (any projection with conforming dimensions).
    p_tbar : GramianSet or (n, n) array_like
        The time-limited Gramians of ``sys`` on the same [0, tbar], read
        for the trace tr(C P C^T) only. A set gives it as ||C Z||_F^2
        from its factor Z = X_P L_P, read as (C X_P) L_P in the operator
        record's coordinates, so neither P nor Z is formed, and a set of
        another horizon is refused. A dense reachability Gramian
        P gives it as tr(C P C^T); a P of another horizon is not
        detected: it changes term_cpc alone.
    tbar : float

    Returns
    -------
    BoundReport
    """
    tbar = _check_horizon(tbar)
    op = sys._operator()
    if isinstance(p_tbar, GramianSet):
        if p_tbar.horizon != tbar:
            raise ValueError(f"the Gramians are of horizon {p_tbar.horizon} but the bound's horizon is tbar = {tbar}")
        cz = op.output(next(p_tbar._cores(sys)))
        term_cpc = float(np.vdot(cz, cz))
    else:
        p = as_matrix(p_tbar, "P")
        if p.shape != (sys.n, sys.n):
            raise DimensionError(f"P must have shape {(sys.n, sys.n)} to match the system, got {p.shape}")
        term_cpc = float(np.trace(sys.C @ p @ sys.C.T))
    epsilon, s11, phi_r = _epsilon(sys, rom, tbar, at=tbar)
    b1, c1 = rom.B1, rom.C1
    fr = phi_r @ b1
    pm = _mixed_core(sys, s11, b1, fr, tbar)
    pr = _reduced_gramian(s11, b1, fr)
    return BoundReport(
        epsilon=epsilon,
        term_cpc=term_cpc,
        term_cprc=float(np.sum((c1 @ pr) * c1)),
        term_cpmc=float(np.sum(op.output(pm) * c1)),
        horizon=tbar,
        r=rom.r,
    )


def _epsilon(sys, rom: ReducedModel, tbar: float, at: float | None = None):
    """eps of ``rom`` on [0, tbar] alone: the order and horizon checks,
    one Schur form of A11 with both hypothesis checks, one batched expm
    of the five mesh matrices and the reduced model's kernel samples; no
    Pr or Pm. With ``at`` the batch also gives e^(A11 at) for
    :func:`tlbt_h2_bound`'s traces, and the five are bitwise those
    without it. Returns (eps, the Schur form of A11, e^(A11 at) or None)."""
    tbar = _check_horizon(tbar)
    a11, b1, c1 = rom.A11, rom.B1, rom.C1
    if c1.shape[0] != sys.p:
        raise DimensionError(f"C1 has {c1.shape[0]} rows but the system has p = {sys.p}")
    if b1.shape[1] != sys.m:
        raise DimensionError(f"B1 has {b1.shape[1]} columns but the system has m = {sys.m}")
    if rom.r > sys.n:
        raise DimensionError(f"reduced order {rom.r} exceeds the system dimension {sys.n}")
    op = sys._operator()
    s11 = _schur_form(a11)
    _check_hypotheses(op, s11)
    levels = _mesh_levels(tbar, max(op.norm2, s11.norm2))
    phi, base = _mesh_exponentials(a11, tbar, levels, at=at)
    return _kernel_epsilon(sys, b1, c1, base, tbar, levels), s11, phi


def _kernel_epsilon(sys, b1, c1, base, tbar: float, levels: int) -> float:
    """eps = sqrt(I_64 + |I_64 - I_32|) + R on the operator record's memoized
    samples of the full model and the stepped samples of the reduced one
    (``base`` from ``_mesh_exponentials`` of A11). The samples carry
    the square roots of their quadrature weights, so each weighted sum
    of squares is a dot product."""
    unit = float(np.finfo(float).eps) / 2.0
    roots, full, full_coarse, full_envelope, dropped = sys._operator().kernel_samples(tbar, levels)
    red, red_coarse, red_energy = _mesh_samples(base, b1, c1, levels, roots)
    red -= full
    red_coarse -= full_coarse
    fine, coarse = (float(np.vdot(d, d)) for d in (red, red_coarse))
    rounding = ((sys.n + 2) * unit * (full_envelope + dropped) + dropped
                + (b1.shape[0] + 2) * unit * float(np.linalg.norm(c1)) * math.sqrt(red_energy))
    return math.sqrt(fine + abs(fine - coarse)) + rounding


def _balanced_coordinates(sys, gramians: GramianSet, r: int, tbar: float) -> dict:
    """The order-r balanced truncation and the trace route's objects in
    balanced coordinates x_bal = W^T x, from the full-order W and V of
    :func:`balance` (W^T P W = V^T Q V = diag(sigma), W^T V = I), read
    through its core projectors Wc and Vc in the operator record's
    coordinates, so no n-row product is formed: the first r columns
    [A11; A21] = W^T A V_r of the balanced A and B_bal = W^T B, both
    from the record's projection, C_bal = C V, F_bal = Wc^T (X_Q^T F),
    G_bal = (G X_P) Vc, PM_bal = Wc^T M for Pm = X_P M, and the reduced
    model's Pr and Fr, all on one Schur form of A11.
    Lambda(A_bal) = Lambda(A), so the hypotheses are checked on A's own
    factorization. With tbar = inf only the realization and PM are
    formed."""
    n = sys.n
    bal = balance(gramians, sys)
    if bal.n_hat < n:
        raise ValueError(
            f"P and Q must be positive definite (numerical rank n_hat = {bal.n_hat} < n = {n}); "
            "for semidefinite pairs use balance(), which truncates instead"
        )
    (_, v), (_, w) = bal._pairs
    err = np.linalg.norm(w.T @ v - np.eye(n))
    if err > 1e-8 * math.sqrt(n):
        raise ArithmeticError(
            f"balancing failed the identity check: ||W^T V - I||_F = {err:.3e}; "
            "the Gramian pair is too ill-conditioned for balanced coordinates"
        )
    op = sys._operator()
    a_r, b_bal, _ = op.project(w, v[:, :_check_order(r, 1, n)])
    a11, b1 = a_r[:r], b_bal[:r]
    s11 = _schur_form(a11)
    _check_hypotheses(op, s11)
    d = {"sigma": bal.singular_values, "A": a_r, "B": b_bal, "C": op.output(v), "r": r}
    if math.isfinite(tbar):
        f, g = op.core_propagators(tbar)
        fr = expm(a11, tbar) @ b1
        d.update(F=w.T @ f, G=g @ v, Pr=_reduced_gramian(s11, b1, fr), Fr=fr)
    else:
        fr = None
    d["PM"] = w.T @ _mixed_core(sys, s11, b1, fr, tbar)
    return d


def _leading_trace(d) -> float:
    """tr(S2 (B2 B2^T + 2 PM2 A21^T)) over the discarded block; ``A`` holds
    the first r columns of the balanced A."""
    r = d["r"]
    b2, pm2, a21 = d["B"][r:], d["PM"][r:], d["A"][r:]
    return float(np.sum(d["sigma"][r:] * (np.sum(b2 * b2, axis=1) + 2.0 * np.sum(pm2 * a21, axis=1))))


def tlbt_h2_bound_alt(sys, gramians: GramianSet, r: int) -> BalancedRepresentation:
    """The paper's trace form of :func:`tlbt_h2_bound`'s eps^2, evaluated
    in balanced coordinates as leading trace + remainder + correction,
    with the remainder's certificates, from one :func:`balance` of the
    pair.

    The horizon is ``gramians.horizon``; unrestricted Gramians (horizon
    inf) are refused, their bound is :func:`bt_h2_bound_infinite`.
    Requires positive definite Gramians (n_hat = n), so that balance()'s
    full-order W and V are the balancing transform and its inverse. The
    implied reduced model is the order-r balanced truncation. The
    factorization of A and the propagators are those of the trace
    route, moved into balanced coordinates; Pr and Pm are solved again
    on the balanced A11. Agreement with :func:`tlbt_h2_bound` therefore
    checks the identity between the two representations, not the
    solves of the full model's equations (those are checked against
    quadrature).

    Raises ArithmeticError when the sum is negative beyond rounding
    (below -1e-12 tr(C P C^T)): the Gramians are then inconsistent.
    """
    if gramians.horizon == math.inf:
        raise ValueError("tlbt_h2_bound_alt needs time-limited Gramians; "
                         "for horizon = inf use bt_h2_bound_infinite")
    tbar = _check_horizon(gramians.horizon)
    d = _balanced_coordinates(sys, gramians, r, tbar)
    sigma = d["sigma"]
    sigma1 = sigma[:r]
    g, pm, pr = d["G"], d["PM"], d["Pr"]
    g1, f1, c1 = g[:, :r], d["F"][:r, :], d["C"][:, :r]
    cross = float(np.sum(g1 * (g @ pm)))
    obs = float(np.sum((g1 @ pr) * g1))
    reach = float(np.sum(sigma1 * np.sum(f1 * f1, axis=1)))
    diff = f1 - d["Fr"]
    norm_f1, norm_g1, norm_g, norm_pm = (float(np.linalg.norm(x)) for x in (f1, g1, g, pm))
    trace_sigma1, trace_pr = float(np.sum(sigma1)), float(np.trace(pr))
    rep = BalancedRepresentation(
        leading=_leading_trace(d),
        remainder=-2.0 * cross + obs + reach,
        last=-float(np.sum(sigma1 * np.sum(diff * diff, axis=1))),
        term_cpc=float(np.sum(sigma * np.sum(d["C"] ** 2, axis=0))),
        term_cprc=float(np.sum((c1 @ pr) * c1)),
        term_cpmc=float(np.sum((d["C"] @ pm) * c1)),
        horizon=tbar,
        r=r,
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
    if rep.epsilon_squared < -_RADICAND_RTOL * rep.term_cpc:
        raise ArithmeticError(
            f"bound radicand {rep.epsilon_squared:.6e} is negative beyond rounding "
            f"(leading trace {rep.term_cpc:.6e}); the Gramians are numerically inconsistent"
        )
    return rep


def bt_hinf_bound(hankel_values, r: int) -> float:
    """Classical twice-the-tail bound on the H-infinity error of
    unrestricted balanced truncation at order r."""
    sigma = _singular_values(hankel_values)
    return float(2.0 * np.sum(sigma[_check_order(r, 0, sigma.size):]))


def bt_h2_bound_infinite(sys, gramians: GramianSet, r: int) -> float:
    """Squared H2 error bound of unrestricted balanced truncation:
    tr(S2 (B2 B2^T + 2 Pm2 A21^T)) in balanced coordinates.

    ``gramians`` must be the unrestricted pair of a Hurwitz system.
    """
    if math.isfinite(gramians.horizon):
        raise ValueError("the unrestricted H2 bound needs Gramians with horizon = inf")
    op = sys._operator()
    _require_hurwitz(op, op.label, "the unrestricted H2 bound")
    return _leading_trace(_balanced_coordinates(sys, gramians, r, math.inf))

