"""Acceptance battery: one test per shipped guarantee.

Each test pins the tolerance it enforces; together they cover the output
error bound, the equality of its two representations, the Gramian solver
against an independent quadrature oracle, the long-horizon limit, exact
recovery at full order, coordinate invariance, the classical unrestricted
checks, an adversarial input that attains the bound, and the shape of
the experiment sweeps.
"""
import math
import time

import numpy as np
import scipy.linalg as sla

from conftest import rand_stable
from oracles import (
    apply_state_transform,
    cross_gramian_quadrature,
    hinf_error_sampled,
    random_piecewise_constant,
    solve_sylvester,
)
from tlbt.balancing import balance, select_order, truncate
from tlbt.bounds import (
    bt_h2_bound_infinite,
    bt_hinf_bound,
    tlbt_h2_bound,
    tlbt_h2_bound_alt,
)
from tlbt.cli import main as cli_main
from tlbt.gramians import infinite_gramians, time_limited_gramians
from tlbt.linalg import expm
from tlbt.simulation import input_l2_norm, output_error, simulate
from tlbt.systems import InputSignal, generate_heat_model


def test_criterion_01_bound_dominates_simulated_error():
    """max_t ||y - y_r|| <= eps * ||u|| * (1 + 1e-6) across models, horizons,
    orders, and 20 unit-energy random inputs each; total runtime < 120 s."""
    t0 = time.perf_counter()
    checked = 0
    for n in (10, 20, 50):
        sys = generate_heat_model(n, n, n)
        for tbar in (1.0, 10.0, 100.0):
            gset = time_limited_gramians(sys, tbar)
            bal = balance(gset, sys)
            assert bal.n_hat == n
            dt = tbar / 256
            for r in (2, math.ceil(n / 4), math.ceil(n / 2)):
                rom = truncate(sys, bal.reduce_to(r))
                report = tlbt_h2_bound(sys, rom, gset.P, tbar)
                assert report.epsilon > 0
                for j in range(20):
                    rng = np.random.default_rng(1000 * n + 10 * int(tbar) + r + j)
                    u = random_piecewise_constant(n, tbar, 8, rng)
                    full = simulate(sys, u, tbar, dt)
                    red = simulate(rom, u, tbar, dt)
                    _, max_t, _ = output_error(full, red, tbar)
                    assert max_t <= report.epsilon * (1.0 + 1e-6), (
                        f"bound violated at n={n}, tbar={tbar}, r={r}, input {j}: "
                        f"err {max_t:.6e} > eps {report.epsilon:.6e}"
                    )
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 540
    assert elapsed < 120.0, f"battery took {elapsed:.1f}s"


def test_criterion_02_representations_agree():
    """|eps^2_alt - eps^2_direct| <= 1e-7 * max(eps^2, tr(C P C^T)) on 25
    seeded random stable systems; runtime < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for k in range(25):
        m = int(rng.integers(2, 4))
        p = int(rng.integers(2, 4))
        nmax = min(12, 4 * min(m, p))
        n = int(rng.integers(4, nmax + 1))
        r = int(rng.integers(1, n))
        tbar = float(rng.uniform(0.5, 3.0))
        sys = rand_stable(n, m, p, rng)
        gset = time_limited_gramians(sys, tbar)
        alt = tlbt_h2_bound_alt(sys, gset, r)
        rom = truncate(sys, balance(gset, sys).reduce_to(r))
        direct = tlbt_h2_bound(sys, rom, gset.P, tbar)
        gap = abs(alt.epsilon_squared - direct.epsilon_squared)
        allowance = 1e-7 * max(direct.epsilon_squared, direct.term_cpc)
        assert gap <= allowance, (
            f"draw {k} (n={n}, m={m}, p={p}, r={r}): gap {gap:.3e} > {allowance:.3e}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_sylvester_route_matches_quadrature():
    """Cross-Gramian Sylvester solve vs. 4-node Gauss-Legendre quadrature:
    relative Frobenius gap <= 1e-8 on 25 seeded random instances."""
    rng = np.random.default_rng(314)
    for k in range(25):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        tbar = (0.5, 2.0)[k % 2]
        sys = rand_stable(n, m, 2, rng)
        a2 = rand_stable(r, m, 1, rng).A
        b2 = rng.standard_normal((r, m))
        quad = cross_gramian_quadrature(sys.A, sys.B, a2, b2, tbar, panels=64)
        f1 = expm(sys.A, tbar) @ sys.B
        f2 = expm(a2, tbar) @ b2
        direct = solve_sylvester(sys.A, a2, f1 @ f2.T - sys.B @ b2.T)
        rel = np.linalg.norm(quad - direct) / np.linalg.norm(direct)
        assert rel <= 1e-8, f"draw {k} (n={n}, r={r}, tbar={tbar}): rel {rel:.3e}"


def test_criterion_04_long_horizon_limit():
    """As the horizon outgrows the slowest time constant, the time-limited
    Gramian, the leading bound term, and the remainder all collapse onto
    the unrestricted quantities."""
    sys = generate_heat_model(20, 20, 20)
    lam_max = float(np.max(np.linalg.eigvalsh(sys.A)))
    tbar = 40.0 / abs(lam_max)
    ginf = infinite_gramians(sys)
    gtl = time_limited_gramians(sys, tbar)
    p_gap = np.linalg.norm(gtl.P - ginf.P) / np.linalg.norm(ginf.P)
    assert p_gap <= 1e-6, f"Gramian gap {p_gap:.3e}"
    r = 10
    alt = tlbt_h2_bound_alt(sys, gtl, r)
    lead_inf = bt_h2_bound_infinite(sys, ginf, r)
    lead_gap = abs(alt.leading - lead_inf) / abs(lead_inf)
    assert lead_gap <= 1e-5, f"leading-term gap {lead_gap:.3e}"
    assert abs(alt.remainder) <= 1e-8 * alt.epsilon_squared
    assert abs(alt.remainder) <= alt.total_remainder_bound()


def test_criterion_05_full_order_reduction_is_exact():
    """r = n gives eps <= 1e-10 * sqrt(tr(C P C^T)) and simulated error
    <= 1e-8 * max ||y||."""
    cases = [
        (generate_heat_model(8, 7, 6), InputSignal.star(), 1.0),
        (generate_heat_model(20, 20, 20),
         random_piecewise_constant(20, 2.0, 8, np.random.default_rng(3)), 2.0),
        (rand_stable(12, 3, 3, np.random.default_rng(11)),
         InputSignal.constant([1.0, -0.5, 0.25]), 2.0),
    ]
    for sys, u, tbar in cases:
        gset = time_limited_gramians(sys, tbar)
        bal = balance(gset, sys)
        assert bal.n_hat == sys.n
        rom = truncate(sys, bal.reduce_to(sys.n))
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
        assert report.epsilon <= 1e-10 * math.sqrt(report.term_cpc)
        dt = tbar / 256
        full = simulate(sys, u, tbar, dt)
        red = simulate(rom, u, tbar, dt)
        _, max_t, _ = output_error(full, red, tbar)
        ymax = float(np.max(np.linalg.norm(full.outputs, axis=1)))
        assert max_t <= 1e-8 * ymax, f"{sys.name}: err {max_t:.3e} vs {1e-8 * ymax:.3e}"


def test_criterion_06_singular_values_invariant_under_state_transforms():
    """Time-limited singular values move by <= 1e-7 relative under 10
    seeded random coordinate changes with condition <= 1e3."""
    sys = generate_heat_model(8, 8, 8)
    tbar = 1.0
    sig0 = balance(time_limited_gramians(sys, tbar), sys).singular_values
    rng = np.random.default_rng(1234)
    for k in range(10):
        u_orth, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v_orth, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        svals = np.exp(rng.uniform(0.0, math.log(1e3), size=8))
        svals = svals / svals.min()
        s = u_orth @ np.diag(svals) @ v_orth.T
        other = apply_state_transform(sys, s)
        sig = balance(time_limited_gramians(other, tbar), other).singular_values
        assert sig.size == sig0.size
        dev = float(np.max(np.abs(sig - sig0) / sig0))
        assert dev <= 1e-7, f"transform {k}: deviation {dev:.3e}"


def test_criterion_07_classical_hinf_bound_and_integrator_order():
    """Unrestricted truncation stays below twice the discarded tail at
    every order over 200 sampled frequencies, and the integrator converges
    at second order (error ratio in [3.5, 4.5] under step halving)."""
    sys = generate_heat_model(20, 20, 19)
    ginf = infinite_gramians(sys)
    bal = balance(ginf, sys)
    assert bal.n_hat == 20
    freqs = np.logspace(-2, 4, 200)
    for r in range(1, bal.n_hat):
        rom = truncate(sys, bal.reduce_to(r))
        err = hinf_error_sampled(sys, rom, freqs)
        bound = bt_hinf_bound(bal.singular_values, r)
        assert err <= bound, f"r={r}: sampled error {err:.12e} > bound {bound:.12e}"

    sys6 = generate_heat_model(6, 6, 6)
    u = InputSignal.constant(0.7 * np.ones(6))
    x_exact = np.linalg.solve(sys6.A, (expm(sys6.A, 1.0) - np.eye(6)) @ (sys6.B @ u(0.0)))
    y_exact = sys6.C @ x_exact
    errs = [
        float(np.linalg.norm(simulate(sys6, u, 1.0, dt).outputs[-1] - y_exact))
        for dt in (1 / 64, 1 / 128, 1 / 256)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 3.5 <= ratio <= 4.5, f"step-halving error ratio {ratio:.3f}"


def test_criterion_08_adversarial_input_attains_the_bound():
    """An input built from the error kernel attains the exact L2 -> L-inf
    gain at t = T, stays under eps, and the gain is within 1e-3 of eps
    for one output and within 10% for six (n = 50 rod, T = 0.05,
    r = 3 and 5)."""
    tbar, steps = 0.05, 4096
    h = tbar / steps
    for m, p, ratio in ((1, 1, 1.0 - 1e-3), (7, 6, 0.9)):
        sys = generate_heat_model(50, m, p)
        gset = time_limited_gramians(sys, tbar)
        bal = balance(gset, sys)
        for r in (3, 5):
            rom = truncate(sys, bal.reduce_to(r))
            eps = tlbt_h2_bound(sys, rom, gset.P, tbar).epsilon
            # K(s) = [C, -C1] e^(A_aug s) [B; B1] at the midpoints s = (i + 1/2) h
            a_aug = sla.block_diag(sys.A, rom.A11)
            c_aug = np.hstack([sys.C, -rom.C1])
            x = sla.expm(a_aug * (h / 2)) @ np.vstack([sys.B, rom.B1])
            step = sla.expm(a_aug * h)
            kernel = np.empty((steps, p, m))
            for i in range(steps):
                kernel[i] = c_aug @ x
                x = step @ x
            # W = int K K^T ds: sqrt(lambda_max) is the gain (Wilson, IEEE TAC 1989)
            lam, vecs = np.linalg.eigh(h * np.einsum("ipm,iqm->pq", kernel, kernel))
            gain = math.sqrt(lam[-1])
            # u(t) = K(T - t)^T v on the same midpoints, in time order
            u = InputSignal.from_table((tbar - (np.arange(steps) + 0.5) * h)[::-1],
                                       (kernel.transpose(0, 2, 1) @ vecs[:, -1])[::-1])
            dt = tbar / 2048
            full = simulate(sys, u, tbar, dt)
            red = simulate(rom, u, tbar, dt)
            err = float(np.linalg.norm(full.outputs[-1] - red.outputs[-1]))
            unorm = input_l2_norm(u, tbar, dt)
            case = f"p = {p}, r = {r}"
            assert err >= (1.0 - 1e-3) * gain * unorm, f"{case}: err {err:.6e} vs gain {gain * unorm:.6e}"
            assert err <= eps * unorm * (1.0 + 1e-6), f"{case}: err {err:.6e} > eps {eps * unorm:.6e}"
            assert gain >= ratio * eps, f"{case}: gain / eps = {gain / eps:.4f}"


def test_criterion_09_sweep_experiments_shape(tmp_path):
    """The r-, tbar-, and tau-sweep commands complete on the n = 50 model;
    time-limited truncation beats the unrestricted kind in >= 80% of
    r-sweep rows, and tau-sweep orders are nonincreasing in tau."""
    model = "gen:50,7,6"
    tbar = 0.05

    # orders past 9 push eps^2 below ~1e-11 * tr(C P C^T), the floor where
    # the three-trace cancellation is pure rounding noise
    out_r = tmp_path / "r_sweep"
    rc = cli_main(["sweep", "--model", model, "--tbar", str(tbar), "--axis", "r",
                   "--values", ",".join(str(r) for r in range(2, 10)),
                   "--input", "star", "--out", str(out_r)])
    assert rc == 0
    rows = _read_sweep(out_r / "sweep.csv")
    assert len(rows) == 16
    wins = total = 0
    for value in sorted({row["value"] for row in rows}, key=float):
        by_method = {row["method"]: row for row in rows if row["value"] == value}
        assert by_method["BT"]["status"] == "ok"
        assert by_method["TLBT"]["status"] == "ok"
        e_tl = float(by_method["TLBT"]["max_error_tbar"])
        e_bt = float(by_method["BT"]["max_error_tbar"])
        assert e_tl <= float(by_method["TLBT"]["bound_level"])
        total += 1
        wins += int(e_tl <= e_bt)
    assert wins / total >= 0.8, f"time-limited wins only {wins}/{total}"

    out_t = tmp_path / "tbar_sweep"
    rc = cli_main(["sweep", "--model", model, "--axis", "tbar",
                   "--values", "0.02,0.05,0.1,0.2,0.5", "--order", "6",
                   "--input", "star", "--out", str(out_t)])
    assert rc == 0
    rows = _read_sweep(out_t / "sweep.csv")
    assert len(rows) == 10
    assert all(row["status"] == "ok" for row in rows)

    out_tau = tmp_path / "tau_sweep"
    taus = [f"1e-{k}" for k in range(8, 0, -1)]
    rc = cli_main(["sweep", "--model", model, "--tbar", str(tbar), "--axis", "tau",
                   "--values", ",".join(taus), "--input", "star", "--out", str(out_tau)])
    assert rc == 0
    rows = [row for row in _read_sweep(out_tau / "sweep.csv") if row["method"] == "TLBT"]
    assert len(rows) == 8
    orders = [int(row["r"]) for row in rows]
    assert all(a >= b for a, b in zip(orders, orders[1:])), f"orders {orders} not monotone"
    assert orders[0] > orders[-1]


def _read_sweep(path):
    lines = path.read_text().splitlines()
    header = [cell.strip() for cell in lines[0].split(",")]
    return [dict(zip(header, (cell.strip() for cell in line.split(",")))) for line in lines[1:]]
