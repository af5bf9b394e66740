import math
import os
import re
import subprocess
import sys as sys_module

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import error_integral_oracle, fem_rod, rand_stable
from oracles import hinf_error_sampled, random_piecewise_constant, solve_lyapunov
import tlbt.bounds
import tlbt.linalg
import tlbt.systems
from tlbt.balancing import ReducedModel, balance, truncate
from tlbt.bounds import (
    bt_h2_bound_infinite,
    bt_hinf_bound,
    tlbt_h2_bound,
    tlbt_h2_bound_alt,
)
from tlbt.errors import DimensionError, SpectrumSeparationError
from tlbt.gramians import infinite_gramians, time_limited_gramians
from tlbt.simulation import input_l2_norm, output_error, simulate
from tlbt.systems import StateSpaceSystem, _EigenRecord, generate_heat_model


def balanced_rom(sys, tbar, r):
    gset = time_limited_gramians(sys, tbar)
    return gset, truncate(sys, balance(gset, sys).reduce_to(r))


class TestDirectBound:
    def test_identity_reduction_gives_zero(self):
        sys = generate_heat_model(6, 3, 3)
        tbar = 1.0
        gset = time_limited_gramians(sys, tbar)
        rom = ReducedModel(A11=sys.A, B1=sys.B, C1=sys.C, r=6, horizon=tbar)
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
        assert report.epsilon_squared <= 1e-12 * max(report.term_cpc, 1e-30)

    def test_full_order_balanced_reduction_gives_zero(self):
        sys = generate_heat_model(8, 8, 8)
        tbar = 0.5
        gset, rom = balanced_rom(sys, tbar, r=8)
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
        assert report.epsilon_squared <= 1e-12 * report.term_cpc

    def test_scalar_closed_form(self, scalar_system):
        # reducing x' = -x + u to x' = -2 x + u on [0, tbar]
        tbar = 1.0
        gset = time_limited_gramians(scalar_system, tbar)
        rom = ReducedModel(A11=[[-2.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=tbar)
        report = tlbt_h2_bound(scalar_system, rom, gset.P, tbar)
        p_full = (1.0 - math.exp(-2.0)) / 2.0
        p_red = (1.0 - math.exp(-4.0)) / 4.0
        p_mix = (1.0 - math.exp(-3.0)) / 3.0
        expect = p_full + p_red - 2.0 * p_mix
        assert report.epsilon_squared == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_report_terms_reconstruct_epsilon(self):
        sys = generate_heat_model(10, 4, 3)
        tbar = 0.3
        gset, rom = balanced_rom(sys, tbar, r=4)
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
        d = report.to_dict()
        radicand = d["term_cpc"] + d["term_cprc"] - 2.0 * d["term_cpmc"]
        assert d["epsilon"] ** 2 == pytest.approx(radicand, abs=1e-12 * d["term_cpc"])
        assert d["r"] == 4 and d["horizon"] == tbar

    def test_gramian_of_another_order_rejected(self):
        sys = generate_heat_model(10, 2, 2)
        gset, rom = balanced_rom(sys, 0.1, r=2)
        other = time_limited_gramians(generate_heat_model(12, 2, 2), 0.1)
        with pytest.raises(DimensionError, match=r"P must have shape \(10, 10\) to match the system, got \(12, 12\)"):
            tlbt_h2_bound(sys, rom, other.P, 0.1)
        with pytest.raises(DimensionError, match="P must have shape"):
            tlbt_h2_bound(sys, rom, gset.P[:, :9], 0.1)
        with pytest.raises(DimensionError, match="the Gramians are of order 12 but the system has n = 10"):
            tlbt_h2_bound(sys, rom, other, 0.1)

    def test_gramian_set_of_another_horizon_rejected(self):
        sys = generate_heat_model(10, 2, 2)
        _, rom = balanced_rom(sys, 0.1, r=2)
        for other, horizon in ((time_limited_gramians(sys, 5.0), "5.0"), (infinite_gramians(sys), "inf")):
            with pytest.raises(ValueError, match=rf"the Gramians are of horizon {horizon} but the bound's horizon is tbar = 0\.1"):
                tlbt_h2_bound(sys, rom, other, 0.1)

    @pytest.mark.parametrize("make, tbar", [
        (lambda: generate_heat_model(8, 8, 8), 0.5),
        (lambda: fem_rod(60, 60, 60), 0.05),
        (lambda: rand_stable(12, 3, 2, np.random.default_rng(11)), 1.0),
    ], ids=["gen-8", "fem-60", "rand-stable"])
    def test_set_and_dense_routes_agree(self, make, tbar):
        sys = make()
        gset, rom = balanced_rom(sys, tbar, r=3)
        by_set, by_dense = tlbt_h2_bound(sys, rom, gset, tbar), tlbt_h2_bound(sys, rom, gset.P, tbar)
        assert by_set.term_cpc == pytest.approx(by_dense.term_cpc, rel=1e-12, abs=0.0)
        assert by_set.epsilon == by_dense.epsilon
        assert (by_set.term_cprc, by_set.term_cpmc) == (by_dense.term_cprc, by_dense.term_cpmc)

    def test_spectrum_overlap_rejected(self, scalar_system):
        rom = ReducedModel(A11=[[1.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=1.0)
        with pytest.raises(SpectrumSeparationError):
            tlbt_h2_bound(scalar_system, rom, np.eye(1), 1.0)

    @pytest.mark.parametrize("n, a11, expected", [
        (1, [[1.0]], "bound hypothesis Lambda(A) and -Lambda(A11) disjoint (the Pm equation): "
                     "eigenvalue pair lambda=-1+0j, mu=1+0j"),
        (4, [[1.0, 0.0], [0.0, -1.0]], "bound hypothesis Lambda(A11) and -Lambda(A11) disjoint "
                                       "(the Pr equation): eigenvalue pair lambda=1+0j, mu=-1+0j"),
    ], ids=["pm", "pr"])
    def test_failed_hypothesis_names_itself_and_the_pair(self, n, a11, expected):
        sys = StateSpaceSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]]) if n == 1 else generate_heat_model(n, 1, 1)
        r = len(a11)
        rom = ReducedModel(A11=a11, B1=np.ones((r, 1)), C1=np.ones((1, r)), r=r, horizon=1.0)
        expected += (" has |lambda + mu| = 0.000e+00 <= tolerance 2.000e-08; "
                     "the equation has no unique solution")
        # the eps route makes the same checks
        for route in (lambda: tlbt_h2_bound(sys, rom, np.eye(n), 1.0),
                      lambda: tlbt.bounds._epsilon(sys, rom, 1.0)):
            with pytest.raises(SpectrumSeparationError, match=f"^{re.escape(expected)}$"):
                route()

    def test_bound_dominates_simulated_error(self):
        sys = generate_heat_model(20, 7, 6)
        tbar = 1.0
        gset, rom = balanced_rom(sys, tbar, r=2)
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
        dt = tbar / 256.0
        rng = np.random.default_rng(123)
        for _ in range(3):
            u = random_piecewise_constant(7, tbar, blocks=6, rng=rng)
            full = simulate(sys, u, tbar, dt)
            red = simulate(rom, u, tbar, dt)
            _, max_err, _ = output_error(full, red, tbar)
            level = report.epsilon * input_l2_norm(u, tbar, dt)
            assert max_err <= level


def upwind_rod(n=100):
    """The rod with upwind advection 20 (e_{k+1} - e_k): A is not symmetric,
    so its record is the Schur record."""
    heat = generate_heat_model(n, 7, 6)
    return StateSpaceSystem(A=heat.A + 20.0 * (np.eye(n, k=-1) - np.eye(n)), B=heat.B, C=heat.C)


class TestEpsilonRoute:
    """tlbt.bounds._epsilon, the route of the callers that read eps alone."""

    @pytest.mark.parametrize("make, tbar, orders", [
        (lambda: generate_heat_model(50, 7, 6), 0.05, range(1, 20)),
        (lambda: fem_rod(60, 7, 6), 0.05, (3, 6)),
        (upwind_rod, 0.05, (8,)),
        (lambda: rand_stable(12, 3, 2, np.random.default_rng(11)), 1.0, (2, 5)),
        (lambda: rand_stable(9, 4, 5, np.random.default_rng(4)), 0.5, (3, 6)),
    ], ids=["gen-50", "fem-mass-60", "upwind-100", "rand-stable-12", "rand-stable-9"])
    def test_equals_the_reports_epsilon_bitwise(self, make, tbar, orders):
        sys = make()
        gset = time_limited_gramians(sys, tbar)
        bal = balance(gset, sys)
        for r in orders:
            rom = truncate(sys, bal.reduce_to(r))
            eps, s11, phi = tlbt.bounds._epsilon(sys, rom, tbar)
            assert eps == tlbt_h2_bound(sys, rom, gset, tbar).epsilon, f"r = {r}"
            assert s11.eigvals.size == r and phi is None
        if make is upwind_rod:
            assert isinstance(sys._operator(), tlbt.systems._SchurRecord)

    @pytest.mark.parametrize("b1, c1, message", [
        (np.ones((2, 3)), np.ones((2, 2)), "B1 has 3 columns but the system has m = 2"),
        (np.ones((2, 2)), np.ones((3, 2)), "C1 has 3 rows but the system has p = 2"),
    ], ids=["b1", "c1"])
    def test_reduced_model_of_other_dimensions_rejected(self, b1, c1, message):
        sys = generate_heat_model(10, 2, 2)
        rom = ReducedModel(A11=-np.eye(2), B1=b1, C1=c1, r=2, horizon=0.1)
        for route in (lambda: tlbt.bounds._epsilon(sys, rom, 0.1),
                      lambda: tlbt_h2_bound(sys, rom, np.eye(10), 0.1)):
            with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
                route()


def assert_brackets_the_integral(sys, rom, tbar):
    """eps^2 >= the oracle integral (sound) and eps <= 1.01 sqrt(oracle)
    (tight)."""
    gset = time_limited_gramians(sys, tbar)
    eps = tlbt_h2_bound(sys, rom, gset.P, tbar).epsilon
    oracle = error_integral_oracle(sys, rom, tbar)
    assert eps * eps >= oracle, f"r = {rom.r}: eps^2 {eps * eps:.6e} < integral {oracle:.6e}"
    assert eps <= 1.01 * math.sqrt(oracle), f"r = {rom.r}: eps {eps:.6e} vs sqrt {math.sqrt(oracle):.6e}"


class TestSumOfSquaresCertificate:
    def test_every_order_of_the_readme_model(self):
        # the three-trace form under-reports at r = 9 and raises above it
        sys = generate_heat_model(50, 7, 6)
        tbar = 0.05
        bal = balance(time_limited_gramians(sys, tbar), sys)
        assert bal.n_hat >= 19
        for r in range(1, bal.n_hat + 1):
            assert_brackets_the_integral(sys, truncate(sys, bal.reduce_to(r)), tbar)

    @pytest.mark.parametrize("sys, tbar, orders", [
        (generate_heat_model(100, 7, 6), 0.05, (4, 8)),
        (rand_stable(12, 3, 2, np.random.default_rng(5)), 1.0, (2, 4, 6)),
        (fem_rod(40, 7, 6), 0.05, (2, 4, 8)),
        # the eigenbasis drops the modes below the exponential's floor on most mesh runs
        (generate_heat_model(200, 7, 6), 0.05, (4, 8)),
        (fem_rod(200, 7, 6), 0.05, (4, 8)),
    ], ids=["rod-100", "nonsymmetric-12", "fem-mass-40", "rod-200", "fem-mass-200"])
    def test_brackets_the_integral(self, sys, tbar, orders):
        bal = balance(time_limited_gramians(sys, tbar), sys)
        for r in orders:
            assert_brackets_the_integral(sys, truncate(sys, bal.reduce_to(r)), tbar)

    @pytest.mark.parametrize("advection", [np.eye(100, k=-1) - np.eye(100), np.eye(100, k=1) - np.eye(100)],
                             ids=["upwind", "against-the-flow"])
    def test_term_cpc_of_a_schur_route_model_matches_the_kernel(self, advection):
        # P's eigenvalues decay smoothly through 1e-12 ||P||_2 and C sits
        # at the far end of the rod, so an eigh of the core cut there puts
        # tr(C P C^T) 1.6e-8 and 2.0e-8 low; pivoted Cholesky of the core
        # stops on the trace and gives -4.5e-10 and -2.2e-11 against the
        # kernel on a mesh two levels finer
        heat = generate_heat_model(100, 7, 6)
        sys = StateSpaceSystem(A=heat.A + 20.0 * advection, B=heat.B, C=heat.C)
        tbar = 0.05
        gset, rom = balanced_rom(sys, tbar, r=8)
        record = sys._operator()
        assert isinstance(record, tlbt.systems._SchurRecord)
        fine = record.kernel_samples(tbar, tlbt.linalg._mesh_levels(tbar, record.norm2) + 2)[1]
        term = tlbt_h2_bound(sys, rom, gset.P, tbar).term_cpc
        assert term == pytest.approx(np.vdot(fine, fine), rel=1e-9, abs=0.0)

    def test_stiff_kernel_is_resolved_near_zero(self):
        # B = C = I excites the fastest modes, which decay within 1e-4 of
        # a horizon of 10; uniform panels would miss them
        sys = generate_heat_model(20, 20, 20)
        tbar = 10.0
        gset, rom = balanced_rom(sys, tbar, r=5)
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
        trace = report.term_cpc + report.term_cprc - 2.0 * report.term_cpmc
        assert report.epsilon_squared == pytest.approx(trace, rel=1e-10, abs=0.0)

    def test_independent_of_the_blas_thread_count(self):
        script = (
            "from conftest import error_integral_oracle\n"
            "from tlbt import balance, generate_heat_model, time_limited_gramians, tlbt_h2_bound, truncate\n"
            "sys = generate_heat_model(100, 7, 6)\n"
            "g = time_limited_gramians(sys, 0.05)\n"
            "rom = truncate(sys, balance(g, sys).reduce_to(8))\n"
            "print(repr(tlbt_h2_bound(sys, rom, g.P, 0.05).epsilon), repr(error_integral_oracle(sys, rom, 0.05)))\n"
        )
        # the subprocess imports tlbt and conftest from where this run does
        path = os.pathsep.join(p for p in sys_module.path if p)
        results = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=path)
            out = subprocess.run([sys_module.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            eps, oracle = (float(x) for x in out.stdout.split())
            assert eps * eps >= oracle, f"{threads} thread(s): eps^2 {eps * eps:.6e} < {oracle:.6e}"
            results.append(eps * eps)
        assert results[1] == pytest.approx(results[0], rel=1e-9, abs=0.0)


class TestAlternativeRepresentation:
    def test_agrees_with_direct_form(self):
        sys = generate_heat_model(8, 8, 8)
        tbar = 0.5
        gset, rom = balanced_rom(sys, tbar, r=3)
        direct = tlbt_h2_bound(sys, rom, gset.P, tbar)
        alt = tlbt_h2_bound_alt(sys, gset, 3)
        scale = max(direct.epsilon_squared, 1e-12 * direct.term_cpc)
        assert abs(alt.epsilon_squared - direct.epsilon_squared) <= 1e-7 * scale
        assert alt.r == 3 and alt.horizon == tbar

    def test_components_sum_to_epsilon_squared(self):
        sys = generate_heat_model(8, 8, 8)
        gset = time_limited_gramians(sys, 0.4)
        alt = tlbt_h2_bound_alt(sys, gset, 4)
        # the plain sum: no square root, no clamp
        assert alt.epsilon_squared == alt.leading + alt.remainder + alt.last
        assert alt.last <= 0.0

    def test_full_order_collapses(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        alt = tlbt_h2_bound_alt(sys, gset, 6)
        assert alt.leading == 0.0
        assert abs(alt.last) <= 1e-12
        assert abs(alt.epsilon_squared) <= 1e-12 * alt.term_cpc

    def test_matches_trace_route_on_shared_gramians(self):
        # both routes read one factorization of A, F and G, and their
        # order-4 balanced truncations agree up to rounding
        sys = generate_heat_model(100, 100, 100)
        tbar = 0.05
        gset, rom = balanced_rom(sys, tbar, r=4)
        direct = tlbt_h2_bound(sys, rom, gset.P, tbar)
        alt = tlbt_h2_bound_alt(sys, gset, 4)
        assert alt.epsilon_squared == pytest.approx(direct.epsilon_squared, rel=1e-12, abs=0.0)

    def test_horizon_comes_from_the_gramians(self):
        # the same model at two horizons: each set gives its own horizon's eps^2
        sys = rand_stable(6, 3, 3, np.random.default_rng(1))
        for tbar in (0.2, 1.0):
            gset, rom = balanced_rom(sys, tbar, r=2)
            alt = tlbt_h2_bound_alt(sys, gset, 2)
            assert alt.horizon == gset.horizon == tbar
            direct = tlbt_h2_bound(sys, rom, gset.P, tbar)
            gap = abs(alt.epsilon_squared - direct.epsilon_squared)
            assert gap <= 1e-7 * max(direct.epsilon_squared, direct.term_cpc)

    def test_unrestricted_gramians_rejected(self):
        sys = generate_heat_model(8, 8, 8)
        with pytest.raises(ValueError, match="bt_h2_bound_infinite"):
            tlbt_h2_bound_alt(sys, infinite_gramians(sys), 3)

    def test_rank_deficient_gramians_rejected(self):
        sys = generate_heat_model(20, 7, 6)
        gset = time_limited_gramians(sys, 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            tlbt_h2_bound_alt(sys, gset, 4)

    def test_mass_matrix_model_never_forms_its_standard_operator(self, monkeypatch):
        # balanced coordinates come from one balance() and the record's
        # projection onto the first r columns of V; the eigen record holds
        # neither E^-1 A nor E^-1 B, so neither can be read
        sys = fem_rod(60, 60, 60)
        record = type(sys._operator())
        assert record is _EigenRecord
        for name in ("a", "b", "c"):
            assert not hasattr(sys._operator(), name), name
        gset = time_limited_gramians(sys, 0.05)
        balances, projected = [], []
        project = record.project

        def counting_balance(*args):
            balances.append(args)
            return balance(*args)

        def counting_project(self, w, v):
            projected.append(v.shape)
            return project(self, w, v)

        monkeypatch.setattr(tlbt.bounds, "balance", counting_balance)
        monkeypatch.setattr(record, "project", counting_project)
        for r in (5, 2):
            alt = tlbt_h2_bound_alt(sys, gset, r)
            assert alt.r == r and alt.epsilon_squared > 0.0
        assert len(balances) == 2
        assert projected == [(60, 5), (60, 2)]

    def test_negative_sum_kept_within_rounding_and_rejected_beyond(self, monkeypatch):
        # a leading trace off by more than rounding stands in for
        # Gramians that do not belong to the model
        sys = generate_heat_model(8, 8, 8)
        gset = time_limited_gramians(sys, 0.5)
        monkeypatch.setattr(tlbt.bounds, "_leading_trace", lambda d: -1e-15)
        assert tlbt_h2_bound_alt(sys, gset, 3).epsilon_squared < 0.0
        monkeypatch.setattr(tlbt.bounds, "_leading_trace", lambda d: -1e-9)
        with pytest.raises(ArithmeticError, match="negative beyond rounding"):
            tlbt_h2_bound_alt(sys, gset, 3)


class TestRemainderDiagnostics:
    def test_certificate_covers_remainder(self, monkeypatch):
        calls = []

        def counting_balance(*args):
            calls.append(args)
            return balance(*args)

        monkeypatch.setattr(tlbt.bounds, "balance", counting_balance)
        sys = generate_heat_model(8, 8, 8)
        tbar = 0.5
        gset = time_limited_gramians(sys, tbar)
        alt = tlbt_h2_bound_alt(sys, gset, 3)
        # the terms and their certificates come from one balancing
        assert len(calls) == 1
        assert abs(alt.remainder) <= alt.total_remainder_bound() * (1.0 + 1e-12)

    def test_certificates_decay_with_horizon(self):
        sys = generate_heat_model(8, 8, 8)
        norms = []
        for tbar in (0.25, 0.5, 1.0):
            gset = time_limited_gramians(sys, tbar)
            norms.append(tlbt_h2_bound_alt(sys, gset, 3).norm_F1)
        assert norms[0] > norms[1] > norms[2]

    def test_product_bounds_consistent(self):
        sys = generate_heat_model(8, 8, 8)
        gset = time_limited_gramians(sys, 0.5)
        diag = tlbt_h2_bound_alt(sys, gset, 3)
        assert diag.bound_cross == pytest.approx(diag.norm_G1 * diag.norm_G * diag.norm_PM)
        assert diag.bound_obs == pytest.approx(diag.norm_G1**2 * diag.trace_Pr)
        assert diag.bound_reach == pytest.approx(diag.norm_F1**2 * diag.trace_Sigma1)
        assert diag.total_remainder_bound() == pytest.approx(
            2.0 * diag.bound_cross + diag.bound_obs + diag.bound_reach
        )


@pytest.mark.parametrize("sys", [generate_heat_model(8, 8, 8), rand_stable(6, 6, 6, np.random.default_rng(3))],
                         ids=["eigen", "schur"])
def test_each_bound_checks_each_separation_hypothesis_once(sys, monkeypatch):
    # Lambda(A11) against -Lambda(A11), and Lambda(A) against -Lambda(A11):
    # the Pr and Pm solves rely on the bound's own check of those two pairs
    tbar = 0.5
    gset = time_limited_gramians(sys, tbar)
    rom = truncate(sys, balance(gset, sys).reduce_to(3))
    check, calls = tlbt.linalg._require_separated, []

    def counting(s1, s2, what):
        calls.append((s1.eigvals.size, s2.eigvals.size))
        return check(s1, s2, what)

    # every module that binds the check
    for mod in (tlbt.linalg, tlbt.systems, tlbt.bounds):
        monkeypatch.setattr(mod, "_require_separated", counting)
    tlbt_h2_bound(sys, rom, gset.P, tbar)
    assert sorted(calls) == [(3, 3), (sys.n, 3)]
    calls.clear()
    tlbt_h2_bound_alt(sys, gset, 3)
    assert sorted(calls) == [(3, 3), (sys.n, 3)]


class TestClassicalBounds:
    def test_hinf_twice_tail(self):
        assert bt_hinf_bound([3.0, 2.0, 1.0], 1) == 6.0
        assert bt_hinf_bound([3.0, 2.0, 1.0], 3) == 0.0
        assert bt_hinf_bound([1.0], 0) == 2.0

    @pytest.mark.parametrize("r", [True, 1.0, None], ids=["bool", "float", "none"])
    def test_hinf_refuses_an_order_that_is_not_an_integer(self, r):
        with pytest.raises(ValueError, match="r must be an integer, got"):
            bt_hinf_bound([3.0, 2.0, 1.0], r)

    def test_hinf_input_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            bt_hinf_bound([1.0, 2.0], 1)
        with pytest.raises(ValueError, match="positive"):
            bt_hinf_bound([1.0, -1.0], 1)
        with pytest.raises(ValueError, match="r must be"):
            bt_hinf_bound([1.0], 5)

    def test_h2_infinite_equals_error_system_norm(self):
        sys = generate_heat_model(6, 6, 6)
        gset = infinite_gramians(sys)
        rom = truncate(sys, balance(gset, sys).reduce_to(3))
        bound_sq = bt_h2_bound_infinite(sys, gset, 3)
        a_err = np.block([
            [sys.A, np.zeros((6, 3))],
            [np.zeros((3, 6)), rom.A11],
        ])
        b_err = np.vstack([sys.B, rom.B1])
        c_err = np.hstack([sys.C, -rom.C1])
        p_err = solve_lyapunov(a_err, -b_err @ b_err.T)
        h2_sq = float(np.trace(c_err @ p_err @ c_err.T))
        assert bound_sq == pytest.approx(h2_sq, rel=1e-8, abs=0.0)

    def test_h2_infinite_validation(self):
        sys = generate_heat_model(6, 6, 6)
        gset = infinite_gramians(sys)
        with pytest.raises(ValueError, match="r must be"):
            bt_h2_bound_infinite(sys, gset, 0)
        tl = time_limited_gramians(sys, 1.0)
        with pytest.raises(ValueError, match="horizon = inf"):
            bt_h2_bound_infinite(sys, tl, 3)

    def test_h2_infinite_full_order_is_zero(self):
        sys = generate_heat_model(6, 6, 6)
        gset = infinite_gramians(sys)
        assert bt_h2_bound_infinite(sys, gset, 6) == pytest.approx(0.0, abs=1e-14)


class TestSampledHinfError:
    def test_identity_reduction(self):
        sys = generate_heat_model(5, 2, 2)
        rom = ReducedModel(A11=sys.A, B1=sys.B, C1=sys.C, r=5, horizon=math.inf)
        freqs = np.logspace(-2, 3, 40)
        assert hinf_error_sampled(sys, rom, freqs) <= 1e-10

    def test_scalar_dc_value(self, scalar_system):
        rom = ReducedModel(A11=[[-2.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=math.inf)
        assert hinf_error_sampled(scalar_system, rom, [0.0]) == pytest.approx(0.5, abs=1e-14)

    def test_sampled_error_below_classical_bound(self):
        sys = generate_heat_model(20, 7, 6)
        gset = infinite_gramians(sys)
        bal = balance(gset, sys).reduce_to(4)
        rom = truncate(sys, bal)
        bound = bt_hinf_bound(bal.singular_values, 4)
        freqs = np.logspace(-3, 5, 200)
        assert hinf_error_sampled(sys, rom, freqs) <= bound

    def test_empty_sample_rejected(self, scalar_system):
        rom = ReducedModel(A11=[[-1.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=math.inf)
        with pytest.raises(ValueError, match="empty"):
            hinf_error_sampled(scalar_system, rom, [])


@given(
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3]),
    st.integers(4, 12),
    st.integers(0, 2**32 - 1),
)
def test_bound_radicand_never_significantly_negative(m, p, n, seed):
    n = min(n, 4 * min(m, p))
    rng = np.random.default_rng(seed)
    sys = rand_stable(n, m, p, rng)
    tbar = float(rng.uniform(0.3, 3.0))
    gset = time_limited_gramians(sys, tbar)
    bal = balance(gset, sys)
    r = int(rng.integers(1, bal.n_hat + 1))
    rom = truncate(sys, bal.reduce_to(r))
    try:
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
    except SpectrumSeparationError:
        # the bound's spectral hypothesis can legitimately fail for a draw
        assume(False)
    assert report.epsilon >= 0.0
    assert np.isfinite(report.epsilon)


def _rom_of_a_larger_model():
    # order 5 of an n = 6 model, against an n = 4 model of the same m and p
    big = generate_heat_model(6, 1, 1)
    return truncate(big, balance(time_limited_gramians(big, 0.5), big).reduce_to(5))


@pytest.mark.parametrize("route", ["report", "epsilon"])
def test_reduced_order_above_the_system_dimension_rejected(route):
    small = generate_heat_model(4, 1, 1)
    rom = _rom_of_a_larger_model()
    with pytest.raises(DimensionError, match=re.escape("reduced order 5 exceeds the system dimension 4")) as info:
        if route == "report":
            tlbt_h2_bound(small, rom, time_limited_gramians(small, 0.5), 0.5)
        else:
            tlbt.bounds._epsilon(small, rom, 0.5)
    assert type(info.value) is DimensionError


@pytest.mark.parametrize("route", ["alt", "infinite"])
def test_balanced_coordinates_refuse_a_failed_identity_check(route, monkeypatch):
    # no Gramian pair of full numerical rank was found whose balancing
    # misses W^T V = I, so balance() is patched: W is scaled by 1 + 1e-6,
    # which leaves ||W^T V - I||_F = 1e-6 sqrt(n) > 1e-8 sqrt(n)
    sys = generate_heat_model(8, 1, 1)
    gramians = time_limited_gramians(sys, 0.5) if route == "alt" else infinite_gramians(sys)

    def skewed(gramians, sys):
        bal = balance(gramians, sys)
        v, (x_w, w) = bal._pairs
        return type(bal)._of(bal.singular_values, bal.horizon, bal.r, v, (x_w, w * (1.0 + 1e-6)))

    monkeypatch.setattr(tlbt.bounds, "balance", skewed)
    with pytest.raises(ArithmeticError, match=r"balancing failed the identity check: \|\|W\^T V - I\|\|_F") as info:
        if route == "alt":
            tlbt_h2_bound_alt(sys, gramians, 2)
        else:
            bt_h2_bound_infinite(sys, gramians, 2)
    assert type(info.value) is ArithmeticError
