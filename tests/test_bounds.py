import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import rand_stable
from tlbt.balancing import ReducedModel, balance, truncate
from tlbt.bounds import (
    bt_h2_bound_infinite,
    bt_hinf_bound,
    hinf_error_sampled,
    remainder_diagnostics,
    tlbt_h2_bound,
    tlbt_h2_bound_alt,
)
from tlbt.errors import SpectrumSeparationError
from tlbt.gramians import infinite_gramians, time_limited_gramians
from tlbt.linalg import solve_lyapunov
from tlbt.simulation import input_l2_norm, output_error, simulate
from tlbt.systems import StateSpaceSystem, generate_heat_model, random_piecewise_constant


def balanced_rom(sys, tbar, r):
    gset = time_limited_gramians(sys, tbar)
    return gset, truncate(sys, balance(gset, sys, r=r))


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
        assert report.epsilon_squared == pytest.approx(expect, rel=1e-12)

    def test_low_rank_factor_route_matches_dense(self):
        sys = generate_heat_model(6, 6, 6)
        tbar = 0.5
        gset = time_limited_gramians(sys, tbar)
        rom = truncate(sys, balance(gset, sys, r=3))
        dense = tlbt_h2_bound(sys, rom, gset.P, tbar)
        factored = tlbt_h2_bound(sys, rom, None, tbar, p_factor=gset.lowrank_P)
        assert factored.epsilon == pytest.approx(dense.epsilon, rel=1e-10)

    def test_report_terms_reconstruct_epsilon(self):
        sys = generate_heat_model(10, 4, 3)
        tbar = 0.3
        gset, rom = balanced_rom(sys, tbar, r=4)
        report = tlbt_h2_bound(sys, rom, gset.P, tbar)
        d = report.to_dict()
        radicand = d["term_cpc"] + d["term_cprc"] - 2.0 * d["term_cpmc"]
        assert d["epsilon"] ** 2 == pytest.approx(radicand, abs=1e-12 * d["term_cpc"])
        assert d["r"] == 4 and d["horizon"] == tbar

    def test_spectrum_overlap_rejected(self, scalar_system):
        rom = ReducedModel(A11=[[1.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=1.0)
        with pytest.raises(SpectrumSeparationError):
            tlbt_h2_bound(scalar_system, rom, np.eye(1), 1.0)

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


class TestAlternativeRepresentation:
    def test_agrees_with_direct_form(self):
        sys = generate_heat_model(8, 8, 8)
        tbar = 0.5
        gset, rom = balanced_rom(sys, tbar, r=3)
        direct = tlbt_h2_bound(sys, rom, gset.P, tbar)
        alt = tlbt_h2_bound_alt(sys, gset, 3, tbar)
        scale = max(direct.epsilon_squared, 1e-12 * direct.term_cpc)
        assert abs(alt.epsilon_squared - direct.epsilon_squared) <= 1e-7 * scale
        assert alt.alt_leading is not None

    def test_components_sum_to_epsilon_squared(self):
        sys = generate_heat_model(8, 8, 8)
        gset = time_limited_gramians(sys, 0.4)
        alt = tlbt_h2_bound_alt(sys, gset, 4, 0.4)
        total = alt.alt_leading + alt.alt_remainder + alt.alt_last
        assert alt.epsilon_squared == pytest.approx(max(total, 0.0), abs=1e-12 * alt.term_cpc)
        assert alt.alt_last <= 0.0

    def test_full_order_collapses(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        alt = tlbt_h2_bound_alt(sys, gset, 6, 0.5)
        assert alt.alt_leading == 0.0
        assert abs(alt.alt_last) <= 1e-12
        assert alt.epsilon_squared <= 1e-12 * alt.term_cpc

    def test_matches_trace_route_on_shared_gramians(self):
        # both routes read one mixed Gramian, F and G, so they differ
        # only by a change of coordinates and its rounding
        sys = generate_heat_model(100, 100, 100)
        tbar = 0.05
        gset, rom = balanced_rom(sys, tbar, r=4)
        direct = tlbt_h2_bound(sys, rom, gset.P, tbar)
        alt = tlbt_h2_bound_alt(sys, gset, 4, tbar)
        assert alt.epsilon_squared == pytest.approx(direct.epsilon_squared, rel=1e-12, abs=0.0)

    def test_rank_deficient_gramians_rejected(self):
        sys = generate_heat_model(20, 7, 6)
        gset = time_limited_gramians(sys, 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            tlbt_h2_bound_alt(sys, gset, 4, 1.0)


class TestRemainderDiagnostics:
    def test_certificate_covers_remainder(self):
        sys = generate_heat_model(8, 8, 8)
        tbar = 0.5
        gset = time_limited_gramians(sys, tbar)
        alt = tlbt_h2_bound_alt(sys, gset, 3, tbar)
        diag = remainder_diagnostics(sys, gset, 3, tbar)
        assert abs(alt.alt_remainder) <= diag.total_remainder_bound() * (1.0 + 1e-12)

    def test_certificates_decay_with_horizon(self):
        sys = generate_heat_model(8, 8, 8)
        norms = []
        for tbar in (0.25, 0.5, 1.0):
            gset = time_limited_gramians(sys, tbar)
            norms.append(remainder_diagnostics(sys, gset, 3, tbar).norm_F1)
        assert norms[0] > norms[1] > norms[2]

    def test_product_bounds_consistent(self):
        sys = generate_heat_model(8, 8, 8)
        gset = time_limited_gramians(sys, 0.5)
        diag = remainder_diagnostics(sys, gset, 3, 0.5)
        assert diag.bound_cross == pytest.approx(diag.norm_G1 * diag.norm_G * diag.norm_PM)
        assert diag.bound_obs == pytest.approx(diag.norm_G1**2 * diag.trace_Pr)
        assert diag.bound_reach == pytest.approx(diag.norm_F1**2 * diag.trace_Sigma1)
        assert diag.total_remainder_bound() == pytest.approx(
            2.0 * diag.bound_cross + diag.bound_obs + diag.bound_reach
        )


class TestClassicalBounds:
    def test_hinf_twice_tail(self):
        assert bt_hinf_bound([3.0, 2.0, 1.0], 1) == 6.0
        assert bt_hinf_bound([3.0, 2.0, 1.0], 3) == 0.0
        assert bt_hinf_bound([1.0], 0) == 2.0

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
        rom = truncate(sys, balance(gset, sys, r=3))
        bound_sq = bt_h2_bound_infinite(sys, gset, 3)
        a_err = np.block([
            [sys.A, np.zeros((6, 3))],
            [np.zeros((3, 6)), rom.A11],
        ])
        b_err = np.vstack([sys.B, rom.B1])
        c_err = np.hstack([sys.C, -rom.C1])
        p_err = solve_lyapunov(a_err, -b_err @ b_err.T)
        h2_sq = float(np.trace(c_err @ p_err @ c_err.T))
        assert bound_sq == pytest.approx(h2_sq, rel=1e-8)

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
        bal = balance(gset, sys, r=4)
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
