import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import rand_spd
from oracles import apply_state_transform, full_balancing_transform
from tlbt.errors import DimensionError
from tlbt.balancing import (
    balance,
    select_order,
    truncate,
)
from tlbt.bounds import hinf_error_sampled, tlbt_h2_bound
from tlbt.gramians import GramianSet, infinite_gramians, time_limited_gramians
from tlbt.systems import StateSpaceSystem, generate_heat_model

SCALAR_TL_1 = (1.0 - math.exp(-2.0)) / 2.0


def random_conditioned(n, rng, max_cond=1e3):
    """Random transform with condition number at most max_cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    half = math.log10(max_cond) / 2.0
    d = 10.0 ** rng.uniform(-half, half, size=n)
    return q1 @ np.diag(d) @ q2.T


class TestBalance:
    def test_identity_gramians_are_already_balanced(self):
        sys = generate_heat_model(3, 3, 3)
        gset = GramianSet(P=np.eye(3), Q=np.eye(3), horizon=1.0)
        bal = balance(gset, sys)
        assert np.allclose(bal.singular_values, np.ones(3), atol=1e-14)
        assert np.allclose(bal.W.T @ bal.V, np.eye(3), atol=1e-14)

    def test_scalar_singular_value(self, scalar_system):
        gset = time_limited_gramians(scalar_system, 1.0)
        bal = balance(gset, scalar_system)
        assert bal.singular_values[0] == pytest.approx(SCALAR_TL_1, rel=1e-13)
        assert bal.n_hat == 1

    def test_state_symmetric_system_values_are_gramian_eigenvalues(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        assert np.allclose(gset.P, gset.Q, atol=1e-12)
        bal = balance(gset, sys)
        expect = np.sort(np.linalg.eigvalsh(gset.P))[::-1]
        assert np.allclose(bal.singular_values, expect, atol=1e-10)

    def test_readme_model_resolves_twenty_singular_values(self):
        sys = generate_heat_model(50, 7, 6)
        assert balance(time_limited_gramians(sys, 0.05), sys).n_hat == 20

    def test_readme_model_unrestricted_pair_resolves_nineteen(self):
        sys = generate_heat_model(50, 7, 6)
        assert balance(infinite_gramians(sys), sys).n_hat == 19

    def test_order_above_rank_reports_n_hat(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        with pytest.raises(ValueError, match="n_hat = 6"):
            balance(gset, sys, r=7)

    def test_projector_identity(self):
        sys = generate_heat_model(12, 3, 3)
        gset = time_limited_gramians(sys, 0.5)
        bal = balance(gset, sys, r=4)
        assert np.linalg.norm(bal.W.T @ bal.V - np.eye(4)) <= 1e-10 * 2.0

    def test_projector_identity_with_mass_matrix(self, rng):
        heat = generate_heat_model(8, 2, 2)
        sys = StateSpaceSystem(A=heat.A, B=heat.B, C=heat.C, E=rand_spd(8, rng, spread=10.0))
        gset = time_limited_gramians(sys, 0.5)
        bal = balance(gset, sys, r=3)
        assert np.linalg.norm(bal.W.T @ bal.V - np.eye(3)) <= 1e-9

    def test_mass_matrix_system_matches_its_explicit_standard_form(self, rng):
        heat = generate_heat_model(8, 2, 2)
        e = rand_spd(8, rng, spread=10.0)
        sys = StateSpaceSystem(A=heat.A, B=heat.B, C=heat.C, E=e)
        std = StateSpaceSystem(A=np.linalg.solve(e, heat.A), B=np.linalg.solve(e, heat.B), C=heat.C)
        tbar = 0.5

        def outputs(s, gset):
            rom = truncate(s, balance(gset, s, r=3))
            out = [gset.P, gset.Q, balance(gset, s).singular_values, rom.A11, rom.B1, rom.C1,
                   hinf_error_sampled(s, rom, [0.0, 1.0, 100.0])]
            if math.isfinite(gset.horizon):
                out.append(tlbt_h2_bound(s, rom, gset.P, tbar).epsilon)
            return out

        for gramians in (lambda s: time_limited_gramians(s, tbar), infinite_gramians):
            got, want = (outputs(s, gramians(s)) for s in (sys, std))
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_full_transform_diagonalizes_both_gramians(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        s, s_inv, sigma = full_balancing_transform(gset.P, gset.Q)
        sig = np.diag(sigma)
        assert np.allclose(s @ s_inv, np.eye(6), atol=1e-10)
        assert np.allclose(s @ gset.P @ s.T, sig, atol=1e-8)
        assert np.allclose(s_inv.T @ gset.Q @ s_inv, sig, atol=1e-8)

    def test_full_transform_matches_standalone_route(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        bal = balance(gset, sys)
        _, _, sigma = full_balancing_transform(gset.P, gset.Q)
        assert np.allclose(bal.singular_values, sigma, rtol=1e-9)

    def test_singular_values_are_state_coordinate_invariants(self, rng):
        sys = generate_heat_model(8, 8, 8)
        tbar = 0.5
        base = balance(time_limited_gramians(sys, tbar), sys).singular_values
        for _ in range(5):
            other = apply_state_transform(sys, random_conditioned(8, rng))
            got = balance(time_limited_gramians(other, tbar), other).singular_values
            assert got.size == base.size
            assert np.max(np.abs(got - base) / base) <= 1e-7

    def test_reduce_to(self):
        sys = generate_heat_model(6, 6, 6)
        bal = balance(time_limited_gramians(sys, 0.5), sys)
        small = bal.reduce_to(2)
        assert small.r == 2
        assert small.V.shape == (6, 2)
        assert np.array_equal(small.singular_values, bal.singular_values)
        with pytest.raises(ValueError, match="r must be in"):
            bal.reduce_to(0)


class TestFullBalancingTransform:
    def test_diagonal_pair(self):
        s, s_inv, sigma = full_balancing_transform(np.diag([4.0, 1.0]), np.diag([4.0, 1.0]))
        assert np.allclose(sigma, [4.0, 1.0], atol=1e-14)
        assert np.allclose(s @ s_inv, np.eye(2), atol=1e-12)

    def test_identity_pair(self):
        s, s_inv, sigma = full_balancing_transform(np.eye(3), np.eye(3))
        assert np.allclose(sigma, np.ones(3), atol=1e-14)

    def test_congruence_relations(self, rng):
        p = rand_spd(5, rng, spread=50.0)
        q = rand_spd(5, rng, spread=50.0)
        s, s_inv, sigma = full_balancing_transform(p, q)
        assert np.allclose(s @ p @ s.T, np.diag(sigma), atol=1e-8 * np.max(sigma))
        assert np.allclose(s_inv.T @ q @ s_inv, np.diag(sigma), atol=1e-8 * np.max(sigma))

    def test_rank_deficient_pair_points_to_projection_route(self):
        with pytest.raises(ValueError, match="balance"):
            full_balancing_transform(np.diag([1.0, 0.0]), np.eye(2))


class TestTruncate:
    def test_full_order_preserves_transfer_function(self):
        sys = generate_heat_model(6, 6, 6)
        bal = balance(time_limited_gramians(sys, 0.5), sys)
        rom = truncate(sys, bal)
        assert rom.r == 6
        freqs = np.logspace(-2, 3, 10)
        assert hinf_error_sampled(sys, rom, freqs) <= 1e-8

    def test_scalar_reduction_is_exact(self, scalar_system):
        bal = balance(time_limited_gramians(scalar_system, 1.0), scalar_system)
        rom = truncate(scalar_system, bal)
        assert rom.A11[0, 0] == pytest.approx(-1.0, rel=1e-13)
        assert rom.B1[0, 0] * rom.C1[0, 0] == pytest.approx(1.0, rel=1e-13)

    def test_reduced_heat_model_is_stable(self):
        sys = generate_heat_model(20, 20, 20)
        bal = balance(time_limited_gramians(sys, 0.1), sys, r=4)
        rom = truncate(sys, bal)
        assert np.all(np.linalg.eigvals(rom.A11).real < 0)
        assert rom.as_system().name == "heat-20-20-20-r4"

    def test_dimension_mismatch_rejected(self):
        sys6 = generate_heat_model(6, 2, 2)
        sys5 = generate_heat_model(5, 2, 2)
        bal = balance(time_limited_gramians(sys6, 0.5), sys6, r=2)
        with pytest.raises(DimensionError, match="balancing bases"):
            truncate(sys5, bal)


class TestSelectOrder:
    def test_tail_thresholds(self):
        sigma = [1.0, 0.1, 0.01]
        assert select_order(sigma, 0.2) == 1
        assert select_order(sigma, 0.05) == 2
        assert select_order(sigma, 0.005) == 3

    def test_large_tolerance_keeps_one_state(self):
        assert select_order([5.0, 1.0], 100.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            select_order([], 0.1)
        with pytest.raises(ValueError, match="tau"):
            select_order([1.0], 0.0)
        with pytest.raises(ValueError, match="nonincreasing"):
            select_order([1.0, 2.0], 0.1)
        with pytest.raises(ValueError, match="positive"):
            select_order([1.0, -0.5], 0.1)

    @given(
        st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=12),
        st.floats(1e-9, 1e4),
        st.floats(1.0, 100.0),
    )
    def test_monotone_in_tolerance(self, values, tau, factor):
        sigma = np.sort(np.asarray(values))[::-1]
        r_tight = select_order(sigma, tau)
        r_loose = select_order(sigma, tau * factor)
        assert 1 <= r_loose <= r_tight <= sigma.size
        # the selected order's discarded tail really is within tau
        assert np.sum(sigma[r_tight:]) <= tau
