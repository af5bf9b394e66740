import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tlbt.systems
from conftest import fem_rod, rand_spd
from oracles import apply_state_transform, exact_hankel_count, exact_hankel_values, hinf_error_sampled, standard_form
from tlbt.errors import DimensionError
from tlbt.balancing import (
    BalancingResult,
    ReducedModel,
    balance,
    select_order,
    truncate,
)
from tlbt.bounds import tlbt_h2_bound, tlbt_h2_bound_alt
from tlbt.gramians import GramianSet, infinite_gramians, time_limited_gramians
from tlbt.systems import StateSpaceSystem, _SchurRecord, generate_heat_model

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
        assert bal.singular_values[0] == pytest.approx(SCALAR_TL_1, rel=1e-13, abs=0.0)
        assert bal.n_hat == 1

    def test_state_symmetric_system_values_are_gramian_eigenvalues(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        assert np.allclose(gset.P, gset.Q, atol=1e-12)
        bal = balance(gset, sys)
        expect = np.sort(np.linalg.eigvalsh(gset.P))[::-1]
        assert np.allclose(bal.singular_values, expect, atol=1e-10)

    def test_readme_model_resolves_twenty_singular_values(self):
        # exactly 20 values exceed the cutoff (sigma_20 / sigma_1 = 1.5e-14,
        # sigma_21 / sigma_1 = 2.5e-15); the computed n_hat still depends on
        # the rounding of the values near the cutoff
        sys = generate_heat_model(50, 7, 6)
        exact = exact_hankel_count("gen:50,7,6", "0.05")
        assert exact == 20
        assert balance(time_limited_gramians(sys, 0.05), sys).n_hat == exact

    def test_readme_model_values_against_the_exact_ones(self):
        # the relative errors of sigma_3..9 when each core was factored by
        # one n x n eigh; the pivoted Cholesky factors must be five times closer
        by_eigh = np.array([2.07e-10, 8.57e-09, 3.24e-07, 1.06e-05, 2.12e-04, 2.23e-03, 1.48e-02])
        sys = generate_heat_model(50, 7, 6)
        exact = exact_hankel_values("gen:50,7,6", "0.05")
        sigma = balance(time_limited_gramians(sys, 0.05), sys).singular_values[:exact.size]
        err = np.abs(sigma - exact) / exact
        assert np.all(err[:2] <= 2e-13)
        assert np.all(err[2:] <= by_eigh / 5.0)

    @pytest.mark.parametrize("horizon", ["0.05", "inf"])
    def test_readme_model_leading_value_to_rounding(self, horizon):
        # the sine eigenbasis is exact to rounding; MRRR's eigenbasis left
        # sigma_1 1.1e-13 off at T = 0.05 and 2.5e-13 off at T = inf
        sys = generate_heat_model(50, 7, 6)
        gset = infinite_gramians(sys) if horizon == "inf" else time_limited_gramians(sys, float(horizon))
        exact = exact_hankel_values("gen:50,7,6", horizon)[0]
        assert abs(balance(gset, sys).singular_values[0] - exact) <= 1e-14 * exact

    def test_readme_model_unrestricted_pair_resolves_nineteen(self):
        # exactly 19 values exceed the cutoff (sigma_19 / sigma_1 = 3.2e-14,
        # sigma_20 / sigma_1 = 5.5e-15); the computed n_hat still depends on
        # the rounding of the values near the cutoff
        sys = generate_heat_model(50, 7, 6)
        exact = exact_hankel_count("gen:50,7,6", "inf")
        assert exact == 19
        assert balance(infinite_gramians(sys), sys).n_hat == exact

    def test_order_above_rank_reports_n_hat(self):
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        with pytest.raises(ValueError, match=r"r must be in \[1, 6\], got 7"):
            balance(gset, sys).reduce_to(7)

    def test_projector_identity(self):
        sys = generate_heat_model(12, 3, 3)
        gset = time_limited_gramians(sys, 0.5)
        bal = balance(gset, sys).reduce_to(4)
        assert np.linalg.norm(bal.W.T @ bal.V - np.eye(4)) <= 1e-10 * 2.0

    def test_projector_identity_with_mass_matrix(self, rng):
        heat = generate_heat_model(8, 2, 2)
        sys = StateSpaceSystem(A=heat.A, B=heat.B, C=heat.C, E=rand_spd(8, rng, spread=10.0))
        gset = time_limited_gramians(sys, 0.5)
        bal = balance(gset, sys).reduce_to(3)
        assert np.linalg.norm(bal.W.T @ bal.V - np.eye(3)) <= 1e-9

    def test_mass_matrix_system_matches_its_explicit_standard_form(self, rng):
        heat = generate_heat_model(8, 2, 2)
        e = rand_spd(8, rng, spread=10.0)
        sys = StateSpaceSystem(A=heat.A, B=heat.B, C=heat.C, E=e)
        std = StateSpaceSystem(A=np.linalg.solve(e, heat.A), B=np.linalg.solve(e, heat.B), C=heat.C)
        tbar = 0.5

        def outputs(s, gset):
            rom = truncate(s, balance(gset, s).reduce_to(3))
            out = [gset.P, gset.Q, balance(gset, s).singular_values, rom.A11, rom.B1, rom.C1,
                   hinf_error_sampled(s, rom, [0.0, 1.0, 100.0])]
            if math.isfinite(gset.horizon):
                out.append(tlbt_h2_bound(s, rom, gset.P, tbar).epsilon)
            return out

        for gramians in (lambda s: time_limited_gramians(s, tbar), infinite_gramians):
            got, want = (outputs(s, gramians(s)) for s in (sys, std))
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_full_transform_diagonalizes_both_gramians(self):
        # at full order W^T and V are the balancing transform and its inverse
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        bal = balance(gset, sys)
        assert bal.r == bal.n_hat == 6
        w, v, sig = bal.W, bal.V, np.diag(bal.singular_values)
        assert np.allclose(w.T @ v, np.eye(6), atol=1e-10)
        assert np.allclose(w.T @ gset.P @ w, sig, atol=1e-8)
        assert np.allclose(v.T @ gset.Q @ v, sig, atol=1e-8)

    def test_full_transform_matches_standalone_route(self):
        # the singular values are those of the dense pair, sqrt(eig(P Q))
        sys = generate_heat_model(6, 6, 6)
        gset = time_limited_gramians(sys, 0.5)
        bal = balance(gset, sys)
        expect = np.sort(np.sqrt(np.linalg.eigvals(gset.P @ gset.Q).real))[::-1]
        assert np.allclose(bal.singular_values, expect, rtol=1e-9)

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


    @pytest.mark.parametrize("r", [True, 2.5, "2", np.float64(2.0)], ids=["bool", "float", "str", "float64"])
    def test_reduce_to_refuses_an_order_that_is_not_an_integer(self, r):
        sys = generate_heat_model(6, 6, 6)
        bal = balance(time_limited_gramians(sys, 0.5), sys)
        with pytest.raises(ValueError, match="r must be an integer, got"):
            bal.reduce_to(r)

    def test_reduce_to_takes_a_numpy_integer(self):
        sys = generate_heat_model(6, 6, 6)
        small = balance(time_limited_gramians(sys, 0.5), sys).reduce_to(np.int64(2))
        assert type(small.r) is int and small.r == 2 and small.W.shape == (6, 2)


def dense_balanced_truncation(sys, gset, r):
    """The Hankel values and the order-r reduced model by square-root
    balancing on the n-row factors, with the standard form formed."""
    zp, zq = gset.lowrank_P, gset.lowrank_Q
    u, sigma, vt = np.linalg.svd(zq.T @ zp)
    scale = 1.0 / np.sqrt(sigma[:r])
    w, v = zq @ (u[:, :r] * scale), zp @ (vt[:r].T * scale)
    a, b = standard_form(sys)
    return sigma, (w.T @ a @ v, w.T @ b, sys.C @ v)


def _heat(n):
    return generate_heat_model(n, 7, 6)


def _own(sys):
    return sys, time_limited_gramians(sys, 0.05)


def _hand_built(sys):
    g = time_limited_gramians(sys, 0.05)
    return sys, GramianSet(P=g.P, Q=g.Q, horizon=0.05)


def _of_another_system(sys):
    # a second system object with the same matrices has a record of its own
    return sys, time_limited_gramians(StateSpaceSystem(A=sys.A, B=sys.B, C=sys.C, E=sys.E), 0.05)


def _of_another_record(sys):
    return sys, GramianSet._of(0.05, *_SchurRecord(sys).gramians(0.05))


CORE_ROUTE_CASES = {
    # the sine basis applied by FFT
    "sine-800": lambda: _own(_heat(800)),
    # a symmetric A that is not Toeplitz: the dense eigh
    "eigh-100": lambda: _own(StateSpaceSystem(A=_heat(100).A - np.diag(np.linspace(0.0, 50.0, 100)),
                                              B=_heat(100).B, C=_heat(100).C)),
    "fem-60": lambda: _own(fem_rod(60, 7, 6)),
    # upwind advection: the Schur record
    "schur-100": lambda: _own(StateSpaceSystem(A=_heat(100).A + 20.0 * (np.eye(100, k=-1) - np.eye(100)),
                                               B=_heat(100).B, C=_heat(100).C)),
    "hand-built": lambda: _hand_built(_heat(100)),
    "another-system": lambda: _of_another_system(fem_rod(60, 7, 6)),
    "another-record": lambda: _of_another_record(fem_rod(60, 7, 6)),
}


@pytest.mark.parametrize("case", sorted(CORE_ROUTE_CASES))
def test_core_route_matches_the_dense_balancing(case):
    # balance and truncate in the operator record's coordinates against
    # the same algorithm on the n-row factors; both carry rounding of
    # about u sigma_1, so the Hankel values are compared to that scale
    sys, gset = CORE_ROUTE_CASES[case]()
    r = 4
    bal = balance(gset, sys)
    sigma, (a, b, c) = dense_balanced_truncation(sys, gset, r)
    kept = sigma >= 1e-10 * sigma[0]
    got = bal.singular_values[:np.count_nonzero(kept)]
    assert got.size == np.count_nonzero(kept)
    assert np.max(np.abs(got - sigma[kept])) <= 1e-13 * sigma[0]
    small = bal.reduce_to(r)
    assert not (small.V.flags.writeable or small.W.flags.writeable)
    assert np.linalg.norm(small.W.T @ small.V - np.eye(r)) <= 1e-10
    rom = truncate(sys, small)
    # the same bases handed over as a hand-built result are moved into the record's coordinates
    moved = truncate(sys, BalancingResult(small.singular_values, small.V, small.W, small.horizon, r))
    for k in range(4):
        want = c @ np.linalg.matrix_power(a, k) @ b
        for got_rom in (rom, moved):
            markov = got_rom.C1 @ np.linalg.matrix_power(got_rom.A11, k) @ got_rom.B1
            assert np.linalg.norm(markov - want) <= 1e-9 * np.linalg.norm(want), k


@pytest.mark.parametrize("case", ["sine-800", "eigh-100", "fem-60", "schur-100"])
def test_records_own_set_is_balanced_truncated_and_bounded_on_its_cores(case, monkeypatch):
    # no n-row factor, basis or projector is formed: each is read only when asked for
    sys, gset = CORE_ROUTE_CASES[case]()

    def refuse(_):
        raise AssertionError("an n-row product with a basis was formed")

    for cls, names in ((GramianSet, ("lowrank_P", "lowrank_Q", "P", "Q")), (BalancingResult, ("V", "W"))):
        for name in names:
            monkeypatch.setattr(cls, name, property(refuse))
    monkeypatch.setattr(tlbt.systems, "_lift", refuse)
    rom = truncate(sys, balance(gset, sys).reduce_to(4))
    assert tlbt_h2_bound(sys, rom, gset, 0.05).epsilon > 0.0


class TestFullBalancingTransform:
    """balance()'s full-order W and V on hand-built positive definite pairs:
    W^T P W = diag(sigma) = V^T Q V and W^T V = I."""

    def test_diagonal_pair(self):
        sys = generate_heat_model(3, 1, 1)
        p = q = np.diag([4.0, 1.0, 0.5])
        bal = balance(GramianSet(P=p, Q=q, horizon=1.0), sys)
        assert np.allclose(bal.singular_values, [4.0, 1.0, 0.5], atol=1e-14)
        assert np.allclose(bal.W.T @ bal.V, np.eye(3), atol=1e-12)

    def test_identity_pair(self):
        sys = generate_heat_model(3, 1, 1)
        bal = balance(GramianSet(P=np.eye(3), Q=np.eye(3), horizon=1.0), sys)
        assert np.allclose(bal.singular_values, np.ones(3), atol=1e-14)

    def test_congruence_relations(self, rng):
        sys = generate_heat_model(5, 1, 1)
        p = rand_spd(5, rng, spread=50.0)
        q = rand_spd(5, rng, spread=50.0)
        bal = balance(GramianSet(P=p, Q=q, horizon=1.0), sys)
        w, v, sigma = bal.W, bal.V, bal.singular_values
        assert bal.r == 5
        assert np.allclose(w.T @ p @ w, np.diag(sigma), atol=1e-8 * np.max(sigma))
        assert np.allclose(v.T @ q @ v, np.diag(sigma), atol=1e-8 * np.max(sigma))
        assert np.allclose(w.T @ v, np.eye(5), atol=1e-10)

    def test_rank_deficient_pair_points_to_projection_route(self):
        # balance() truncates a semidefinite pair; balanced coordinates refuse it
        sys = generate_heat_model(3, 1, 1)
        gset = GramianSet(P=np.diag([1.0, 0.5, 0.0]), Q=np.eye(3), horizon=1.0)
        assert balance(gset, sys).n_hat == 2
        with pytest.raises(ValueError, match=r"positive definite .*use balance\(\)"):
            tlbt_h2_bound_alt(sys, gset, 1)


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
        assert rom.A11[0, 0] == pytest.approx(-1.0, rel=1e-13, abs=0.0)
        assert rom.B1[0, 0] * rom.C1[0, 0] == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_reduced_heat_model_is_stable(self):
        sys = generate_heat_model(20, 20, 20)
        bal = balance(time_limited_gramians(sys, 0.1), sys).reduce_to(4)
        rom = truncate(sys, bal)
        assert np.all(np.linalg.eigvals(rom.A11).real < 0)
        assert rom.as_system().name == "heat-20-20-20-r4"

    def test_dimension_mismatch_rejected(self):
        sys6 = generate_heat_model(6, 2, 2)
        sys5 = generate_heat_model(5, 2, 2)
        bal = balance(time_limited_gramians(sys6, 0.5), sys6).reduce_to(2)
        with pytest.raises(DimensionError, match="balancing bases"):
            truncate(sys5, bal)


class TestReducedModel:
    @pytest.fixture(scope="class")
    def rom(self):
        sys = generate_heat_model(10, 2, 2)
        return truncate(sys, balance(time_limited_gramians(sys, 0.1), sys).reduce_to(3))

    def test_matrices_must_conform_to_the_order(self, rom):
        a, b, c = rom.A11, rom.B1, rom.C1
        cases = [
            ("A11", dict(A11=a, B1=b, C1=c, r=5)),        # a 3 x 3 A11 labelled r = 5
            ("B1", dict(A11=a, B1=b[:2], C1=c, r=3)),     # B1 with 2 rows
            ("A11", dict(A11=a[:, :2], B1=b, C1=c, r=3)),  # a 3 x 2 A11
            ("C1", dict(A11=a, B1=b, C1=c[:, :2], r=3)),   # C1 with 2 columns
        ]
        for name, fields in cases:
            with pytest.raises(DimensionError, match=name):
                ReducedModel(horizon=0.1, **fields)

    def test_matrices_must_be_finite(self, rom):
        with pytest.raises(ValueError, match="C1 contains non-finite"):
            ReducedModel(A11=rom.A11, B1=rom.B1, C1=np.full_like(rom.C1, np.nan), r=3, horizon=0.1)

    def test_lists_are_accepted_as_arrays(self):
        rom = ReducedModel(A11=[[-2.0]], B1=[[1.0, 0.5]], C1=[[1.0]], r=1, horizon=1.0)
        assert isinstance(rom.B1, np.ndarray) and rom.B1.shape == (1, 2)


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


def test_gramian_factors_of_zero_product_refused():
    # P lives on e1 and Q on e2: both factors have rank one, and their product is 0
    sys = StateSpaceSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="all singular values are numerically zero") as info:
        balance(time_limited_gramians(sys, 1.0), sys)
    assert type(info.value) is ValueError
