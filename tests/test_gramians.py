import math
import sys as sys_module
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import fem_rod, rand_stable
from oracles import (
    cross_gramian_quadrature,
    exact_hankel_values,
    gramian_quadrature_oracle,
    mixed_gramian,
    reduced_gramian,
    solve_lyapunov,
    standard_form,
)
import tlbt.linalg
from tlbt.balancing import ReducedModel, balance, truncate
from tlbt.errors import DimensionError, NotPsdError, StabilityError
from tlbt.gramians import GramianSet, infinite_gramians, time_limited_gramians
from tlbt.systems import StateSpaceSystem, generate_heat_model

SCALAR_TL_1 = (1.0 - math.exp(-2.0)) / 2.0  # horizon-1 Gramian of x' = -x + u


def lyapunov_residual(a, p, w):
    return np.linalg.norm(a @ p + p @ a.T + w)


class TestInfiniteGramians:
    def test_scalar(self, scalar_system):
        gset = infinite_gramians(scalar_system)
        assert gset.P[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gset.Q[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gset.horizon == math.inf

    def test_diagonal(self):
        sys = StateSpaceSystem(A=np.diag([-1.0, -2.0]), B=np.eye(2), C=np.eye(2))
        gset = infinite_gramians(sys)
        assert np.allclose(gset.P, np.diag([0.5, 0.25]), atol=1e-14)
        assert np.allclose(gset.Q, np.diag([0.5, 0.25]), atol=1e-14)

    def test_zero_input_matrix(self):
        sys = StateSpaceSystem(A=[[-1.0]], B=[[0.0]], C=[[1.0]])
        assert infinite_gramians(sys).P[0, 0] == 0.0

    def test_unstable_rejected(self):
        sys = StateSpaceSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(StabilityError, match="Hurwitz"):
            infinite_gramians(sys)

    def test_factors_always_present(self):
        sys = generate_heat_model(6, 6, 6)
        gset = infinite_gramians(sys)
        a, b = standard_form(sys)
        for z, want in ((gset.lowrank_P, solve_lyapunov(a, -b @ b.T)),
                        (gset.lowrank_Q, solve_lyapunov(a.T, -sys.C.T @ sys.C))):
            assert np.allclose(z @ z.T, want, atol=1e-10)


class TestGramianSet:
    def test_hand_built_set_is_factored(self):
        gset = GramianSet(P=np.diag([4.0, 1.0, 0.0]), Q=np.eye(3), horizon=1.0)
        assert gset.lowrank_P.shape == (3, 2)
        assert np.allclose(gset.lowrank_P @ gset.lowrank_P.T, np.diag([4.0, 1.0, 0.0]), atol=1e-14)
        assert gset.lowrank_Q.shape == (3, 3)
        assert np.allclose(gset.lowrank_Q @ gset.lowrank_Q.T, np.eye(3), atol=1e-14)

    def test_hand_built_set_drops_the_eigenvalues_below_the_cut(self):
        gset = GramianSet(P=np.diag([1.0, 1e-14]), Q=np.eye(2), horizon=1.0)
        assert gset.lowrank_P.shape == (2, 1)
        assert np.array_equal(gset.P, np.diag([1.0, 0.0]))

    def test_negligible_negative_eigenvalue_is_zeroed(self):
        gset = GramianSet(P=np.diag([1.0, -1e-12]), Q=np.eye(2), horizon=1.0)
        assert np.array_equal(gset.P, np.diag([1.0, 0.0]))
        assert gset.lowrank_P.shape == (2, 1)

    def test_rejects_indefinite_and_asymmetric_input(self):
        with pytest.raises(NotPsdError, match="Q has eigenvalue"):
            GramianSet(P=np.eye(2), Q=np.diag([1.0, -1e-3]), horizon=1.0)
        with pytest.raises(ValueError, match="P must be symmetric"):
            GramianSet(P=[[1.0, 0.5], [0.0, 1.0]], Q=np.eye(2), horizon=1.0)


    @pytest.mark.parametrize("build", [
        lambda: GramianSet(P=np.diag([4.0, 1e-14]), Q=np.eye(2), horizon=1.0),
        lambda: time_limited_gramians(generate_heat_model(10, 2, 2), 0.05),
        lambda: infinite_gramians(rand_stable(6, 2, 2, np.random.default_rng(3))),
    ], ids=["hand-built", "pivoted-cholesky", "schur-record"])
    def test_holds_read_only_factors_and_the_roots_of_p_and_q(self, build):
        # the pairs (basis, core) are the only roots: the factors, P and Q are their products
        gset = build()
        assert sorted(vars(gset)) == ["_pairs", "horizon"]
        for z in (gset.lowrank_P, gset.lowrank_Q):
            with pytest.raises(ValueError, match="read-only"):
                z[0, 0] = 1.0
        assert np.array_equal(gset.P, gset.lowrank_P @ gset.lowrank_P.T)

    def test_rejects_pairs_of_different_orders(self):
        with pytest.raises(DimensionError, match="equal shapes"):
            GramianSet(P=np.eye(2), Q=np.eye(3), horizon=1.0)

    @pytest.mark.parametrize("horizon", [math.nan, -1.0, 0.0])
    def test_rejects_a_horizon_that_is_not_positive(self, horizon):
        with pytest.raises(ValueError, match="tbar must be positive and finite"):
            GramianSet(P=np.eye(2), Q=np.eye(2), horizon=horizon)

    @pytest.mark.parametrize("horizon", [1.0, math.inf])
    def test_accepts_a_positive_horizon_and_the_unrestricted_one(self, horizon):
        assert GramianSet(P=np.eye(2), Q=np.eye(2), horizon=horizon).horizon == horizon


class TestTimeLimitedGramians:
    def test_scalar_horizon_one(self, scalar_system):
        gset = time_limited_gramians(scalar_system, 1.0)
        assert gset.P[0, 0] == pytest.approx(SCALAR_TL_1, abs=1e-15)
        assert gset.Q[0, 0] == pytest.approx(SCALAR_TL_1, abs=1e-15)
        assert gset.horizon == 1.0
        op = scalar_system._operator()
        # F = X_P (X_Q^T F) and G = (G X_P) X_Q^T
        (f, g), (x_p, x_q) = op.core_propagators(1.0), op.bases
        f, g = x_p @ f, g @ x_q.T
        assert f[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert g[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_long_horizon_approaches_unrestricted(self, scalar_system):
        gset = time_limited_gramians(scalar_system, 20.0)
        assert gset.P[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_zero_input_matrix(self):
        sys = StateSpaceSystem(A=[[-1.0]], B=[[0.0]], C=[[1.0]])
        gset = time_limited_gramians(sys, 3.0)
        assert gset.P[0, 0] == 0.0
        op = sys._operator()
        assert (op.bases[0] @ op.core_propagators(3.0)[0])[0, 0] == 0.0

    def test_defined_for_unstable_systems(self):
        sys = StateSpaceSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        gset = time_limited_gramians(sys, 1.0)
        assert gset.P[0, 0] == pytest.approx((math.exp(2.0) - 1.0) / 2.0, rel=1e-13, abs=0.0)

    def test_exponential_overflow_raises_overflow_error(self):
        # a non-normal, strongly unstable A: the Schur record's expm
        # overflows, and says so without a RuntimeWarning from its products
        heat = generate_heat_model(20, 2, 2)
        a = -heat.A + 5.0 * (np.eye(20, k=-1) - np.eye(20))
        sys = StateSpaceSystem(A=a, B=heat.B, C=heat.C)
        with pytest.raises(OverflowError, match="matrix exponential overflowed"):
            time_limited_gramians(sys, 1.0)

    def test_invalid_horizon(self, scalar_system):
        with pytest.raises(ValueError, match="tbar"):
            time_limited_gramians(scalar_system, 0.0)
        with pytest.raises(ValueError, match="tbar"):
            time_limited_gramians(scalar_system, math.inf)

    def test_mass_matrix_consistency(self):
        # scaling E and A, B together leaves the realization unchanged
        base = generate_heat_model(5, 2, 2)
        scaled = StateSpaceSystem(A=2.0 * base.A, B=2.0 * base.B, C=base.C, E=2.0 * np.eye(5))
        g0 = time_limited_gramians(base, 0.7)
        g1 = time_limited_gramians(scaled, 0.7)
        assert np.allclose(g1.P, g0.P, atol=1e-12)
        assert np.allclose(g1.Q, g0.Q, atol=1e-10)


class TestQuadratureOracle:
    def test_scalar_against_closed_form(self, scalar_system):
        val = gramian_quadrature_oracle(scalar_system, 1.0, panels=64)
        assert val[0, 0] == pytest.approx(SCALAR_TL_1, abs=1e-10)

    def test_zero_input_matrix(self):
        sys = StateSpaceSystem(A=[[-1.0]], B=[[0.0]], C=[[1.0]])
        assert gramian_quadrature_oracle(sys, 1.0)[0, 0] == 0.0

    def test_matches_equation_route(self, rng):
        sys = rand_stable(6, 2, 2, rng)
        p_eq = time_limited_gramians(sys, 2.0).P
        p_quad = gramian_quadrature_oracle(sys, 2.0, panels=256)
        assert np.linalg.norm(p_quad - p_eq) <= 1e-8 * max(1.0, np.linalg.norm(p_eq))

    def test_panel_validation(self, scalar_system):
        with pytest.raises(ValueError, match="panels"):
            cross_gramian_quadrature([[-1.0]], [[1.0]], [[-1.0]], [[1.0]], 1.0, panels=0)


class TestReducedGramian:
    def test_scalar(self, scalar_system):
        gset = time_limited_gramians(scalar_system, 1.0)
        bal = balance(gset, scalar_system)
        rom = truncate(scalar_system, bal)
        assert reduced_gramian(rom, 1.0)[0, 0] == pytest.approx(SCALAR_TL_1, rel=1e-12, abs=0.0)

    def test_full_order_balanced_is_diagonal(self):
        sys = generate_heat_model(6, 6, 6)
        tbar = 0.5
        gset = time_limited_gramians(sys, tbar)
        bal = balance(gset, sys)
        rom = truncate(sys, bal)
        assert rom.r == 6
        pr = reduced_gramian(rom, tbar)
        assert np.allclose(pr, np.diag(bal.singular_values), atol=1e-8)

    def test_zero_input_matrix(self):
        rom = ReducedModel(A11=[[-1.0]], B1=[[0.0]], C1=[[1.0]], r=1, horizon=1.0)
        assert reduced_gramian(rom, 1.0)[0, 0] == 0.0


class TestMixedGramian:
    def test_identity_reduction_recovers_gramian(self):
        sys = generate_heat_model(5, 2, 2)
        tbar = 0.8
        rom = ReducedModel(A11=sys.A, B1=sys.B, C1=sys.C, r=5, horizon=tbar)
        pm = mixed_gramian(sys, rom, tbar)
        assert np.allclose(pm, time_limited_gramians(sys, tbar).P, atol=1e-10)

    def test_scalar(self, scalar_system):
        rom = ReducedModel(A11=[[-1.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=1.0)
        assert mixed_gramian(scalar_system, rom, 1.0)[0, 0] == pytest.approx(SCALAR_TL_1, rel=1e-13, abs=0.0)

    def test_infinite_horizon(self, scalar_system):
        rom = ReducedModel(A11=[[-1.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=math.inf)
        assert mixed_gramian(scalar_system, rom, math.inf)[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_matches_quadrature(self, rng):
        sys = rand_stable(6, 2, 2, rng)
        tbar = 1.5
        gset = time_limited_gramians(sys, tbar)
        rom = truncate(sys, balance(gset, sys).reduce_to(2))
        pm = mixed_gramian(sys, rom, tbar)
        pm_quad = cross_gramian_quadrature(sys.A, sys.B, rom.A11, rom.B1, tbar, panels=256)
        assert np.linalg.norm(pm - pm_quad) <= 1e-8 * max(1.0, np.linalg.norm(pm))

    def test_input_count_mismatch(self, scalar_system):
        rom = ReducedModel(A11=[[-1.0]], B1=[[1.0, 0.0]], C1=[[1.0]], r=1, horizon=1.0)
        with pytest.raises(DimensionError, match="B1"):
            mixed_gramian(scalar_system, rom, 1.0)


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_mixed_gramian_solves_coupling_equation(n, seed):
    rng = np.random.default_rng(seed)
    sys = rand_stable(n, 2, 2, rng)
    r = int(rng.integers(1, min(4, n) + 1))
    rom_sys = rand_stable(r, 2, 2, rng)
    rom = ReducedModel(A11=rom_sys.A, B1=rom_sys.B, C1=rom_sys.C, r=r, horizon=1.0)
    tbar = float(rng.uniform(0.2, 2.0))
    pm = mixed_gramian(sys, rom, tbar)
    from tlbt.linalg import expm

    f = expm(sys.A, tbar) @ sys.B
    fr = expm(rom.A11, tbar) @ rom.B1
    resid = sys.A @ pm + pm @ rom.A11.T + sys.B @ rom.B1.T - f @ fr.T
    scale = max(1.0, float(np.linalg.norm(sys.B @ rom.B1.T)))
    assert np.linalg.norm(resid) <= 1e-8 * scale


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_gramian_grows_with_horizon(n, seed):
    rng = np.random.default_rng(seed)
    sys = rand_stable(n, 2, 2, rng)
    t1 = float(rng.uniform(0.1, 1.0))
    t2 = t1 + float(rng.uniform(0.1, 2.0))
    p1 = time_limited_gramians(sys, t1).P
    p2 = time_limited_gramians(sys, t2).P
    evals = np.linalg.eigvalsh(p2 - p1)
    assert evals[0] >= -1e-10 * max(1.0, np.linalg.norm(p2, 2))


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_long_horizon_limit_is_unrestricted_pair(n, seed):
    rng = np.random.default_rng(seed)
    sys = rand_stable(n, 2, 2, rng)
    alpha = float(np.max(np.linalg.eigvals(sys.A).real))
    tbar = 20.0 / abs(alpha)
    p_inf = infinite_gramians(sys).P
    p_tl = time_limited_gramians(sys, tbar).P
    assert np.linalg.norm(p_tl - p_inf) <= 1e-6 * max(1.0, np.linalg.norm(p_inf))


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_observability_is_dual_reachability(n, seed):
    rng = np.random.default_rng(seed)
    sys = rand_stable(n, 2, 3, rng)
    dual = StateSpaceSystem(A=sys.A.T, B=sys.C.T, C=sys.B.T)
    tbar = float(rng.uniform(0.3, 3.0))
    q = time_limited_gramians(sys, tbar).Q
    p_dual = time_limited_gramians(dual, tbar).P
    assert np.linalg.norm(q - p_dual) <= 1e-10 * max(1.0, np.linalg.norm(q))


@pytest.fixture
def heat_rom():
    sys = generate_heat_model(6, 2, 2)
    gset = time_limited_gramians(sys, 0.5)
    return sys, truncate(sys, balance(gset, sys).reduce_to(3))


class TestHorizonValidation:
    def test_mixed_rejects_nan(self, heat_rom):
        sys, rom = heat_rom
        with pytest.raises(ValueError, match="tbar must be positive and finite, got nan"):
            mixed_gramian(sys, rom, math.nan)

    def test_mixed_rejects_negative(self, heat_rom):
        sys, rom = heat_rom
        with pytest.raises(ValueError, match="tbar must be positive and finite, got -0.5"):
            mixed_gramian(sys, rom, -0.5)

    def test_reduced_rejects_negative(self, heat_rom):
        _, rom = heat_rom
        with pytest.raises(ValueError, match="tbar must be positive and finite, got -0.5"):
            reduced_gramian(rom, -0.5)

    def test_mixed_accepts_infinity(self, heat_rom):
        sys, rom = heat_rom
        pm = mixed_gramian(sys, rom, math.inf)
        resid = sys.A @ pm + pm @ rom.A11.T + sys.B @ rom.B1.T
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(sys.B @ rom.B1.T)


def test_threads_sharing_a_system_get_identical_gramians(monkeypatch):
    import scipy.linalg

    sys = rand_stable(40, 3, 2, np.random.default_rng(8))
    schur = scipy.linalg.schur
    factored = []

    def counting_schur(a, *args, **kwargs):
        factored.append(np.shape(a))
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(k):
        start.wait(timeout=10)
        results[k] = time_limited_gramians(sys, 0.7)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
    interval = sys_module.getswitchinterval()
    sys_module.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys_module.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for other in results[1:]:
        assert np.array_equal(other.P, results[0].P)
        assert np.array_equal(other.Q, results[0].Q)
    # one shared Schur form of A; A^T's is read off it
    assert factored.count((40, 40)) == 1


def lyapunov_reference(sys, tbar):
    """The Gramians at tbar and at inf from the public Lyapunov solver on
    the explicit standard form."""
    (a, b), c = standard_form(sys), sys.C
    phi = tlbt.linalg.expm(a, tbar)
    f, g = phi @ b, c @ phi
    want_tl = GramianSet(P=solve_lyapunov(a, f @ f.T - b @ b.T),
                         Q=solve_lyapunov(a.T, g.T @ g - c.T @ c), horizon=tbar)
    want_inf = GramianSet(P=solve_lyapunov(a, -b @ b.T),
                          Q=solve_lyapunov(a.T, -c.T @ c), horizon=math.inf)
    return want_tl, want_inf


@pytest.mark.parametrize("sys", [generate_heat_model(120, 7, 6), fem_rod(60, 7, 6)],
                         ids=["rod-120", "fem-mass-60"])
def test_eigenbasis_gramians_match_the_schur_route(sys):
    assert isinstance(sys._operator(), tlbt.systems._EigenRecord)
    tbar = 0.05
    want_tl, want_inf = lyapunov_reference(sys, tbar)
    for got, want in ((time_limited_gramians(sys, tbar), want_tl), (infinite_gramians(sys), want_inf)):
        for name in ("P", "Q"):
            x, y = getattr(got, name), getattr(want, name)
            assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y), name


@pytest.mark.parametrize("sys", [generate_heat_model(120, 7, 6), fem_rod(60, 7, 6)],
                         ids=["rod-120", "fem-mass-60"])
def test_low_rank_factors_of_both_records_match_the_lyapunov_reference(sys):
    # each record's factors, taken in its own basis, against dense solves
    tbar = 0.05
    want = dict(zip((tbar, math.inf), lyapunov_reference(sys, tbar)))
    for record in (sys._operator(), tlbt.systems._SchurRecord(sys)):
        for horizon, reference in want.items():
            got = GramianSet._of(horizon, *record.gramians(horizon))
            for name in ("P", "Q"):
                z, y = getattr(got, "lowrank_" + name), getattr(reference, name)
                assert np.linalg.norm(z @ z.T - y) <= 1e-10 * np.linalg.norm(y), (type(record), horizon, name)


def test_schur_record_time_limited_hankel_values_match_the_exact_ones():
    # the Schur record factors a finite horizon's cores by pivoted
    # Cholesky; a per-eigenvalue cut put sigma_4 1.2e-8 and sigma_6
    # 8.3e-6 off
    rod = fem_rod(60, 7, 6)
    gset = GramianSet._of(0.05, *tlbt.systems._SchurRecord(rod).gramians(0.05))
    sigma = balance(gset, rod).singular_values[:6]
    err = np.abs(sigma - exact_hankel_values("fem_rod(60,7,6)", "0.05")) / sigma
    assert err[3] <= 1e-9 and err[5] <= 1e-6


def test_observability_gramian_on_the_reversed_schur_form():
    # complex eigenvalue pairs give 2x2 diagonal blocks, which the
    # reversed form must keep quasi-triangular
    sys = rand_stable(12, 2, 3, np.random.default_rng(21))
    form = sys._operator().schur
    assert np.any(np.diag(form.t, -1) != 0.0)
    at = form.transposed()
    assert np.allclose(at.z @ at.t @ at.z.T, sys.A.T, rtol=0.0, atol=1e-12 * np.linalg.norm(sys.A))
    assert np.array_equal(at.t, np.triu(at.t, -1))
    tbar = 0.8
    q = time_limited_gramians(sys, tbar).Q
    quad = cross_gramian_quadrature(sys.A.T, sys.C.T, sys.A.T, sys.C.T, tbar)
    assert np.linalg.norm(q - quad) <= 1e-8 * np.linalg.norm(quad)
