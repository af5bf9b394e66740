import ast
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st

import tlbt.gramians
import tlbt.linalg
from tlbt import generate_heat_model
from tlbt.balancing import balance
from tlbt.errors import DimensionError, NotPsdError, SpectrumSeparationError
from tlbt.gramians import time_limited_gramians
from tlbt.linalg import _dense_cholesky, _pivoted_cholesky, _trsyl, expm
from tlbt.systems import StateSpaceSystem

from conftest import fem_rod, rand_spd, rand_stable
from oracles import solve_lyapunov, solve_sylvester, spd_factor


# expm

def test_expm_zero_matrix_gives_identity():
    assert np.array_equal(expm(np.zeros((3, 3)), t=7.0), np.eye(3))


def test_expm_nilpotent_closed_form():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(a, t=2.0), [[1.0, 2.0], [0.0, 1.0]], rtol=0, atol=1e-15)


def test_expm_scalar_log_two():
    assert math.isclose(expm([[-1.0]], t=math.log(2.0))[0, 0], 0.5, rel_tol=1e-14)


def test_expm_rejects_nonsquare():
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)), 1.0)


@given(st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_expm_semigroup(n, seed):
    rng = np.random.default_rng(seed)
    a = rand_stable(n, 1, 1, rng).A
    s, t = rng.uniform(0.1, 1.5, size=2)
    left = expm(a, s) @ expm(a, t)
    right = expm(a, s + t)
    assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(right)


# solve_sylvester

def test_sylvester_scalar_by_hand():
    x = solve_sylvester([[-1.0]], [[-1.0]], [[-1.0]])
    assert math.isclose(x[0, 0], 0.5, rel_tol=1e-14)


def test_sylvester_zero_rhs():
    rng = np.random.default_rng(0)
    a1 = rand_stable(4, 1, 1, rng).A
    a2 = rand_stable(2, 1, 1, rng).A
    assert np.array_equal(solve_sylvester(a1, a2, np.zeros((4, 2))), np.zeros((4, 2)))


@given(st.integers(0, 2**32 - 1))
def test_sylvester_residual(seed):
    rng = np.random.default_rng(seed)
    a1 = rand_stable(5, 1, 1, rng).A
    a2 = rand_stable(3, 1, 1, rng).A
    w = rng.standard_normal((5, 3))
    x = solve_sylvester(a1, a2, w)
    res = a1 @ x + x @ a2.T - w
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(w)


def test_sylvester_rejects_mirrored_spectra():
    with pytest.raises(SpectrumSeparationError):
        solve_sylvester([[-3.0]], [[3.0]], [[1.0]])


def test_sylvester_rejects_mismatched_rhs():
    with pytest.raises(DimensionError):
        solve_sylvester(np.diag([-1.0, -2.0]), [[-1.0]], np.ones((3, 1)))


# solve_lyapunov

def test_lyapunov_scalar():
    assert math.isclose(solve_lyapunov([[-1.0]], [[-1.0]])[0, 0], 0.5, rel_tol=1e-14)


def test_lyapunov_diagonal_by_hand():
    x = solve_lyapunov(np.diag([-1.0, -2.0]), -np.eye(2))
    assert np.allclose(x, np.diag([0.5, 0.25]), rtol=1e-13, atol=0)


def test_lyapunov_zero_rhs():
    a = np.diag([-1.0, -4.0])
    assert np.array_equal(solve_lyapunov(a, np.zeros((2, 2))), np.zeros((2, 2)))


def test_lyapunov_rejects_asymmetric_rhs():
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([-1.0, -2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(st.integers(0, 2**32 - 1))
def test_lyapunov_output_bitwise_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rand_stable(6, 1, 1, rng).A
    w = rng.standard_normal((6, 6))
    x = solve_lyapunov(a, w + w.T)
    assert np.array_equal(x, x.T)


# spd_factor

def test_spd_factor_identity():
    z = spd_factor(np.eye(4))
    assert z.shape == (4, 4)
    assert np.allclose(z @ z.T, np.eye(4), rtol=0, atol=1e-14)


def test_spd_factor_rank_two_diagonal():
    z = spd_factor(np.diag([4.0, 1.0, 0.0]))
    assert z.shape == (3, 2)
    assert np.allclose(z @ z.T, np.diag([4.0, 1.0, 0.0]), rtol=0, atol=1e-13)


def test_spd_factor_zero_matrix():
    z = spd_factor(np.zeros((3, 3)))
    assert z.shape == (3, 0)


def test_spd_factor_rejects_indefinite():
    with pytest.raises(NotPsdError):
        spd_factor(np.diag([1.0, -1.0]))


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_spd_factor_approximation_bound(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n + 1))
    p = g @ g.T
    tol = 1e-12
    z = spd_factor(p, tol=tol)
    gap = np.linalg.norm(p - z @ z.T, 2)
    assert gap <= 2 * tol * np.linalg.norm(p, 2) + 1e-15


# pivoted Cholesky of the eigen record's time-limited cores

def closed_form_cores(sys, tbar):
    """The cores (X^T B)(X^T B)^T o Phi and (C X)^T (C X) o Phi of the
    system's eigen record, formed densely, and the record's factors."""
    record = sys._operator()
    lam = record.eigvals
    rates = lam[:, None] + lam[None, :]
    phi = np.full_like(rates, tbar)
    nonzero = rates != 0.0
    phi[nonzero] = np.expm1(rates[nonzero] * tbar) / rates[nonzero]
    cores = [g @ g.T * phi for g in (record.xb, record.cx.T)]
    return cores, [root for _, root in record.gramians(tbar)]


def test_pivoted_cholesky_rejects_indefinite():
    # the first pivot leaves 1 - 2^2 = -3 on the diagonal
    c = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPsdError, match="Q has a pivoted Cholesky remainder -3"):
        _pivoted_cholesky(np.diag(c), lambda j: c[:, j], "Q")


def test_pivoted_cholesky_of_a_zero_generator_has_rank_zero():
    heat = generate_heat_model(10, 2, 2)
    sys = StateSpaceSystem(A=heat.A, B=np.zeros((10, 2)), C=heat.C)
    gset = time_limited_gramians(sys, 0.05)
    assert gset.lowrank_P.shape == (10, 0)
    with pytest.raises(ValueError, match="degenerate Gramian pair"):
        balance(gset, sys)


def test_pivoted_cholesky_where_rates_cancel():
    # lambda = 1, -1, -2: l_i + l_j = 0 for the first two, where Phi = tbar
    rng = np.random.default_rng(7)
    sys = StateSpaceSystem(A=np.diag([1.0, -1.0, -2.0]), B=rng.standard_normal((3, 2)),
                           C=rng.standard_normal((2, 3)))
    for core, root in zip(*closed_form_cores(sys, 0.5)):
        assert np.linalg.norm(root @ root.T - core) <= 1e-13 * np.linalg.norm(core)


def test_dense_cholesky_refuses_an_indefinite_part_with_a_small_diagonal():
    # the coupling of the two tiny entries makes C indefinite, yet the
    # first pivot leaves a diagonal that sums below the stop on the trace
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1e-13, 1e-6], [0.0, 1e-6, 1e-13]])
    assert _pivoted_cholesky(np.diag(c), lambda j: c[j], "P").shape == (3, 1)
    with pytest.raises(NotPsdError, match="P is off its pivoted Cholesky factor's product"):
        _dense_cholesky(c, "P")


@pytest.mark.parametrize("sys", [generate_heat_model(50, 7, 6), fem_rod(30, 7, 6)], ids=["gen-50", "fem-30"])
def test_pivoted_cholesky_stops_on_the_trace(sys):
    for core, root in zip(*closed_form_cores(sys, 0.05)):
        remainder = core - root @ root.T
        assert np.trace(remainder) <= 1e-12 * np.max(np.diag(core))
        assert np.linalg.norm(remainder, 2) <= 1e-12 * np.linalg.norm(core, 2)


# _require_separated

def _spectrum(eigvals, norm2):
    """A stand-in for a Schur form or an operator record: the check reads
    only ``eigvals`` and ``norm2``."""
    return types.SimpleNamespace(eigvals=np.asarray(eigvals, dtype=complex), norm2=norm2)


def _separation_error(s1, s2) -> str:
    with pytest.raises(SpectrumSeparationError) as info:
        tlbt.linalg._require_separated(s1, s2, "what")
    return str(info.value)


def test_separation_scalar_stable_pair():
    # |-1 + -1| = 2 against the tolerance 1e-8 (1 + 1)
    s = tlbt.linalg._schur_form(np.array([[-1.0]]))
    assert tlbt.linalg._require_separated(s, s, "what") is None


def test_separation_exact_cancellation():
    s1 = tlbt.linalg._schur_form(np.array([[-3.0]]))
    s2 = tlbt.linalg._schur_form(np.array([[3.0]]))
    assert _separation_error(s1, s2) == (
        "what: eigenvalue pair lambda=-3+0j, mu=3+0j has |lambda + mu| = 0.000e+00 "
        "<= tolerance 6.000e-08; the equation has no unique solution")


def test_separation_enumerates_pairs():
    # min |lambda + mu| over the pairs is |-1 + -4| = 5: a tolerance just
    # below it passes, one just above it names that pair
    lam, mu = [-1.0, -2.0], [-4.0]
    tlbt.linalg._require_separated(_spectrum(lam, 2.49999e8), _spectrum(mu, 2.5e8), "what")
    message = _separation_error(_spectrum(lam, 2.50001e8), _spectrum(mu, 2.5e8))
    assert "lambda=-1+0j, mu=-4+0j has |lambda + mu| = 5.000e+00 <= tolerance 5.000e+00" in message


def test_separation_nonnegative_and_threshold():
    message = _separation_error(_spectrum([-1.0, -2.0], 2e8), _spectrum([-4.0], 4e8))
    assert "|lambda + mu| = 5.000e+00 <= tolerance 6.000e+00" in message


def test_one_raiser_per_spectral_condition():
    # the solvers, the bound's hypotheses and every Hurwitz requirement go
    # through these two checks, so a message or tolerance lives in one place
    sites = []
    for path in sorted(Path(tlbt.linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk reaches an outer function before its inner ones, so
        # each node ends up owned by its innermost function
        owner = {node: func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) in ("SpectrumSeparationError", "StabilityError"):
                    sites.append((exc.id, f"{path.stem}.{owner.get(node, '<module>')}"))
    assert sorted(sites) == [("SpectrumSeparationError", "linalg._require_separated"),
                             ("StabilityError", "linalg._require_hurwitz")]


# blocked Bartels-Stewart kernel

def _rand_complex_stable(n, rng):
    """Random stable matrix whose spectrum has complex pairs."""
    a = rng.standard_normal((n, n)) / math.sqrt(n) - 2.0 * np.eye(n)
    assert np.any(np.linalg.eigvals(a).imag != 0)
    return a


def _quasi_triangular(n, blocks, rng):
    """Upper quasi-triangular matrix in standardized real Schur form with
    2x2 diagonal blocks [[a, b], [c, a]] (b c < 0) starting at ``blocks``."""
    t = np.triu(rng.standard_normal((n, n))) / math.sqrt(n)
    t[np.diag_indices(n)] = -rng.uniform(1.0, 3.0, size=n)
    for i in blocks:
        t[i + 1, i + 1] = t[i, i]
        t[i, i + 1] = rng.uniform(0.5, 2.0)
        t[i + 1, i] = -rng.uniform(0.5, 2.0)
    return t


@pytest.mark.parametrize("n", [1, 7, 33, 64])
def test_lyapunov_bitwise_equal_to_scipy_up_to_64(n):
    rng = np.random.default_rng(n)
    a = _rand_complex_stable(n, rng) if n > 1 else np.array([[-1.5]])
    g = rng.standard_normal((n, n))
    w = g + g.T
    ref = sla.solve_continuous_lyapunov(a, w)
    assert np.array_equal(solve_lyapunov(a, w), (ref + ref.T) / 2.0)
    ref_t = sla.solve_continuous_lyapunov(a.T, w)
    assert np.array_equal(solve_lyapunov(a.T, w), (ref_t + ref_t.T) / 2.0)


@pytest.mark.parametrize("n, r", [(1, 1), (7, 3), (40, 9), (64, 64)])
def test_sylvester_bitwise_equal_to_scipy_up_to_64(n, r):
    rng = np.random.default_rng(100 * n + r)
    a1 = _rand_complex_stable(n, rng) if n > 1 else np.array([[-1.5]])
    a2 = _rand_complex_stable(r, rng) if r > 1 else np.array([[-0.5]])
    w = rng.standard_normal((n, r))
    assert np.array_equal(solve_sylvester(a1, a2, w), sla.solve_sylvester(a1, a2.T, w))


@pytest.mark.parametrize("n", [65, 130, 257])
def test_blocked_lyapunov_matches_scipy(n):
    rng = np.random.default_rng(n)
    a = _rand_complex_stable(n, rng)
    g = rng.standard_normal((n, n))
    w = g + g.T
    for op in (a, a.T):  # A^T is the observability (Q) equation
        x = solve_lyapunov(op, w)
        assert np.linalg.norm(op @ x + x @ op.T - w) <= 1e-10 * np.linalg.norm(w)
        ref = sla.solve_continuous_lyapunov(op, w)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, r", [(130, 9), (257, 9), (65, 130)])
def test_blocked_sylvester_matches_scipy(n, r):
    rng = np.random.default_rng(n + r)
    a1 = _rand_complex_stable(n, rng)
    a2 = _rand_complex_stable(r, rng)
    w = rng.standard_normal((n, r))
    x = solve_sylvester(a1, a2, w)
    assert np.linalg.norm(a1 @ x + x @ a2.T - w) <= 1e-10 * np.linalg.norm(w)
    ref = sla.solve_sylvester(a1, a2.T, w)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_blocked_kernel_never_splits_a_2x2_block():
    n = 130
    rng = np.random.default_rng(7)
    # 2x2 blocks straddle the midpoint 65 and the next split points
    t = _quasi_triangular(n, [64, 31, 97, 10], rng)
    assert t[n // 2, n // 2 - 1] != 0.0
    f = rng.standard_normal((n, n))
    y = _trsyl(t, t, f, "test")
    assert np.linalg.norm(t @ y + y @ t.T - f) <= 1e-12 * np.linalg.norm(f)
    ref, scale, info = sla.lapack.dtrsyl(t, t, f, tranb="T")
    assert (scale, info) == (1.0, 0)
    assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)


def test_mirrored_pair_message_is_unchanged():
    expected = ("solve_lyapunov: eigenvalue pair lambda=2+0j, mu=-2+0j has |lambda + mu| = "
                "0.000e+00 <= tolerance 4.000e-08; the equation has no unique solution")
    with pytest.raises(SpectrumSeparationError, match=f"^{re.escape(expected)}$"):
        solve_lyapunov(np.diag([2.0, -1.0, -2.0]), np.eye(3))
    expected = ("solve_sylvester: eigenvalue pair lambda=-1+3j, mu=1-3j has |lambda + mu| = "
                "0.000e+00 <= tolerance 6.325e-08; the equation has no unique solution")
    with pytest.raises(SpectrumSeparationError, match=f"^{re.escape(expected)}$"):
        solve_sylvester([[-1.0, 3.0], [-3.0, -1.0]], [[1.0, -3.0], [3.0, 1.0]], np.ones((2, 2)))


def test_kernel_rejects_a_perturbed_solve():
    # |a + b| = 0: dtrsyl perturbs the pivot and reports info = 1
    with pytest.raises(ArithmeticError, match="solve_lyapunov: dtrsyl perturbed"):
        _trsyl(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]), "solve_lyapunov")
    # the solution 1e300 / 2e-200 overflows: dtrsyl scales it down
    with pytest.raises(ArithmeticError, match="scale = "):
        _trsyl(np.array([[1e-200]]), np.array([[1e-200]]), np.array([[1e300]]), "solve_sylvester")


def test_kernel_reports_an_illegal_argument(monkeypatch):
    def bad_trsyl(a, b, c, **kwargs):
        return np.zeros_like(c), 1.0, -3
    monkeypatch.setattr(tlbt.linalg.sla.lapack, "dtrsyl", bad_trsyl)
    with pytest.raises(ValueError, match="argument 3"):
        solve_lyapunov([[-1.0]], [[1.0]])


# the eigenbasis exponential

def test_exp_finite_is_numpys_exp_at_and_above_the_floor():
    x = np.concatenate(([tlbt.linalg._EXP_FLOOR, 0.0, 709.0],
                        np.random.default_rng(6).uniform(tlbt.linalg._EXP_FLOOR, 709.0, (64, 800)).ravel()))
    assert np.array_equal(tlbt.linalg._exp_finite(x.copy()), np.exp(x))


def test_exp_finite_is_an_exact_zero_below_the_floor():
    # np.exp returns subnormal numbers on [-745, -708.4]; none comes out here
    floor = tlbt.linalg._EXP_FLOOR
    below = np.array([np.nextafter(floor, -np.inf), -709.0, -720.0, -745.0, -746.0, -1e300])
    assert np.all(np.exp(below[1:4]) < np.finfo(float).tiny) and np.all(np.exp(below[1:4]) > 0.0)
    above = np.linspace(floor, -floor, below.size)
    got = tlbt.linalg._exp_finite(np.stack([below, above]))
    assert np.all(got[0] == 0.0) and not np.any(np.signbit(got[0]))
    assert np.array_equal(got[1], np.exp(above))


def test_exp_finite_works_in_place():
    x = np.array([[-800.0, -1.0], [0.0, 2.0]])
    assert tlbt.linalg._exp_finite(x) is x
    assert np.array_equal(x, [[0.0, math.exp(-1.0)], [1.0, math.exp(2.0)]])


def test_exp_finite_raises_on_overflow():
    with pytest.raises(OverflowError, match="exponential overflowed"):
        tlbt.linalg._exp_finite(np.array([-800.0, 0.0, 710.0]))


# the error bound's quadrature mesh

@pytest.mark.parametrize("levels", [0, 3])
def test_mesh_samples_match_per_node_exponentials(levels):
    rng = np.random.default_rng(4)
    a = rand_stable(10, 2, 3, rng).A
    b, c = rng.standard_normal((10, 2)), rng.standard_normal((3, 10))
    tbar = 0.7
    nodes = [tlbt.linalg._mesh_nodes(tbar, levels, coarse) for coarse in (False, True)]
    base = tlbt.linalg._mesh_exponentials(a, tbar, levels)[1]
    fine, coarse, energy = tlbt.linalg._mesh_samples(base, b, c, levels, [w for _, w in nodes])
    want_energy = 0.0
    for got, (times, roots) in ((fine, nodes[0]), (coarse, nodes[1])):
        # the weights sum to tbar
        assert np.sum(roots[:, :, None] ** 2 * np.ones(times.shape)) == pytest.approx(tbar, rel=1e-14, abs=0.0)
        assert got.shape == times.shape[:2] + (3, 2 * times.shape[2])
        for (run, node, panel), t in np.ndenumerate(times):
            block = sla.expm(a * t) @ b
            want = roots[run, node] * (c @ block)
            sample = got[run, node, :, 2 * panel:2 * panel + 2]
            assert np.linalg.norm(sample - want) <= 1e-12 * np.linalg.norm(want)
            if got is fine:
                want_energy += roots[run, node] ** 2 * np.sum(block**2)
    assert energy == pytest.approx(want_energy, rel=1e-12, abs=0.0)


def test_mesh_samples_of_a_stiff_transport_operator():
    # upwind transport from the inputs to the outputs: the kernel stays
    # below 1e-40 of its peak for a while, and squaring up the finest
    # exponentials meets entries that would underflow. Those are flushed,
    # which costs no more than rounding against the largest sample.
    heat = generate_heat_model(30, 2, 3)
    a = heat.A + 20.0 * (np.eye(30, k=-1) - np.eye(30))
    tbar = 0.5
    levels = tlbt.linalg._mesh_levels(tbar, np.linalg.norm(a, 2))
    assert levels == 8
    nodes = [tlbt.linalg._mesh_nodes(tbar, levels, coarse) for coarse in (False, True)]
    base = tlbt.linalg._mesh_exponentials(a, tbar, levels)[1]
    got = tlbt.linalg._mesh_samples(base, heat.B, heat.C, levels, [w for _, w in nodes])
    want_energy = 0.0
    for samples, (times, roots) in zip(got, nodes):
        want = np.empty(samples.shape)
        for (run, node, panel), t in np.ndenumerate(times):
            block = sla.expm(a * t) @ heat.B
            want[run, node, :, 2 * panel:2 * panel + 2] = roots[run, node] * (heat.C @ block)
            if samples is got[0]:
                want_energy += roots[run, node] ** 2 * np.sum(block**2)
        assert np.max(np.abs(samples - want)) <= 1e-12 * np.max(np.abs(want))
    assert got[2] == pytest.approx(want_energy, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda: tlbt.linalg.as_matrix(np.ones(3), "B"), DimensionError, "B must be 2-dimensional, got shape (3,)"),
    (lambda: tlbt.linalg.as_matrix(np.zeros((0, 2)), "C"), DimensionError,
     "C must have at least one row and one column, got shape (0, 2)"),
    (lambda: tlbt.linalg.as_matrix([[1.0, math.inf]], "E"), ValueError, "E contains non-finite entries"),
    (lambda: expm(-np.eye(2), math.nan), ValueError, "t must be finite, got nan"),
    (lambda: tlbt.linalg._mesh_exponentials(np.array([[1e4]]), 1e3, 0), OverflowError,
     "matrix exponential overflowed on the kernel mesh (tbar = 1000)"),
])
def test_refusal_names_its_fault(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc


def test_lyapunov_residual_refused_on_a_non_normal_chain():
    # A = -I + 1000 N (N the shift) has one eigenvalue, -1, so the
    # separation check passes; its Gramian entries grow like 1000^(2n-2),
    # and the solve misses its equation by far more than 1e-10
    n = 6
    sys = StateSpaceSystem(-np.eye(n) + 1000.0 * np.eye(n, k=1), np.ones((n, 1)), np.ones((1, n)))
    with pytest.raises(ArithmeticError, match=r"solve_lyapunov: relative residual \S+ exceeds 1e-10") as info:
        tlbt.gramians.infinite_gramians(sys)
    assert type(info.value) is ArithmeticError
