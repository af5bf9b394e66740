import ast
import json
import math
import os
import re
import subprocess
import sys as sys_module
from pathlib import Path

import numpy as np
import pytest

from conftest import fem_rod
from oracles import apply_state_transform, random_piecewise_constant
import tlbt.balancing
import tlbt.bounds
import tlbt.gramians
import tlbt.linalg
import tlbt.systems
from tlbt.balancing import balance
from tlbt.errors import DimensionError
from tlbt.gramians import time_limited_gramians
from tlbt.linalg import _mesh_levels, _schur_form, expm
from tlbt.mmio import write_matrix
from tlbt.systems import (
    InputSignal,
    StateSpaceSystem,
    _EigenRecord,
    _SchurRecord,
    generate_heat_model,
    load_system,
)


def write_manifest(tmp_path, a, b, c, e=None):
    write_matrix(tmp_path / "A.mtx", np.atleast_2d(a))
    write_matrix(tmp_path / "B.mtx", np.atleast_2d(b))
    write_matrix(tmp_path / "C.mtx", np.atleast_2d(c))
    mapping = {"A": "A.mtx", "B": "B.mtx", "C": "C.mtx"}
    if e is not None:
        write_matrix(tmp_path / "E.mtx", np.atleast_2d(e))
        mapping["E"] = "E.mtx"
    manifest = tmp_path / "model.json"
    manifest.write_text(json.dumps(mapping))
    return manifest


class TestStateSpaceSystem:
    def test_dimensions_and_defaults(self):
        sys = StateSpaceSystem(A=[[-1.0, 0.0], [0.0, -2.0]], B=[[1.0], [0.0]], C=[[0.0, 1.0]])
        assert (sys.n, sys.m, sys.p) == (2, 1, 1)
        assert sys.E is None
        assert sys.name == "system"

    def test_arrays_are_immutable(self):
        sys = StateSpaceSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0

    def test_keeps_a_read_only_array_that_owns_its_data(self):
        a = -np.eye(3)
        a.flags.writeable = False
        sys = StateSpaceSystem(A=a, B=np.ones((3, 1)), C=np.ones((1, 3)))
        assert sys.A is a

    @pytest.mark.parametrize("source", ["writable", "view"])
    def test_copies_a_writable_array_or_a_view(self, source):
        owner = -np.eye(3)
        a = owner if source == "writable" else owner[:, :]
        a.flags.writeable = source == "writable"
        sys = StateSpaceSystem(A=a, B=np.ones((3, 1)), C=np.ones((1, 3)))
        assert sys.A is not a and not sys.A.flags.writeable
        owner[0, 0] = 5.0
        assert np.array_equal(sys.A, -np.eye(3))

    def test_b_row_mismatch_names_b(self):
        with pytest.raises(DimensionError, match="B has 1 rows"):
            StateSpaceSystem(A=np.diag([-1.0, -2.0]), B=[[1.0]], C=[[1.0, 0.0]])

    def test_nonsquare_a_rejected(self):
        with pytest.raises(DimensionError, match="square"):
            StateSpaceSystem(A=np.ones((2, 3)), B=np.ones((2, 1)), C=np.ones((1, 3)))

    def test_singular_e_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            StateSpaceSystem(A=[[-1.0, 0.0], [0.0, -1.0]], B=np.ones((2, 1)), C=np.ones((1, 2)), E=np.zeros((2, 2)))

    def test_condition_of_a_symmetric_e_comes_from_its_eigenvalues(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.cond called on a symmetric E")

        monkeypatch.setattr(np.linalg, "cond", no_svd)
        a, b, c = -np.eye(3), np.ones((3, 1)), np.ones((1, 3))
        assert StateSpaceSystem(A=a, B=b, C=c, E=np.diag([1.0, 2e-12, -1.0])).E is not None
        with pytest.raises(ValueError, match=r"singular \(condition estimate 2\.000e\+13\)"):
            StateSpaceSystem(A=a, B=b, C=c, E=np.diag([2.0, 1e-13, -1.0]))

    def test_compares_and_hashes_by_identity(self):
        s, twin = generate_heat_model(5, 1, 1), generate_heat_model(5, 1, 1)
        assert s == s and not s == twin and s != twin
        assert {s: 1}[s] == 1 and twin not in {s: 1}

    def test_condition_of_a_nonsymmetric_e_keeps_the_svd(self):
        e = np.array([[1.0, 1e13], [0.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape(f"condition estimate {np.linalg.cond(e):.3e}")):
            StateSpaceSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), E=e)

    def test_condition_of_a_toeplitz_e_comes_from_its_symbol(self, monkeypatch):
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called on a tridiagonal Toeplitz E")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert fem_rod(30, 7, 6).E is not None
        # tridiag(1, 1, 1) of order 20: the symbol 1 + 2 cos(14 pi / 21) is 0 to rounding
        a, b, c = -np.eye(20), np.ones((20, 1)), np.ones((1, 20))
        with pytest.raises(ValueError, match="singular"):
            StateSpaceSystem(A=a, B=b, C=c, E=np.eye(20, k=1) + np.eye(20) + np.eye(20, k=-1))


class TestLoadSystem:
    def test_scalar_round_trip(self, tmp_path):
        manifest = write_manifest(tmp_path, [[-3.0]], [[2.0]], [[7.0]])
        sys = load_system(manifest)
        assert sys.A[0, 0] == -3.0
        assert sys.B[0, 0] == 2.0
        assert sys.C[0, 0] == 7.0
        assert sys.name == "model"

    def test_mass_matrix_loaded(self, tmp_path):
        manifest = write_manifest(tmp_path, [[-1.0]], [[1.0]], [[1.0]], e=[[4.0]])
        assert load_system(manifest).E[0, 0] == 4.0

    def test_coordinate_zero_entry_survives(self, tmp_path):
        write_matrix(tmp_path / "A.mtx", [[-1.0]])
        (tmp_path / "B.mtx").write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0\n")
        write_matrix(tmp_path / "C.mtx", [[1.0]])
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"A": "A.mtx", "B": "B.mtx", "C": "C.mtx"}))
        assert load_system(manifest).B[0, 0] == 0.0

    def test_missing_role_rejected(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"A": "A.mtx", "B": "B.mtx"}))
        with pytest.raises(ValueError, match="missing required roles: C"):
            load_system(manifest)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_system(tmp_path / "absent.json")

    def test_keeps_the_matrices_it_read_without_a_copy(self, tmp_path, monkeypatch):
        read, original = [], tlbt.mmio.read_matrix

        def reading(path):
            read.append(original(path))
            return read[-1]

        rng = np.random.default_rng(5)
        manifest = write_manifest(tmp_path, -np.eye(4) + 0.1 * rng.standard_normal((4, 4)),
                                  rng.standard_normal((4, 2)), rng.standard_normal((3, 4)), e=2.0 * np.eye(4))
        monkeypatch.setattr(tlbt.systems.mmio, "read_matrix", reading)
        sys = load_system(manifest)
        assert len(read) == 4 and all(x is y for x, y in zip((sys.A, sys.B, sys.C, sys.E), read))

    @pytest.mark.parametrize("role, value", [("C", 5), ("E", 0), ("E", False), ("B", ["B.mtx"])])
    def test_value_that_names_no_file_is_refused_with_its_role(self, tmp_path, role, value):
        manifest = write_manifest(tmp_path, [[-1.0]], [[1.0]], [[1.0]])
        mapping = json.loads(manifest.read_text())
        mapping[role] = value
        manifest.write_text(json.dumps(mapping))
        with pytest.raises(ValueError, match=re.escape(f"{manifest}: role {role!r} must name a file, got {value!r}")):
            load_system(manifest)

    def test_null_mass_matrix_means_none(self, tmp_path):
        manifest = write_manifest(tmp_path, [[-1.0]], [[1.0]], [[1.0]])
        mapping = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(dict(mapping, E=None)))
        assert load_system(manifest).E is None
        assert load_system(dict(A=tmp_path / "A.mtx", B=tmp_path / "B.mtx", C=tmp_path / "C.mtx", E=None)).E is None

    def test_mapping_input(self, tmp_path):
        write_manifest(tmp_path, [[-1.0]], [[1.0]], [[1.0]])
        mapping = {"A": str(tmp_path / "A.mtx"), "B": str(tmp_path / "B.mtx"), "C": str(tmp_path / "C.mtx")}
        sys = load_system(mapping)
        assert sys.name == "system"
        assert sys.n == 1


class TestHeatModel:
    def test_small_instance_exact(self):
        sys = generate_heat_model(3, 1, 1)
        assert np.array_equal(sys.A, 16.0 * np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]]))
        assert np.array_equal(sys.B, [[1.0], [0.0], [0.0]])
        assert np.array_equal(sys.C, [[0.0, 0.0, 1.0]])
        assert sys.name == "heat-3-1-1"

    def test_symmetric_negative_definite(self, rng):
        sys = generate_heat_model(20, 7, 6)
        assert np.array_equal(sys.A, sys.A.T)
        for _ in range(10):
            x = rng.standard_normal(20)
            assert x @ sys.A @ x < 0

    def test_deterministic(self):
        s1 = generate_heat_model(12, 3, 2)
        s2 = generate_heat_model(12, 3, 2)
        assert np.array_equal(s1.A, s2.A)
        assert np.array_equal(s1.B, s2.B)
        assert np.array_equal(s1.C, s2.C)

    @pytest.mark.parametrize("n, m, p", [(3, 1, 1), (3, 3, 3), (10, 4, 7), (12, 12, 1), (50, 7, 6)])
    def test_io_matrices_are_the_identity_slices(self, n, m, p):
        # B is the first m columns of the n x n identity and C its last p rows, bit for bit
        sys = generate_heat_model(n, m, p)
        for got, want in ((sys.B, np.eye(n)[:, :m]), (sys.C, np.eye(n)[n - p:, :])):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_allocates_one_n_by_n_array(self):
        # A is 8 MB at n = 1000; a copy of it in the system would double that
        import tracemalloc

        tracemalloc.start()
        try:
            sys = generate_heat_model(1000, 7, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys.A.shape == (1000, 1000) and peak < 12e6

    def test_io_dimension_validation(self):
        with pytest.raises(ValueError, match="m must be in"):
            generate_heat_model(5, 6, 1)
        with pytest.raises(ValueError, match="p must be in"):
            generate_heat_model(5, 1, 0)
        with pytest.raises(ValueError, match="n must be at least 3"):
            generate_heat_model(2, 1, 1)


class TestStateTransform:
    def test_identity_is_noop(self):
        sys = generate_heat_model(4, 2, 2)
        out = apply_state_transform(sys, np.eye(4))
        assert np.allclose(out.A, sys.A, atol=1e-14)
        assert np.array_equal(out.B, sys.B)
        assert np.array_equal(out.C, sys.C)

    def test_scalar_scaling(self, scalar_system):
        out = apply_state_transform(scalar_system, [[2.0]])
        assert out.A[0, 0] == pytest.approx(-1.0)
        assert out.B[0, 0] == pytest.approx(2.0)
        assert out.C[0, 0] == pytest.approx(0.5)

    def test_round_trip(self, rng):
        sys = generate_heat_model(6, 2, 2)
        s = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        back = apply_state_transform(apply_state_transform(sys, s), np.linalg.inv(s))
        assert np.allclose(back.A, sys.A, atol=1e-12)
        assert np.allclose(back.B, sys.B, atol=1e-12)
        assert np.allclose(back.C, sys.C, atol=1e-12)

    def test_singular_transform_rejected(self):
        sys = generate_heat_model(3, 1, 1)
        with pytest.raises(ValueError, match="singular"):
            apply_state_transform(sys, np.zeros((3, 3)))

    def test_mass_matrix_system_rejected(self):
        sys = StateSpaceSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]], E=[[2.0]])
        with pytest.raises(ValueError, match="mass matrix"):
            apply_state_transform(sys, [[1.0]])


class TestInputSignal:
    def test_star_at_zero(self):
        u = InputSignal.star()
        assert u.m == 7
        assert np.allclose(u(0.0), [0.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1.0], atol=1e-15)

    def test_star_components_decay(self):
        u = InputSignal.star()
        v = u(50.0)
        assert v[2] == 3.0
        assert abs(v[3]) < 1e-40
        assert v[6] == pytest.approx(1.0 / (1.0 + math.sqrt(50.0)))

    def test_constant_vector(self):
        u = InputSignal.constant(50.0 * np.ones(7))
        assert u.m == 7
        assert np.array_equal(u(0.0), 50.0 * np.ones(7))
        assert np.array_equal(u(123.4), 50.0 * np.ones(7))

    def test_zero(self):
        u = InputSignal.zero(3)
        assert np.array_equal(u(2.0), np.zeros(3))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t >= 0"):
            InputSignal.zero(1)(-0.5)

    def test_table_interpolates_and_extrapolates(self):
        u = InputSignal.from_table([0.0, 1.0, 2.0], [[0.0, 4.0], [1.0, 2.0], [3.0, 0.0]])
        assert u.m == 2
        assert np.allclose(u(0.5), [0.5, 3.0])
        assert np.allclose(u(1.5), [2.0, 1.0])
        assert np.allclose(u(10.0), [3.0, 0.0])

    def test_table_requires_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            InputSignal.from_table([0.0, 0.0], [[1.0], [2.0]])

    def test_table_nan_timestamp_reported_as_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            InputSignal.from_table([0.0, math.nan], [[1.0], [2.0]])

    def test_table_row_count_mismatch(self):
        with pytest.raises(ValueError, match="one row of values per timestamp"):
            InputSignal.from_table([0.0, 1.0], [[1.0]])

    @pytest.mark.parametrize("fields, match", [
        (dict(kind="bogus", m=3), "kind must be one of constant, star, zero, table, got 'bogus'"),
        (dict(kind="constant", m=2), "values must be given for a constant signal"),
        (dict(kind="zero", m=0), "m must be a positive integer, got 0"),
        (dict(kind="zero", m=True), "m must be a positive integer, got True"),
        (dict(kind="zero", m=2.0), "m must be a positive integer, got 2.0"),
        (dict(kind="star", m=3), "m must be 7 for the star signal, got 3"),
        (dict(kind="zero", m=1, values=[[1.0]]), "values must be absent for a zero signal"),
        (dict(kind="constant", m=1, values=[[1.0]], times=[[0.0]]), "times must be absent for a constant signal"),
        (dict(kind="table", m=1, values=[[1.0]]), "times must be given for a table signal"),
        (dict(kind="constant", m=2, values=[1.0, 2.0]), r"values must have shape \(1, 2\)"),
        (dict(kind="constant", m=1, values=[[math.inf]]), "values contains non-finite entries"),
        (dict(kind="table", m=1, values=[[1.0]], times=[0.0]), r"times must have shape \(1, k\)"),
        (dict(kind="table", m=2, values=[[1.0]], times=[[0.0]]), "one row of values per timestamp and 2 columns"),
        (dict(kind="table", m=1, values=[[1.0]], times=[[-1.0]]), "times must be nonnegative"),
    ])
    def test_fields_are_validated(self, fields, match):
        with pytest.raises(ValueError, match=match):
            InputSignal(**fields)

    def test_empty_constant_rejected(self):
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            InputSignal.constant([])


def star_reference(t):
    return [math.sin(4.0 * t * math.pi / 100.0), math.cos(t * math.pi / 100.0), 3.0,
            math.exp(-2.0 * t), math.cos(t / 100.0) * math.exp(-t), 1.0 / (1.0 + t * t),
            1.0 / (1.0 + math.sqrt(t))]


SIGNALS = {
    "constant": InputSignal.constant([1.5, -2.0, 0.25]),
    "zero": InputSignal.zero(4),
    "star": InputSignal.star(),
    "table": InputSignal.from_table([0.0, 0.3, 1.0, 2.5], [[0.0, 4.0], [1.0, 2.0], [3.0, 0.0], [-1.0, 5.0]]),
}


class TestInputSignalSample:
    # knots 0.3, 1.0 and 2.5 of the table lie on the grid; 3.0 and 7.0 lie past its last sample
    GRID = np.array([0.0, 0.1, 0.3, 0.75, 1.0, 1.6, 2.5, 3.0, 7.0])

    @pytest.mark.parametrize("kind", sorted(SIGNALS))
    def test_matches_evaluate(self, kind):
        u = SIGNALS[kind]
        values = u.sample(self.GRID)
        assert values.shape == (self.GRID.size, u.m)
        for t, row in zip(self.GRID, values):
            assert np.array_equal(row, u.evaluate(t))
            assert np.array_equal(row, u(t))

    def test_table_matches_scalar_interpolation(self):
        u = SIGNALS["table"]
        values = u.sample(self.GRID)
        for j in range(u.m):
            expected = [np.interp(t, u.times[0], u.values[:, j]) for t in self.GRID]
            assert np.array_equal(values[:, j], expected)
        assert np.array_equal(values[[2, 4, 6]], u.values[1:])
        assert np.array_equal(values[-2:], np.repeat(u.values[-1:], 2, axis=0))

    def test_star_matches_scalar_formula(self):
        values = SIGNALS["star"].sample(self.GRID)
        expected = np.array([star_reference(t) for t in self.GRID])
        assert np.allclose(values, expected, rtol=1e-15, atol=1e-300)

    @pytest.mark.parametrize("kind", sorted(SIGNALS))
    def test_empty_grid(self, kind):
        u = SIGNALS[kind]
        assert u.sample([]).shape == (0, u.m)

    @pytest.mark.parametrize("kind", sorted(SIGNALS))
    def test_negative_time_rejected(self, kind):
        with pytest.raises(ValueError, match="t >= 0"):
            SIGNALS[kind].sample([0.0, 1.0, -1e-3])

    @pytest.mark.parametrize("kind", sorted(SIGNALS))
    def test_nan_time_rejected(self, kind):
        with pytest.raises(ValueError, match="t >= 0, got t = nan"):
            SIGNALS[kind].sample([0.0, math.nan, 1.0])
        with pytest.raises(ValueError, match="finite t >= 0, got t = inf"):
            SIGNALS[kind].sample([0.0, math.inf, 1.0])


def table_l2_norm_sq(u, tbar):
    # exact integral of the squared piecewise-linear interpolant
    ts = u.times[0]
    vs = u.values
    total = 0.0
    for k in range(len(ts) - 1):
        w = ts[k + 1] - ts[k]
        a = vs[k]
        b = vs[k + 1]
        total += w / 3.0 * float(np.sum(a * a + a * b + b * b))
    total += (tbar - ts[-1]) * float(np.sum(vs[-1] ** 2))
    return total


class TestRandomPiecewiseConstant:
    def test_unit_l2_norm(self, rng):
        tbar = 2.5
        u = random_piecewise_constant(3, tbar, blocks=8, rng=rng)
        assert u.kind == "table"
        assert u.m == 3
        assert table_l2_norm_sq(u, tbar) == pytest.approx(1.0, abs=1e-6)

    def test_values_constant_inside_blocks(self):
        rng = np.random.default_rng(7)
        u = random_piecewise_constant(2, 1.0, blocks=4, rng=rng)
        width = 0.25
        for i in range(4):
            left = u(i * width + 0.1 * width)
            right = u(i * width + 0.9 * width)
            assert np.array_equal(left, right)

    def test_deterministic_given_seed(self):
        u1 = random_piecewise_constant(2, 1.0, 5, np.random.default_rng(42))
        u2 = random_piecewise_constant(2, 1.0, 5, np.random.default_rng(42))
        assert np.array_equal(u1.values, u2.values)
        assert np.array_equal(u1.times, u2.times)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="blocks"):
            random_piecewise_constant(1, 1.0, 0, rng)
        with pytest.raises(ValueError, match="tbar"):
            random_piecewise_constant(1, -1.0, 3, rng)


def propagators(record, tbar):
    """F = X_P (X_Q^T F) and G = (G X_P) X_Q^T, lifted from the record's
    coordinates."""
    f, g = record.core_propagators(tbar)
    return record.bases[0] @ f, g @ record.bases[1].T


def assert_records_answer_alike(sys, got, want):
    """Every call of two records of one system agrees to 1e-10 relative."""
    tbar = 0.05

    def close(x, y):
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)

    def dense(gramians):
        return [(basis @ root) @ (basis @ root).T for basis, root in gramians]

    pairs = [(dense(got.gramians(h)), dense(want.gramians(h))) for h in (tbar, math.inf)]
    pairs.append((propagators(got, tbar), propagators(want, tbar)))
    for x_pair, y_pair in pairs:
        for x, y in zip(x_pair, y_pair):
            close(x, y)
    bal = balance(time_limited_gramians(sys, tbar), sys).reduce_to(5)
    # each record projects onto the same W and V, moved into its own coordinates
    (a11, b1, c1), projected = (rec.project(rec.core((None, bal.W), 1), rec.core((None, bal.V), 0))
                                for rec in (got, want))
    close(a11, projected[0])
    close(b1, projected[1])
    close(c1, projected[2])
    s11 = _schur_form(a11)
    for h, fr in ((tbar, expm(a11, tbar) @ b1), (math.inf, None)):
        close(*(rec.bases[0] @ rec.mixed(s11, b1, fr, h) for rec in (got, want)))
    levels = _mesh_levels(tbar, got.norm2)
    for x, y in zip(got.kernel_samples(tbar, levels)[1:3], want.kernel_samples(tbar, levels)[1:3]):
        assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))


@pytest.mark.parametrize("sys", [generate_heat_model(40, 7, 6), fem_rod(30, 7, 6), generate_heat_model(200, 7, 6)],
                         ids=["gen-40", "fem-mass-30", "gen-200"])
def test_eigen_and_schur_records_answer_alike(sys):
    # the Schur record is built beside the eigen record that the
    # symmetric-definite model gets; every call must agree
    eig = sys._operator()
    assert isinstance(eig, _EigenRecord)
    assert_records_answer_alike(sys, eig, _SchurRecord(sys))


def kernel_exponentials(monkeypatch, sys, tbar):
    """The eigen record's kernel samples of sys on [0, tbar], the mesh
    nodes of each exponential it took (fine and coarse run by run, in
    time order), and that exponential's number of modes (last axis) and
    whether its argument reached below the floor."""
    calls, real = [], tlbt.systems._exp_finite

    def spy(x):
        calls.append((x.shape[-1], bool(np.any(x < tlbt.linalg._EXP_FLOOR))))
        return real(x)

    monkeypatch.setattr(tlbt.systems, "_exp_finite", spy)
    record = sys._operator()
    assert isinstance(record, _EigenRecord)
    levels = _mesh_levels(tbar, record.norm2)
    fine, coarse = (tlbt.linalg._mesh_nodes(tbar, levels, c)[0] for c in (False, True))
    runs = [nodes for pair in zip(fine, coarse) for nodes in pair]
    samples = record.kernel_samples(tbar, levels)
    assert len(calls) == len(runs)
    return samples, runs, calls


def test_kernel_samples_drop_the_modes_below_the_exponential_floor(monkeypatch):
    # gen:200 at T = 0.05 reaches lambda s = -8080: most mesh runs drop
    # the modes below the floor at their first node, hence at all of
    # their nodes, and keep the others; the bound adds what the dropped
    # ones could contribute
    sys = generate_heat_model(200, 7, 6)
    samples, runs, calls = kernel_exponentials(monkeypatch, sys, 0.05)
    lam = sys._operator().eigvals
    for nodes, (width, _) in zip(runs, calls):
        live = sys.n - width
        assert live == 0 or lam[live - 1] * nodes.min() < tlbt.linalg._EXP_FLOOR
        assert live == sys.n or lam[live] * nodes.min() >= tlbt.linalg._EXP_FLOOR
    widths = [width for width, _ in calls]
    assert max(widths) == 200 and min(widths) < 50
    assert 0.0 < samples[4] <= 1e-300


def test_readme_model_keeps_every_mode_on_every_mesh_run(monkeypatch):
    # max |lambda| T = 520 on gen:50,7,6 at T = 0.05: no argument reaches
    # the floor, so the samples, and eps, are those of the full eigenbasis
    _, runs, calls = kernel_exponentials(monkeypatch, generate_heat_model(50, 7, 6), 0.05)
    assert calls == [(50, False)] * len(runs)


def test_eigen_record_gramian_overflow_is_reported():
    # an unstable symmetric model: e^(2 lambda tbar) overflows at tbar = 1
    heat = generate_heat_model(20, 2, 2)
    sys = StateSpaceSystem(A=-heat.A, B=heat.B, C=heat.C)
    assert isinstance(sys._operator(), _EigenRecord)
    time_limited_gramians(sys, 0.05)
    with pytest.raises(OverflowError, match="time-limited Gramian overflowed"):
        time_limited_gramians(sys, 1.0)


def test_indefinite_mass_matrix_falls_back_to_the_schur_record():
    # E = -I makes the symmetric pencil indefinite, so eigh fails and the
    # model takes the Schur record; its explicit standard form (A_std = heat.A,
    # symmetric) takes the eigen record, so the two agree only to rounding
    heat = generate_heat_model(20, 2, 2)
    sys = StateSpaceSystem(A=-heat.A, B=heat.B, C=heat.C, E=-np.eye(20))
    std = StateSpaceSystem(A=heat.A, B=-heat.B, C=heat.C)
    assert isinstance(sys._operator(), _SchurRecord)
    assert isinstance(std._operator(), _EigenRecord)
    for tbar in (0.05, 1.0):
        got, want = time_limited_gramians(sys, tbar), time_limited_gramians(std, tbar)
        for x, y in ((got.P, want.P), (got.Q, want.Q)):
            assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


def decoupled_tridiagonal(n=60):
    """A symmetric tridiagonal, negative definite A with a variable
    diagonal and one zero off-diagonal, so two decoupled blocks."""
    rng = np.random.default_rng(7)
    h2 = float((n + 1) ** 2)
    off = np.ones(n - 1)
    off[n // 2] = 0.0
    a = h2 * (np.diag(-2.0 - rng.uniform(0.1, 1.0, n)) + np.diag(off, 1) + np.diag(off, -1))
    return StateSpaceSystem(A=a, B=rng.standard_normal((n, 3)), C=rng.standard_normal((2, n)))


def scipy_eigh_calls(monkeypatch):
    """The orders of the matrices handed to scipy.linalg.eigh from now on."""
    import scipy.linalg

    eigh, calls = scipy.linalg.eigh, []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    return calls


@pytest.mark.parametrize("sys, eighs", [(generate_heat_model(80, 7, 6), 0), (decoupled_tridiagonal(), 1)],
                         ids=["gen-80", "decoupled-60"])
def test_tridiagonal_record_answers_like_the_dense_eigh(sys, eighs, monkeypatch):
    # a Toeplitz A is read from the sine basis with no eigh, and a
    # tridiagonal A that is not Toeplitz takes the dense eigh; either
    # record must agree with the one built from scipy's dense eigh of A
    import scipy.linalg

    calls = scipy_eigh_calls(monkeypatch)
    record = sys._operator()
    assert isinstance(record, _EigenRecord) and calls == [sys.n] * eighs
    assert_records_answer_alike(sys, record, _EigenRecord(sys, *scipy.linalg.eigh(sys.A)))


def row_sum_rod(n=40):
    """A = (n+1)^2 tridiag(1, -3, 1): Toeplitz, with the nonzero row sum
    d + 2o that the heat rods do not have."""
    rng = np.random.default_rng(3)
    a = float((n + 1) ** 2) * (np.eye(n, k=1) - 3.0 * np.eye(n) + np.eye(n, k=-1))
    return StateSpaceSystem(A=a, B=rng.standard_normal((n, 3)), C=rng.standard_normal((2, n)))


@pytest.mark.parametrize("sys", [fem_rod(30, 7, 6), row_sum_rod()], ids=["fem-mass-30", "row-sum-40"])
def test_sine_record_answers_like_the_dense_eigh(sys, monkeypatch):
    # a Toeplitz pencil is read from the sine basis, scaled by E's symbol
    import scipy.linalg

    calls = scipy_eigh_calls(monkeypatch)
    record = sys._operator()
    assert isinstance(record, _EigenRecord) and calls == []
    assert_records_answer_alike(sys, record, _EigenRecord(sys, *scipy.linalg.eigh(sys.A, sys.E)))


def dense_eigh_models():
    """Symmetric-definite models with no sine basis: a Toeplitz A with
    an E that is not Toeplitz, a tridiagonal A that is not Toeplitz, a
    Toeplitz band with corner entries, and n = 1."""
    rod, rows = fem_rod(20, 2, 2), row_sum_rod(20)
    e = rod.E.copy()
    e[0, 0] *= 0.5
    neumann = rod.A.copy()
    neumann[0, 0] *= 0.5
    periodic = rows.A.copy()
    periodic[0, -1] = periodic[-1, 0] = rows.A[0, 1]
    return [StateSpaceSystem(A=rod.A, B=rod.B, C=rod.C, E=e),
            StateSpaceSystem(A=neumann, B=rod.B, C=rod.C),
            StateSpaceSystem(A=periodic, B=rows.B, C=rows.C),
            StateSpaceSystem(A=[[-2.0]], B=[[1.0]], C=[[1.0]], E=[[3.0]])]


@pytest.mark.parametrize("sys", dense_eigh_models(), ids=["toeplitz-a-other-e", "neumann-a", "periodic-a", "n-1"])
def test_other_symmetric_definite_models_take_the_dense_eigh(sys, monkeypatch):
    calls = scipy_eigh_calls(monkeypatch)
    record = sys._operator()
    assert isinstance(record, _EigenRecord) and calls == [sys.n]


def test_indefinite_toeplitz_mass_matrix_takes_the_schur_record_without_eigh(monkeypatch):
    # E = tridiag(1, 1, 1) has the symbol 1 + 2 cos(k pi / 22), negative for k >= 15
    heat = generate_heat_model(21, 2, 2)
    e = np.eye(21, k=1) + np.eye(21) + np.eye(21, k=-1)
    calls = scipy_eigh_calls(monkeypatch)
    assert isinstance(StateSpaceSystem(A=heat.A, B=heat.B, C=heat.C, E=e)._operator(), _SchurRecord)
    assert calls == []


def test_tridiagonal_toeplitz_with_unequal_off_diagonals_takes_the_schur_record(monkeypatch):
    # the Toeplitz test runs before any symmetry check, so it must read
    # the lower off-diagonal too; the same holds for E
    heat = generate_heat_model(21, 2, 2)
    skewed = heat.A + float(22 ** 2) * np.eye(21, k=-1)
    e = np.eye(21, k=1) + 4.0 * np.eye(21) + 2.0 * np.eye(21, k=-1)
    calls = scipy_eigh_calls(monkeypatch)
    for a, mass in ((skewed, None), (heat.A, e)):
        assert isinstance(StateSpaceSystem(A=a, B=heat.B, C=heat.C, E=mass)._operator(), _SchurRecord)
    assert calls == []


def test_sine_eigenvalues_against_mpmath():
    # lambda_k = -4 (n+1)^2 sin^2(k pi / (2n + 2)) has no cancellation;
    # MRRR left the slowest mode 1.6e-11 off relative
    import mpmath as mp

    n = 800
    lam = generate_heat_model(n, 7, 6)._operator().eigvals
    with mp.workdps(40):
        for got, k in ((lam[0], n), (lam[-1], 1)):
            exact = -4 * (n + 1) ** 2 * mp.sin(k * mp.pi / (2 * n + 2)) ** 2
            assert abs(got - exact) <= 1e-15 * abs(exact)


def test_tridiagonal_eigenbasis_is_orthonormal():
    # the closed-form Gramians and kernel samples take X^T X = I; X is
    # applied as a transform, so its columns are X @ I
    x = generate_heat_model(800, 7, 6)._operator().x @ np.eye(800)
    assert np.linalg.norm(x.T @ x - np.eye(800)) <= 1e-12


def test_sine_basis_scales_x_by_the_mass_symbol_for_e_x():
    # the sine vectors are eigenvectors of E, so Y = E X is X diag(eps_k):
    # the same columns, each scaled by its symbol, with no n x n product;
    # Y's accuracy is checked by the products against the extended-precision matrix
    sys = fem_rod(400, 7, 6)
    record = sys._operator()
    alpha, eps = (tlbt.systems._toeplitz_symbol(t) for t in (sys.A, sys.E))
    order = np.argsort(alpha / eps, kind="stable")
    assert isinstance(record.y, tlbt.systems._SineBasis)
    assert np.array_equal(record.y.order, record.x.order) and np.array_equal(record.x.order, order)
    assert np.array_equal(record.y.scale, record.x.scale * eps[order])


def sine_reference(sys):
    """lambda, X and Y = E X of a Toeplitz pencil, from the symbols, with
    X formed in extended precision: sqrt(2 / (n+1)) sin(i k pi / (n+1))
    with i k reduced mod 2n + 2, scaled by 1 / sqrt(eps_k)."""
    n = sys.n
    alpha = tlbt.systems._toeplitz_symbol(sys.A)
    eps = np.ones(n) if sys.E is None else tlbt.systems._toeplitz_symbol(sys.E)
    order = np.argsort(alpha / eps, kind="stable")
    i = np.arange(1, n + 1)
    arg = (np.multiply.outer(i, order + 1) % (2 * n + 2)).astype(np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))
    x = np.sqrt(np.longdouble(2) / (n + 1)) * np.sin(arg * (pi / (n + 1))) / np.sqrt(eps[order].astype(np.longdouble))
    return (alpha / eps)[order], x, x * eps[order]


def extended_precision():
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double carries no extra precision here")


@pytest.mark.parametrize("make", [lambda n: generate_heat_model(n, 7, 6), lambda n: fem_rod(n, 7, 6)],
                         ids=["gen", "fem-mass"])
@pytest.mark.parametrize("n", [50, 100, 400, 512, 600, 800])
def test_sine_basis_products_against_the_extended_precision_matrix(make, n):
    # n = 600 has the prime n + 1 = 601, so the FFT of length 2(n + 1)
    # takes its slow path; each product within 1e-14 relative
    extended_precision()
    sys = make(n)
    record = sys._operator()
    assert isinstance(record.x, tlbt.systems._SineBasis)
    _, x, y = sine_reference(sys)
    rng = np.random.default_rng(n)
    for op, ref in ((record.x, x), (record.y, y)):
        for shape in ((n, 9), (n,)):
            m = rng.standard_normal(shape)
            ml = m.astype(np.longdouble)
            for got, want in ((op @ m, ref @ ml), (m.T @ op, ml.T @ ref),
                              (op.T @ m, ref.T @ ml), (m.T @ op.T, ml.T @ ref.T)):
                assert got.shape == want.shape and got.dtype == float
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("sys", [generate_heat_model(800, 7, 6), fem_rod(600, 7, 6)], ids=["gen-800", "fem-mass-600"])
def test_sine_basis_record_answers_like_the_formed_basis(sys):
    # against the record of the same basis formed as a matrix (in extended
    # precision, then rounded), not against the dense eigh, which at
    # n = 800 is itself 2.1e-10 off on the projected A11 (the operator
    # 1.1e-11)
    extended_precision()
    lam, x, y = sine_reference(sys)
    record = sys._operator()
    assert isinstance(record.x, tlbt.systems._SineBasis)
    assert_records_answer_alike(sys, record, _EigenRecord(sys, lam, x.astype(float), y.astype(float)))


def test_sine_record_is_built_without_an_n_by_n_array():
    # the peak stays below one n x n float64 array (a formed X) at every
    # order, and below 8 MB: an n x n boolean of a symmetry check takes
    # 4 MB at gen:2000, or 10 MB at gen:3200
    import tracemalloc

    for make, n in ((generate_heat_model, 100), (generate_heat_model, 400), (fem_rod, 400),
                    (generate_heat_model, 2000), (generate_heat_model, 3200)):
        sys = make(n, 7, 6)
        tracemalloc.start()
        try:
            record = sys._operator()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(record.x, tlbt.systems._SineBasis) and isinstance(record.y, tlbt.systems._SineBasis)
        assert peak < min(8e6, 8.0 * n * n), (make.__name__, n, peak)


def test_sine_record_mixed_gramian_forms_no_n_by_n_array():
    # a formed diag(lambda) of gen:3200 takes 82 MB
    import tracemalloc

    sys = generate_heat_model(3200, 7, 6)
    record = sys._operator()
    rng = np.random.default_rng(3)
    a11 = -np.diag(np.arange(1.0, 10.0)) + 0.1 * rng.standard_normal((9, 9))
    b1 = rng.standard_normal((9, 7))
    tracemalloc.start()
    try:
        pm = record.mixed(_schur_form(a11), b1, expm(a11, 0.05) @ b1, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pm.shape == (3200, 9)
    assert peak < 8e6


@pytest.mark.parametrize("module", [tlbt.gramians, tlbt.balancing, tlbt.bounds],
                         ids=lambda m: m.__name__)
def test_only_the_operator_record_knows_how_a_is_factored(module):
    # these modules see A through the record's calls alone, so a second
    # factorization route changes systems and nothing else
    forbidden = {"_Record", "_EigenRecord", "_SchurRecord", "_EigForm", "_eigh_form",
                 "_solve_sylvester_diagonal", "_exp_finite", "_SineBasis", "_dst1"}
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
            # the old record's factorization, the records' own factors, and
            # the Schur record's standard form
            assert name not in {"form", "schur", "xb", "cx", "a", "b", "c"}, \
                f"{module.__name__}:{node.lineno} reads .{name}"
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        assert name not in forbidden, f"{module.__name__}:{getattr(node, 'lineno', '?')} names {name}"


def _manifest(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda tmp: StateSpaceSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 3))), DimensionError,
     "C has 3 columns but A is 2 x 2"),
    (lambda tmp: StateSpaceSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), E=np.eye(3)), DimensionError,
     "E must have shape (2, 2) to match A, got (3, 3)"),
    (lambda tmp: tlbt.systems._SineBasis(np.arange(4), np.ones(4)) @ np.ones(3), ValueError,
     "sine basis of order 4 cannot multiply an operand of shape (3,)"),
    (lambda tmp: tlbt.systems._SineBasis(np.arange(4), np.ones(4)).T @ np.float64(1.0), ValueError,
     "sine basis of order 4 cannot multiply an operand of shape ()"),
    (lambda tmp: load_system(_manifest(tmp, "{")), ValueError, "manifest.json: invalid JSON manifest"),
    (lambda tmp: load_system(_manifest(tmp, "[1]")), ValueError,
     "manifest must be a JSON object mapping roles to file paths"),
    (lambda tmp: load_system(_manifest(tmp, '{"A": "a.mtx", "B": "b.mtx", "C": "c.mtx"}')), FileNotFoundError,
     "matrix file for role 'A' not found"),
    # a table of one channel may be given as a vector of values
    (lambda tmp: InputSignal.from_table([0.0, 1.0, 2.0], [1.0, 2.0]), ValueError,
     "values must have one row of values per timestamp and 1 columns, got shape (2, 1) for 3 timestamps"),
])
def test_refusal_names_its_fault(tmp_path, call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call(tmp_path)
    assert type(info.value) is exc


def test_package_import_loads_no_scipy_subpackage_but_linalg():
    # scipy.fft's DST-I would do _dst1's work, but importing it adds to
    # every command's start-up time and resident memory
    script = ("import sys, tlbt, tlbt.cli\n"
              "print(*sorted(name for name, mod in sys.modules.items() if name.count('.') == 1\n"
              "              and name.startswith('scipy.') and not name.startswith('scipy._')\n"
              "              and hasattr(mod, '__path__')))\n")
    # the subprocess imports tlbt from where this run does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys_module.path if p))
    out = subprocess.run([sys_module.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["scipy.linalg"]
