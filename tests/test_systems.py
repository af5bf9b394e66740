import json
import math

import numpy as np
import pytest

from tlbt.errors import DimensionError
from tlbt.mmio import write_matrix
from tlbt.systems import (
    InputSignal,
    StateSpaceSystem,
    apply_state_transform,
    generate_heat_model,
    load_system,
    random_piecewise_constant,
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

    def test_b_row_mismatch_names_b(self):
        with pytest.raises(DimensionError, match="B has 1 rows"):
            StateSpaceSystem(A=np.diag([-1.0, -2.0]), B=[[1.0]], C=[[1.0, 0.0]])

    def test_nonsquare_a_rejected(self):
        with pytest.raises(DimensionError, match="square"):
            StateSpaceSystem(A=np.ones((2, 3)), B=np.ones((2, 1)), C=np.ones((1, 3)))

    def test_singular_e_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            StateSpaceSystem(A=[[-1.0, 0.0], [0.0, -1.0]], B=np.ones((2, 1)), C=np.ones((1, 2)), E=np.zeros((2, 2)))


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

    def test_mapping_input(self, tmp_path):
        write_manifest(tmp_path, [[-1.0]], [[1.0]], [[1.0]])
        mapping = {"A": str(tmp_path / "A.mtx"), "B": str(tmp_path / "B.mtx"), "C": str(tmp_path / "C.mtx")}
        sys = load_system(mapping, name="direct")
        assert sys.name == "direct"
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

    def test_table_row_count_mismatch(self):
        with pytest.raises(ValueError, match="one row of values per timestamp"):
            InputSignal.from_table([0.0, 1.0], [[1.0]])


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
