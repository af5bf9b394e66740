import math

import numpy as np
import pytest
import scipy.linalg as sla

import tlbt.simulation
from tlbt.balancing import ReducedModel
from tlbt.simulation import Trajectory, input_l2_norm, output_error, simulate
from tlbt.systems import InputSignal, StateSpaceSystem, generate_heat_model, random_piecewise_constant


def pulse_input(dt, m=1):
    # active during the first step's midpoint sample only
    times = [0.0, 0.9 * dt, dt, 10.0 * dt]
    rows = np.array([[1.0] * m, [1.0] * m, [0.0] * m, [0.0] * m])
    return InputSignal.from_table(times, rows)


class TestSimulate:
    def test_zero_input_stays_at_rest(self):
        sys = generate_heat_model(4, 2, 2)
        traj = simulate(sys, InputSignal.zero(2), t_end=1.0, dt=0.125)
        assert traj.outputs.shape == (9, 2)
        assert np.array_equal(traj.outputs, np.zeros((9, 2)))
        assert np.array_equal(traj.times, 0.125 * np.arange(9))

    def test_scalar_single_step(self, scalar_system):
        traj = simulate(scalar_system, InputSignal.constant(1.0), t_end=0.1, dt=0.1)
        assert traj.outputs[1, 0] == pytest.approx(0.1 / 1.05, rel=1e-15)

    def test_homogeneous_decay_factor(self, scalar_system):
        dt = 0.1
        traj = simulate(scalar_system, pulse_input(dt), t_end=1.0, dt=dt)
        y = traj.outputs[:, 0]
        rho = (1.0 - dt / 2.0) / (1.0 + dt / 2.0)
        for k in range(1, 10):
            assert y[k + 1] == pytest.approx(rho * y[k], rel=1e-13)

    def test_second_order_convergence(self, scalar_system):
        u = InputSignal.constant(1.0)
        exact = 1.0 - math.exp(-1.0)

        def err(dt):
            traj = simulate(scalar_system, u, t_end=1.0, dt=dt)
            return abs(traj.outputs[-1, 0] - exact)

        ratio = err(0.1) / err(0.05)
        assert 3.5 <= ratio <= 4.5

    def test_a_stable_on_stiff_symmetric_system(self):
        heat = generate_heat_model(6, 6, 6)
        sys = StateSpaceSystem(A=heat.A, B=heat.B, C=np.eye(6))
        dt = 10.0
        traj = simulate(sys, pulse_input(dt, m=6), t_end=100.0, dt=dt)
        norms = np.linalg.norm(traj.outputs, axis=1)
        assert np.all(np.diff(norms[1:]) <= 1e-14)

    def test_grid_prefix_is_bitwise_stable(self):
        sys = generate_heat_model(5, 2, 2)
        u = InputSignal.constant([1.0, -0.5])
        dt = 0.01
        short = simulate(sys, u, t_end=0.5, dt=dt)
        long = simulate(sys, u, t_end=2.0, dt=dt)
        k = short.outputs.shape[0]
        assert np.array_equal(long.outputs[:k], short.outputs)
        assert np.array_equal(long.times[:k], short.times)

    def test_reduced_model_accepted(self):
        rom = ReducedModel(A11=[[-2.0]], B1=[[1.0]], C1=[[1.0]], r=1, horizon=1.0)
        traj = simulate(rom, InputSignal.constant(1.0), t_end=1.0, dt=0.25)
        assert traj.outputs.shape == (5, 1)
        assert traj.outputs[-1, 0] > 0

    def test_mass_matrix_scaling(self, scalar_system):
        # E x' = A x + B u with E = 2, A = -2, B = 2 is again x' = -x + u
        scaled = StateSpaceSystem(A=[[-2.0]], B=[[2.0]], C=[[1.0]], E=[[2.0]])
        u = InputSignal.constant(1.0)
        ref = simulate(scalar_system, u, t_end=1.0, dt=0.1)
        out = simulate(scaled, u, t_end=1.0, dt=0.1)
        assert np.allclose(out.outputs, ref.outputs, atol=1e-14)

    def test_input_dimension_mismatch(self, scalar_system):
        with pytest.raises(ValueError, match="components"):
            simulate(scalar_system, InputSignal.zero(2), t_end=1.0, dt=0.1)

    def test_grid_validation(self, scalar_system):
        u = InputSignal.constant(1.0)
        with pytest.raises(ValueError, match="integer multiple"):
            simulate(scalar_system, u, t_end=1.0, dt=0.3)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate(scalar_system, u, t_end=1.0, dt=0.0)
        with pytest.raises(ValueError, match="t_end must be at least dt"):
            simulate(scalar_system, u, t_end=0.05, dt=0.1)


    def test_singular_step_matrix_rejected(self):
        sys = StateSpaceSystem(A=[[2.0]], B=[[1.0]], C=[[1.0]])
        with pytest.warns(sla.LinAlgWarning), pytest.raises(ValueError, match="singular"):
            simulate(sys, InputSignal.constant(1.0), t_end=2.0, dt=1.0)

    def test_non_finite_outputs_rejected(self):
        sys = StateSpaceSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="non-finite"):
                simulate(sys, InputSignal.constant(1.0), t_end=380.0, dt=1.9)

    def test_sampled_input_shape_checked(self, scalar_system, monkeypatch):
        monkeypatch.setattr(InputSignal, "sample", lambda self, times: np.zeros((len(times), 2)))
        with pytest.raises(ValueError, match=r"\(10, 2\).*\(10, 1\)"):
            simulate(scalar_system, InputSignal.constant(1.0), t_end=1.0, dt=0.1)

    def test_getrs_failure_raises(self, scalar_system, monkeypatch):
        monkeypatch.setattr(tlbt.simulation, "dgetrs", lambda lu, piv, b, overwrite_b: (b, -3))
        with pytest.raises(ValueError, match="info = -3"):
            simulate(scalar_system, InputSignal.constant(1.0), t_end=1.0, dt=0.1)

    def test_input_sampled_once_not_evaluated_per_step(self, monkeypatch):
        def refuse(self, t):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(InputSignal, "evaluate", refuse)
        monkeypatch.setattr(InputSignal, "__call__", refuse)
        sys = generate_heat_model(10, 3, 2)
        u = random_piecewise_constant(3, 1.0, 4, np.random.default_rng(3))
        traj = simulate(sys, u, t_end=1.0, dt=1.0 / 64)
        assert traj.outputs.shape == (65, 2)
        assert np.all(np.isfinite(traj.outputs)) and np.any(traj.outputs != 0.0)
        assert input_l2_norm(u, 1.0, 1.0 / 64) > 0.0


def fem_rod(n, m, p):
    """Linear finite elements for the heat equation: E x' = A x + B u."""
    h = 1.0 / (n + 1)
    ones = np.ones(n - 1)
    e = h / 6.0 * (4.0 * np.eye(n) + np.diag(ones, 1) + np.diag(ones, -1))
    a = -(2.0 * np.eye(n) - np.diag(ones, 1) - np.diag(ones, -1)) / h
    return StateSpaceSystem(A=a, B=np.eye(n)[:, :m], C=np.eye(n)[n - p:, :], E=e)


def per_step_simulate(model, u, t_end, dt):
    # the integrator as a per-step loop that evaluates u at each midpoint
    steps = int(round(t_end / dt))
    e = model.E if model.E is not None else np.eye(model.n)
    lu = sla.lu_factor(e - (dt / 2.0) * model.A)
    m_plus = e + (dt / 2.0) * model.A
    outputs = np.zeros((steps + 1, model.p))
    x = np.zeros(model.n)
    for k in range(steps):
        x = sla.lu_solve(lu, m_plus @ x + dt * (model.B @ u(k * dt + dt / 2.0)))
        outputs[k + 1] = model.C @ x
    return outputs


def per_step_l2_norm(u, tbar, dt):
    steps = int(round(tbar / dt))
    sq = np.array([float(v @ v) for v in (u(k * dt) for k in range(steps + 1))])
    return math.sqrt(dt * (np.sum(sq) - 0.5 * (sq[0] + sq[-1])))


class TestMatchesPerStepLoop:
    @pytest.mark.parametrize("model", [generate_heat_model(100, 4, 3), fem_rod(40, 3, 2)],
                             ids=["rod-100", "fem-mass-40"])
    def test_table_input(self, model):
        tbar, dt = 0.05, 0.05 / 128
        u = random_piecewise_constant(model.m, tbar, 8, np.random.default_rng(11))
        ref = per_step_simulate(model, u, 2.0 * tbar, dt)
        out = simulate(model, u, 2.0 * tbar, dt).outputs
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert input_l2_norm(u, tbar, dt) == pytest.approx(per_step_l2_norm(u, tbar, dt), rel=1e-13)


class TestOutputError:
    def test_identical_trajectories(self):
        t = np.array([0.0, 0.5, 1.0])
        y = np.array([[1.0], [2.0], [3.0]])
        series, max_tbar, max_total = output_error(Trajectory(t, y), Trajectory(t, y), 1.0)
        assert np.array_equal(series, np.zeros(3))
        assert max_tbar == 0.0 and max_total == 0.0

    def test_euclidean_norm_per_sample(self):
        t = np.array([0.0, 1.0, 2.0])
        full = Trajectory(t, np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]]))
        reduced = Trajectory(t, np.zeros((3, 2)))
        series, max_tbar, max_total = output_error(full, reduced, 1.0)
        assert np.allclose(series, [0.0, 5.0, 1.0])
        assert max_tbar == 5.0
        assert max_total == 5.0

    def test_window_split(self):
        t = np.array([0.0, 1.0, 2.0])
        full = Trajectory(t, np.array([[0.0], [1.0], [7.0]]))
        reduced = Trajectory(t, np.zeros((3, 1)))
        _, max_tbar, max_total = output_error(full, reduced, 1.0)
        assert max_tbar == 1.0
        assert max_total == 7.0

    def test_grid_mismatch_rejected(self):
        y = np.zeros((3, 1))
        a = Trajectory(np.array([0.0, 1.0, 2.0]), y)
        b = Trajectory(np.array([0.0, 1.1, 2.0]), y)
        with pytest.raises(ValueError, match="different grids"):
            output_error(a, b, 1.0)

    def test_shape_mismatch_rejected(self):
        t = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="shapes"):
            output_error(Trajectory(t, np.zeros((2, 1))), Trajectory(t, np.zeros((2, 2))), 1.0)


class TestInputL2Norm:
    def test_constant_vector(self):
        u = InputSignal.constant(50.0 * np.ones(7))
        assert input_l2_norm(u, 100.0, 0.5) == pytest.approx(50.0 * math.sqrt(700.0), rel=1e-12)

    def test_zero(self):
        assert input_l2_norm(InputSignal.zero(3), 5.0, 0.5) == 0.0

    def test_trapezoid_on_linear_ramp(self):
        u = InputSignal.from_table([0.0, 1.0], [[0.0], [1.0]])
        assert input_l2_norm(u, 1.0, 0.5) == pytest.approx(math.sqrt(0.375), rel=1e-14)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path, rng):
        times = 0.125 * np.arange(6)
        outputs = rng.standard_normal((6, 3))
        traj = Trajectory(times=times, outputs=outputs)
        path = tmp_path / "traj.csv"
        traj.save_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t, y_1, y_2, y_3"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], times)
        assert np.array_equal(data[:, 1:], outputs)
