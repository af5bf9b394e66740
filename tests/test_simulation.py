import math
import sys as sys_module
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla

import tlbt.simulation
from conftest import fem_rod, rand_stable
from oracles import lifted_operators, random_piecewise_constant
from tlbt.balancing import ReducedModel
from tlbt.simulation import Trajectory, input_l2_norm, output_error, simulate
from tlbt.systems import InputSignal, StateSpaceSystem, generate_heat_model


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
        assert traj.outputs[1, 0] == pytest.approx(0.1 / 1.05, rel=1e-15, abs=0.0)

    def test_homogeneous_decay_factor(self, scalar_system):
        dt = 0.1
        traj = simulate(scalar_system, pulse_input(dt), t_end=1.0, dt=dt)
        y = traj.outputs[:, 0]
        rho = (1.0 - dt / 2.0) / (1.0 + dt / 2.0)
        for k in range(1, 10):
            assert y[k + 1] == pytest.approx(rho * y[k], rel=1e-13, abs=0.0)

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

    def test_infinite_horizon_refused(self, scalar_system):
        u = InputSignal.constant(1.0)
        with pytest.raises(ValueError, match="t_end must be at least dt and finite, got t_end = inf"):
            simulate(scalar_system, u, math.inf, 0.1)
        with pytest.raises(ValueError, match="t_end must be at least dt and finite, got t_end = inf"):
            input_l2_norm(u, math.inf, 0.1)

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

    def test_getrs_failure_raises(self, monkeypatch):
        # a system of its own: a shared one may hold this step size's operators already
        sys = StateSpaceSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        monkeypatch.setattr(tlbt.simulation, "dgetrs", lambda lu, piv, b, overwrite_b: (b, -3))
        with pytest.raises(ValueError, match="info = -3"):
            simulate(sys, InputSignal.constant(1.0), t_end=1.0, dt=0.1)

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
        assert input_l2_norm(u, tbar, dt) == pytest.approx(per_step_l2_norm(u, tbar, dt), rel=1e-13, abs=0.0)


BLOCK_MODELS = {
    "nonsymmetric": rand_stable(12, 3, 2, np.random.default_rng(5)),
    "wide": rand_stable(4, 6, 5, np.random.default_rng(6)),
    "fem-mass": fem_rod(30, 3, 2),
}


class TestBlocksMatchPerStepLoop:
    # the lifted blocks hold 16 steps: 3 steps fit in one block, and 37
    # leave the last block partial
    @pytest.mark.parametrize("steps", [3, 37])
    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_matches_per_step_loop(self, name, steps):
        model, dt = BLOCK_MODELS[name], 1.0 / 64
        u = random_piecewise_constant(model.m, steps * dt, 4, np.random.default_rng(steps))
        ref = per_step_simulate(model, u, steps * dt, dt)
        out = simulate(model, u, steps * dt, dt).outputs
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_prefix_across_a_block_boundary_is_bitwise_stable(self, name):
        model, dt = BLOCK_MODELS[name], 1.0 / 64
        u = random_piecewise_constant(model.m, 1.0, 4, np.random.default_rng(2))
        short = simulate(model, u, 23 * dt, dt).outputs
        long = simulate(model, u, 64 * dt, dt).outputs
        assert np.array_equal(long[:24], short)

    @pytest.mark.parametrize("steps", [8, 512])
    def test_one_getrs_call_per_run(self, steps, monkeypatch):
        sys = generate_heat_model(10, 3, 2)
        calls, real = [], tlbt.simulation.dgetrs

        def spy(lu, piv, b, overwrite_b):
            calls.append(b.shape)
            return real(lu, piv, b, overwrite_b=overwrite_b)

        monkeypatch.setattr(tlbt.simulation, "dgetrs", spy)
        traj = simulate(sys, InputSignal.constant([1.0, 0.5, -1.0]), t_end=steps / 64, dt=1.0 / 64)
        assert calls == [(10, 10 + 3)]
        assert traj.outputs.shape == (steps + 1, 2)


def count_builds(monkeypatch):
    """Spy on the step matrix's LU and the getrs solve; returns the call list."""
    calls, getrs, lu_factor = [], tlbt.simulation.dgetrs, sla.lu_factor

    def getrs_spy(lu, piv, b, overwrite_b):
        calls.append("getrs")
        return getrs(lu, piv, b, overwrite_b=overwrite_b)

    def lu_spy(a, *args, **kwargs):
        calls.append("lu_factor")
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(tlbt.simulation, "dgetrs", getrs_spy)
    monkeypatch.setattr(tlbt.simulation.sla, "lu_factor", lu_spy)
    return calls


class TestStepOperatorsAreMemoized:
    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS) + ["rod-100"])
    def test_second_run_builds_nothing_and_matches_a_fresh_system(self, name, monkeypatch):
        def fresh():
            if name == "rod-100":
                return generate_heat_model(100, 7, 6)
            model = BLOCK_MODELS[name]
            return StateSpaceSystem(A=model.A, B=model.B, C=model.C, E=model.E)

        sys, dt = fresh(), 1.0 / 512
        rng = np.random.default_rng(7)
        first, second = (random_piecewise_constant(sys.m, 0.125, 8, rng) for _ in range(2))
        calls = count_builds(monkeypatch)
        simulate(sys, first, 0.125, dt)
        assert calls == ["lu_factor", "getrs"]
        out = simulate(sys, second, 0.125, dt).outputs
        assert calls == ["lu_factor", "getrs"]
        assert np.array_equal(out, simulate(fresh(), second, 0.125, dt).outputs)

    def test_another_step_size_builds_once_more(self, monkeypatch):
        sys = generate_heat_model(10, 3, 2)
        u = InputSignal.constant([1.0, 0.5, -1.0])
        calls = count_builds(monkeypatch)
        for dt in (1.0 / 64, 1.0 / 32, 1.0 / 64, 1.0 / 32):
            simulate(sys, u, t_end=0.5, dt=dt)
        assert calls == ["lu_factor", "getrs"] * 2

    def test_singular_step_matrix_refused_on_every_attempt(self):
        sys = StateSpaceSystem(A=[[2.0]], B=[[1.0]], C=[[1.0]])
        for _ in range(3):
            with pytest.warns(sla.LinAlgWarning), pytest.raises(
                    ValueError, match=r"^step matrix E - \(dt/2\) A is singular for dt = 1.0$"):
                simulate(sys, InputSignal.constant(1.0), t_end=2.0, dt=1.0)

    def test_reduced_model_keeps_nothing(self, monkeypatch):
        rom = ReducedModel(A11=[[-2.0, 0.5], [0.0, -1.0]], B1=[[1.0], [1.0]], C1=[[1.0, 0.0]],
                           r=2, horizon=1.0)
        before = dict(rom.__dict__)
        calls = count_builds(monkeypatch)
        first = simulate(rom, InputSignal.constant(1.0), t_end=1.0, dt=0.125)
        second = simulate(rom, InputSignal.constant(1.0), t_end=1.0, dt=0.125)
        assert rom.__dict__.keys() == before.keys()
        assert all(rom.__dict__[k] is v for k, v in before.items())
        assert calls == ["lu_factor", "getrs"] * 2
        assert np.array_equal(first.outputs, second.outputs)

    def test_threads_share_one_build(self, monkeypatch):
        sys = generate_heat_model(40, 3, 2)
        u = random_piecewise_constant(3, 0.25, 8, np.random.default_rng(9))
        calls = count_builds(monkeypatch)
        barrier = threading.Barrier(4, timeout=30)

        def run(_):
            barrier.wait()
            return simulate(sys, u, t_end=0.25, dt=1.0 / 256).outputs

        interval = sys_module.getswitchinterval()
        sys_module.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outs = list(pool.map(run, range(4)))
        finally:
            sys_module.setswitchinterval(interval)
        assert calls.count("getrs") == 1
        assert all(np.array_equal(out, outs[0]) for out in outs[1:])


def count_samples(monkeypatch):
    """Spy on InputSignal.sample; returns the list of the arrays it returned."""
    samples, real = [], InputSignal.sample

    def spy(self, times):
        samples.append(real(self, times))
        return samples[-1]

    monkeypatch.setattr(InputSignal, "sample", spy)
    return samples


class TestInputSamplesAreMemoized:
    def test_second_run_samples_nothing_and_matches_the_first(self, monkeypatch):
        sys, other, dt = generate_heat_model(10, 3, 2), generate_heat_model(12, 3, 2), 1.0 / 256
        u = random_piecewise_constant(3, 0.25, 8, np.random.default_rng(4))
        samples = count_samples(monkeypatch)
        first, norm = simulate(sys, u, 0.25, dt).outputs, input_l2_norm(u, 0.25, dt)
        assert len(samples) == 2
        assert np.array_equal(simulate(sys, u, 0.25, dt).outputs, first)
        assert input_l2_norm(u, 0.25, dt) == norm
        # another model on the same grid reads the same samples
        simulate(other, u, 0.25, dt)
        assert len(samples) == 2

    def test_each_grid_is_its_own_entry(self, monkeypatch):
        sys = generate_heat_model(10, 3, 2)
        u = random_piecewise_constant(3, 0.25, 8, np.random.default_rng(4))
        samples = count_samples(monkeypatch)
        for dt in (1.0 / 256, 1.0 / 128, 1.0 / 256, 1.0 / 128):
            simulate(sys, u, 0.25, dt)
            input_l2_norm(u, 0.25, dt)
        simulate(sys, u, 0.5, 1.0 / 256)
        # midpoints, then nodes, of each dt once; a longer grid is another grid
        assert [len(values) for values in samples] == [64, 65, 32, 33, 128]
        assert np.array_equal(samples[4][:64], samples[0])

    def test_kept_samples_are_read_only(self, monkeypatch):
        u = random_piecewise_constant(3, 0.25, 8, np.random.default_rng(4))
        samples = count_samples(monkeypatch)
        simulate(generate_heat_model(10, 3, 2), u, 0.25, 1.0 / 256)
        input_l2_norm(u, 0.25, 1.0 / 256)
        assert len(samples) == 2
        for values in samples:
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0] = 1.0

    def test_a_failed_sample_keeps_nothing(self, scalar_system, monkeypatch):
        u = InputSignal.constant(1.0)
        with monkeypatch.context() as patch:
            patch.setattr(InputSignal, "sample", lambda self, times: np.zeros((len(times), 2)))
            with pytest.raises(ValueError, match="sampled to shape"):
                simulate(scalar_system, u, t_end=1.0, dt=0.1)
        assert np.all(simulate(scalar_system, u, t_end=1.0, dt=0.1).outputs[1:] > 0.0)

    def test_threads_sample_a_shared_signal_once(self, monkeypatch):
        sys = generate_heat_model(40, 3, 2)
        u = random_piecewise_constant(3, 0.25, 8, np.random.default_rng(9))
        samples = count_samples(monkeypatch)
        barrier = threading.Barrier(4, timeout=30)

        def run(_):
            barrier.wait()
            return simulate(sys, u, t_end=0.25, dt=1.0 / 256).outputs, input_l2_norm(u, 0.25, 1.0 / 256)

        interval = sys_module.getswitchinterval()
        sys_module.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = list(pool.map(run, range(4)))
        finally:
            sys_module.setswitchinterval(interval)
        assert len(samples) == 2
        assert all(np.array_equal(out, runs[0][0]) and norm == runs[0][1] for out, norm in runs[1:])


LIFTED_MODELS = {"rod-100": generate_heat_model(100, 4, 3), "fem-mass-40": fem_rod(40, 3, 2),
                 "nonsymmetric": BLOCK_MODELS["nonsymmetric"], "wide": BLOCK_MODELS["wide"]}


class TestLiftedOperators:
    @pytest.mark.parametrize("name", sorted(LIFTED_MODELS))
    def test_doubling_matches_the_sequential_products(self, name):
        model, dt = LIFTED_MODELS[name], 1.0 / 512
        n = model.n
        e = model.E if model.E is not None else np.eye(n)
        maps = sla.solve(e - (dt / 2.0) * model.A, np.hstack([e + (dt / 2.0) * model.A, dt * model.B]))
        step, drive = maps[:, :n], maps[:, n:]
        # as simulate lifts them: the fewer of inputs and forcing terms, of outputs and states
        lifted = (step, np.eye(n) if model.m > n else drive, np.eye(n) if model.p > n else model.C)
        for got, want in zip(tlbt.simulation._lifted(*lifted), lifted_operators(*lifted)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestWindowedProducts:
    # the windows are formed a chunk of blocks at a time: this grid
    # crosses a chunk boundary and leaves the last block partial
    STEPS = tlbt.simulation._CHUNK * tlbt.simulation._BLOCK + 37

    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_across_a_chunk_boundary(self, name):
        model, dt = BLOCK_MODELS[name], 1.0 / 64
        u = random_piecewise_constant(model.m, self.STEPS * dt, 16, np.random.default_rng(8))
        ref = per_step_simulate(model, u, self.STEPS * dt, dt)
        out = simulate(model, u, self.STEPS * dt, dt).outputs
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        long = simulate(model, u, 2 * tlbt.simulation._CHUNK * tlbt.simulation._BLOCK * dt, dt).outputs
        assert np.array_equal(long[:self.STEPS + 1], out)

    def test_long_grid_memory_stays_bounded(self):
        # the windows of 4096 blocks at once would hold 4096 x 16 x 16 x 7 doubles
        sys = generate_heat_model(100, 7, 6)
        u = random_piecewise_constant(7, 1.0, 8, np.random.default_rng(1))
        tracemalloc.start()
        try:
            simulate(sys, u, 1.0, 1.0 / 65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


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
        assert input_l2_norm(u, 100.0, 0.5) == pytest.approx(50.0 * math.sqrt(700.0), rel=1e-12, abs=0.0)

    def test_zero(self):
        assert input_l2_norm(InputSignal.zero(3), 5.0, 0.5) == 0.0

    def test_trapezoid_on_linear_ramp(self):
        u = InputSignal.from_table([0.0, 1.0], [[0.0], [1.0]])
        assert input_l2_norm(u, 1.0, 0.5) == pytest.approx(math.sqrt(0.375), rel=1e-14, abs=0.0)


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
