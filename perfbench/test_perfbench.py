"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import tlbt  # noqa: E402
import tlbt.mmio  # noqa: E402
from perfbench.reference import error_references  # noqa: E402
from perfbench.speed import KERNEL_REFERENCE_S, SpeedSampler  # noqa: E402
from perfbench.tracer import Span, Tracer, self_times  # noqa: E402
from perfbench.workloads import heat_rod, piecewise_tables  # noqa: E402


def _pipeline(tmp_path):
    """A small end-to-end computation through the public API."""
    a, b, c = heat_rod(12, 3, 2)
    system = tlbt.StateSpaceSystem(A=a, B=b, C=c)
    gram = tlbt.time_limited_gramians(system, 0.05)
    bal = tlbt.balance(gram, system)
    rom = tlbt.truncate(system, bal.reduce_to(4))
    eps = tlbt.tlbt_h2_bound(system, rom, gram.P, 0.05).epsilon
    times, values = piecewise_tables(np.random.default_rng(5), 1, 3, 0.05)[0]
    u = tlbt.InputSignal.from_table(times, values)
    full = tlbt.simulate(system, u, 0.05, 0.05 / 64)
    red = tlbt.simulate(rom, u, 0.05, 0.05 / 64)
    err = tlbt.output_error(full, red, 0.05)
    unorm = tlbt.input_l2_norm(u, 0.05, 0.05 / 64)
    path = tmp_path / "a.mtx"
    tlbt.mmio.write_matrix(str(path), gram.P)
    back = tlbt.mmio.read_matrix(str(path))
    return [gram.P, gram.Q, bal.singular_values, rom.A11, rom.B1, rom.C1, eps,
            full.outputs, red.outputs, err[0], err[1], unorm, back]


def test_wrapped_calls_are_bit_identical(tmp_path):
    plain = _pipeline(tmp_path)
    import tlbt.cli

    def bindings():
        return (tlbt.expm, tlbt.gramians.expm, tlbt.bounds.spectrum_separation,
                tlbt.cli.tlbt_h2_bound, tlbt.InputSignal.__call__)

    originals = bindings()
    tracer = Tracer(full_order=12, job=0)
    tracer.install()
    try:
        assert not any(x is y for x, y in zip(bindings(), originals))
        traced = _pipeline(tmp_path)
    finally:
        tracer.uninstall()
    assert bindings() == originals
    for x, y in zip(plain, traced):
        assert np.array_equal(x, y)
    names = {s.name for s in tracer.spans}
    for name in ("linalg.expm", "linalg.solve_lyapunov", "linalg.spectrum_separation",
                 "gramians.time_limited_gramians", "gramians.mixed_gramian",
                 "bounds.tlbt_h2_bound", "simulation.simulate", "systems.InputSignal.evaluate",
                 "mmio.write_matrix", "mmio.read_matrix"):
        assert name in names
    full = [s for s in tracer.spans if s.name == "linalg.expm" and s.full]
    reduced = [s for s in tracer.spans if s.name == "linalg.expm" and not s.full]
    assert full and reduced
    sims = [s.size for s in tracer.spans if s.name == "simulation.simulate"]
    assert sims == [64, 64]


def test_self_time_subtracts_the_union_of_children():
    root = Span("cli.main", 1, 0.0, None, 0, end=10.0)
    # two worker threads whose spans overlap in [3, 4]
    w1 = Span("a", 2, 1.0, root, 0, end=4.0)
    w2 = Span("b", 3, 3.0, root, 0, end=6.0)
    inner = Span("c", 2, 2.0, w1, 0, end=3.0)
    assert self_times([root, w1, w2, inner]) == [5.0, 2.0, 3.0, 1.0]


def test_speed_scaling_uses_the_samples_around_the_operation():
    speed = SpeedSampler(Path("unused"))
    # the kernel ran at the reference speed until t = 10, then 2x slower
    speed.samples = [(t / 4, KERNEL_REFERENCE_S * (1 if t < 40 else 2)) for t in range(80)]
    assert speed.scaled(1.0, 2.0, 5.0) == pytest.approx(1.0)
    assert speed.scaled(1.0, 12.0, 15.0) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        speed.scaled(1.0, 30.0, 31.0)


@pytest.mark.parametrize("tbar", [0.05, 1.0, 3.0])
def test_reference_matches_the_scalar_closed_form(tbar):
    ref = error_references(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]),
                           [(np.array([[-2.0]]), np.array([[1.0]]), np.array([[1.0]]))], tbar)[0]
    # int_0^T (e^{-s} - e^{-2s})^2 ds
    exact = (-math.expm1(-2 * tbar) / 2 + 2 * math.expm1(-3 * tbar) / 3
             - math.expm1(-4 * tbar) / 4)
    assert ref.value == pytest.approx(exact, rel=1e-12)
    assert ref.slack <= 1e-12 * exact
    assert ref.admits(math.sqrt(exact))
    assert not ref.admits(math.sqrt(exact) * (1 - 1e-9))


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["attempted"] > 0 and result["attempted"] % 40 == 0
