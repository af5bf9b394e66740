"""Time ``tlbt.simulate`` on four models:

    python tools/sim_timing.py

The models, each under a piecewise-constant table input of 8 blocks
(uniform in [-1, 1], seed 0) on the horizon T = 0.05:

- the n = 100 heat rod with m = 7, p = 6 of perfbench's validate
  workload, 512 steps;
- its time-limited balanced truncation of order 8, 512 steps;
- the 40-state linear-FEM heat rod with a mass matrix of
  ``tools/golden_outputs.py`` (m = 7, p = 6), 512 steps;
- the heat rod with n = m = p = 50, 256 steps.

For each it prints the least of 21 fresh runs (a new system and a new
signal, so nothing kept from an earlier run) and the least of 21
repeat runs (the system and the signal of the run before), in ms. The
script sets OPENBLAS_NUM_THREADS=1 before numpy loads, pins its own
process to one CPU, and imports the package from the ``src`` folder next
to it. To compare two checkouts, run each one's copy of this script.
"""
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from golden_outputs import fem_rod  # noqa: E402
from tlbt import (InputSignal, StateSpaceSystem, balance, generate_heat_model,  # noqa: E402
                  simulate, time_limited_gramians, truncate)

REPEATS = 21
TBAR = 0.05


def table_input(m):
    times = np.linspace(0.0, TBAR, 9)
    values = np.random.default_rng(0).uniform(-1.0, 1.0, size=(9, m))
    return InputSignal.from_table(times, values)


def fresh_copy(model, u):
    if isinstance(model, StateSpaceSystem):
        model = StateSpaceSystem(A=model.A, B=model.B, C=model.C, E=model.E)
    return model, InputSignal.from_table(u.times[0], u.values)


def least(model, u, steps, fresh):
    times = []
    for _ in range(REPEATS):
        if fresh:
            model, u = fresh_copy(model, u)
        start = time.perf_counter()
        simulate(model, u, TBAR, TBAR / steps)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rod = generate_heat_model(100, 7, 6)
    rom = truncate(rod, balance(time_limited_gramians(rod, TBAR), rod).reduce_to(8))
    fem = fem_rod(40, 7, 6)
    models = {"rod n = 100": (rod, 512), "its r = 8 ROM": (rom, 512),
              "fem rod n = 40": (StateSpaceSystem(**fem), 512),
              "rod m = n = p = 50": (generate_heat_model(50, 50, 50), 256)}
    for name, (model, steps) in models.items():
        u = table_input(model.B1.shape[1] if model is rom else model.m)
        fresh = least(model, u, steps, fresh=True)
        simulate(model, u, TBAR, TBAR / steps)  # what a repeat run finds kept
        repeat = least(model, u, steps, fresh=False)
        print(f"{name:20s} {steps:4d} steps  fresh {fresh:7.3f} ms  repeat {repeat:7.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
