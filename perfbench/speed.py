"""CPU seconds at a fixed CPU speed, for hosts whose speed drifts.

The benchmark runs on one CPU of a shared virtual machine, and the host
changes the speed it gives that CPU: the CPU time of a fixed kernel
switches between two levels about 1.6x apart, stays at one for 10 s to
minutes, and the CPU time of a tlbt pass follows it. Medians of such
times say as much about the host as about tlbt. So a second process,
pinned to the same CPU, times a small fixed kernel every SAMPLE_PERIOD_S,
and an operation's CPU time is divided by the mean kernel time in a
window around the operation, then multiplied by KERNEL_REFERENCE_S. The
result reads as CPU seconds at the speed at which the kernel takes
KERNEL_REFERENCE_S.

The kernel shares no code with tlbt, so a change to tlbt moves the
scaled time as it moves the raw one. The sampler takes about 2% of the
CPU; its time is not in the benchmark's CPU time.

    python3 perfbench/speed.py SAMPLES_FILE

runs the sampler until it is terminated or its parent ends, appending "<monotonic time at
the end of a kernel> <its CPU seconds>" lines to SAMPLES_FILE.
"""
from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SAMPLE_PERIOD_S = 0.25
# samples this far before an operation starts and after it ends count
WINDOW_S = 0.5
# about the kernel's CPU time at the faster of the two levels, on the
# Intel Xeon vCPU the benchmark was written on
KERNEL_REFERENCE_S = 0.003
START_TIMEOUT_S = 60


def kernel(a, q) -> None:
    """A 60 x 60 expm and Lyapunov solve and a Python loop: 3 to 5 ms,
    a mix of LAPACK and interpreter work like that of a tlbt pass."""
    import scipy.linalg as sla

    sla.expm(a)
    sla.solve_continuous_lyapunov(a, q)
    total = 0
    for i in range(10000):
        total += i * i


def _sample_until_orphaned(path: Path) -> None:
    """Sample until terminated, or until the process that started this
    one has ended, however it ended."""
    import numpy as np

    parent = os.getppid()
    a = -np.eye(60) + 0.01 * np.random.default_rng(0).standard_normal((60, 60))
    q = np.eye(60)
    kernel(a, q)
    with open(path, "a", encoding="ascii") as out:
        while os.getppid() == parent:
            c0 = time.process_time()
            kernel(a, q)
            out.write(f"{time.monotonic():.6f} {time.process_time() - c0:.9f}\n")
            out.flush()
            time.sleep(SAMPLE_PERIOD_S)


class SpeedSampler:
    """Runs the sampler process while in a ``with`` block; afterwards
    ``scaled`` converts CPU seconds measured inside the block."""

    def __init__(self, path: Path):
        self.path = path
        self.samples: list = []

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(self.path)])
        try:
            deadline = time.monotonic() + START_TIMEOUT_S
            while not (self.path.exists() and self.path.stat().st_size):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the speed sampler did not start")
                time.sleep(0.05)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc):
        try:
            if exc[0] is None:
                # the last operation's window needs samples after its end
                time.sleep(WINDOW_S + 2 * SAMPLE_PERIOD_S)
        finally:
            self._stop()
        lines = self.path.read_text(encoding="ascii").splitlines()
        # terminating the sampler may cut its last line short
        parsed = [tuple(map(float, ln.split())) for ln in lines if len(ln.split()) == 2]
        self.samples = [s for s in parsed if s[1] > 0]
        return False

    def _stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def scaled(self, cpu_s: float, start: float, end: float) -> float:
        """``cpu_s``, measured between monotonic times ``start`` and
        ``end``, in CPU seconds at the reference speed."""
        times = [s[0] for s in self.samples]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        window = [s[1] for s in self.samples[lo:hi]]
        if not window:
            raise RuntimeError(f"no speed samples between {start:.3f} and {end:.3f}")
        return cpu_s * KERNEL_REFERENCE_S / statistics.fmean(window)


if __name__ == "__main__":
    _sample_until_orphaned(Path(sys.argv[1]))
