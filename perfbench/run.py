"""Benchmark of tlbt: one workload per invocation, checked, with metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; the tlbt under test is the one in
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (setup_s, pass_ref_s, passed_frac,
peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics of a
separate traced run, whose spans go to ``.perfbench_out/``. Lines
before it state the environment, the seed, sample counts, and every
failed check.

BLAS is pinned to one thread before numpy loads: on a 2-core machine at
the default two threads a warm n = 100 ``time_limited_gramians`` ranged
0.047-0.38 s, at one thread 0.034-0.040 s.

The process, and every process it starts, run on one CPU, and times are
CPU seconds of the process (every thread) scaled to a reference CPU
speed by ``perfbench.speed``. On a shared virtual machine a wall-clock
time also counts the time the host gives the CPU to others, and the
sweep's two threads, on two CPUs, hand the interpreter lock across CPUs
that the host may have paused: the middle half of ten wall-clock run
medians of the same sweep spread over about 40% of their median. On one
CPU the sweep's threads still take turns under its lock, but they cannot
run at once. Raw CPU and wall-clock medians are printed above the
result.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "certify-mass", "validate", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once in a fresh interpreter and report when done
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cpu_since_start() -> float:
    """CPU seconds this process has used since it was started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Timed(NamedTuple):
    """CPU seconds of one timed stretch, its monotonic start and end, and
    the CPU seconds of each of its operations."""

    cpu_s: float
    start: float
    end: float
    ops: dict

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _setup_samples(args) -> list:
    """For each of SETUP_SAMPLES fresh interpreters, the CPU seconds it
    takes from its start to the end of its set-up (imports, model and
    input generation, file writes)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        cpu_s = json.loads(proc.stdout.splitlines()[-1])["setup_cpu_s"]
        samples.append(Timed(cpu_s, start, time.monotonic(), {}))
    return samples


def _run_passes(workload, seconds, between=None) -> list:
    """The Timed passes run for ``seconds`` of wall time: at least one,
    and no further pass once another as long as the last would end past
    the deadline. ``between`` runs after each pass, inside the measured
    time."""
    passes = []
    t_start = time.monotonic()
    while True:
        t0, c0 = time.monotonic(), time.process_time()
        ops = workload.run_pass()
        passes.append(Timed(time.process_time() - c0, t0, time.monotonic(), ops))
        if between is not None:
            between(len(passes))
        now = time.monotonic()
        if now - t_start + (now - t0) > seconds:
            return passes


def _report_checks(workload, tally):
    print(f"# checks: {tally.failed} of {tally.attempted} operations failed; "
          f"{tally.certified} of {tally.certs} certificates pass the reference check")
    for line in workload.describe():
        print(f"#   {line}")
    for note in tally.notes:
        print(f"#   failure: {note}")
    for err in tally.errors:
        print(f"#   NOT CORRECT: {err}")


def _end_to_end(workload, args):
    from perfbench.layers import metric
    from perfbench.speed import SpeedSampler

    with SpeedSampler(workload.work / "speed-samples.txt") as speed:
        setup = _setup_samples(args)
        workload.setup()
        passes = _run_passes(workload, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = workload.check()
    setup_s = [speed.scaled(t.cpu_s, t.start, t.end) for t in setup]
    pass_ref_s = statistics.median(speed.scaled(p.cpu_s, p.start, p.end) for p in passes)
    print(f"# setup_s: median of {len(setup)} fresh set-ups, CPU s at the reference speed: "
          + ", ".join(f"{s:.3f}" for s in setup_s) + "; raw CPU s: "
          + ", ".join(f"{t.cpu_s:.3f}" for t in setup))
    print(f"# pass_ref_s: median of {len(passes)} passes = {pass_ref_s:.4f} s; raw CPU median "
          f"{statistics.median(p.cpu_s for p in passes):.4f} s, wall-clock median "
          f"{statistics.median(p.wall_s for p in passes):.4f} s; "
          f"{len(speed.samples)} speed samples, median {statistics.median(s[1] for s in speed.samples):.5f} s")
    for op in passes[0].ops:
        vals = [p.ops[op] for p in passes]
        print(f"#   {op}: raw CPU median {statistics.median(vals):.4f} s, "
              f"min {min(vals):.4f}, max {max(vals):.4f}, n = {len(vals)}")
    _report_checks(workload, tally)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "pass_ref_s": metric(pass_ref_s, "s"),
        "passed_frac": metric(1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return tally, metrics


def _traced(workload, args):
    from perfbench import layers
    from perfbench.speed import SpeedSampler
    from perfbench.tracer import Tracer, write_spans

    tracer = Tracer(full_order=workload.full_order, job="setup")
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    # untraced and traced passes alternate, so both see the same machine
    traced = []

    def traced_pass(k):
        tracer.job = k
        tracer.install()
        try:
            t0, c0 = time.monotonic(), time.process_time()
            workload.run_pass()
            traced.append(Timed(time.process_time() - c0, t0, time.monotonic(), {}))
        finally:
            tracer.uninstall()

    with SpeedSampler(workload.work / "speed-samples.txt") as speed:
        untraced = _run_passes(workload, args.seconds, between=traced_pass)
    untraced = [speed.scaled(p.cpu_s, p.start, p.end) for p in untraced]
    traced = [speed.scaled(p.cpu_s, p.start, p.end) for p in traced]
    tally = workload.check()
    metrics, lines = layers.per_layer(tracer.spans, workload, tally, untraced, traced)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    write_spans(tracer.spans, out_dir / f"spans-{workload.name}.csv")
    print(f"# traced passes: {len(traced)}, untraced passes: {len(untraced)}; "
          f"spans in .perfbench_out/spans-{workload.name}.csv")
    for line in lines:
        print(f"#   {line}")
    _report_checks(workload, tally)
    return tally, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    # on SIGTERM, unwind through the finally blocks that stop the
    # processes this one started and remove its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "tlbt" / "__init__.py").is_file():
        print(f"error: no tlbt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.environment import describe
    from perfbench.workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        if args.setup_only:
            workload.setup()
            print(json.dumps({"setup_cpu_s": _cpu_since_start()}))
            return 0
        print(f"# workload: {args.workload}, seed: {args.seed}, seconds: {args.seconds}, "
              f"trace: {args.trace}")
        print(f"# environment: {json.dumps(describe(), sort_keys=True)}")
        run = _traced if args.trace else _end_to_end
        tally, metrics = run(workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
