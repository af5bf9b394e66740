"""Per-layer metrics of a traced run, from its spans and checks.

Times and bytes are medians over the traced passes; counts are those of
one traced pass and must repeat exactly on every traced pass. A layer a
workload never calls reads 0.
"""
from __future__ import annotations

import statistics

from perfbench.tracer import job_summary, self_times, worker_busy_frac

# span name -> the fields reported for it
SPAN_FIELDS = {
    "linalg.expm": ("calls", "full_calls", "self_s"),
    "linalg.solve_lyapunov": ("calls", "full_calls", "self_s"),
    "linalg.solve_sylvester": ("calls", "self_s"),
    "linalg.spectrum_separation": ("calls", "full_calls", "self_s"),
    "linalg.spd_factor": ("calls", "self_s"),
    "gramians.time_limited_gramians": ("calls", "self_s"),
    "gramians.infinite_gramians": ("calls", "self_s"),
    "gramians.reduced_gramian": ("self_s",),
    "gramians.mixed_gramian": ("calls", "self_s"),
    "balancing.balance": ("self_s",),
    "balancing.truncate": ("self_s",),
    "bounds.tlbt_h2_bound": ("calls", "self_s"),
    "simulation.simulate": ("calls", "self_s"),
    "simulation.input_l2_norm": ("self_s",),
    "simulation.output_error": ("self_s",),
    "systems.InputSignal.evaluate": ("calls", "self_s"),
    "systems.load_system": ("self_s",),
    "mmio.read_matrix": ("self_s", "bytes"),
    "mmio.write_matrix": ("self_s", "bytes"),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "full_calls": "count", "self_s": "s", "bytes": "bytes-computed"}
EMPTY = {"calls": 0, "full_calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}


def metric(value, unit) -> dict:
    """One entry of the result's "metrics" object."""
    return {"value": value, "unit": unit}


def per_layer(spans, workload, tally, untraced, traced):
    """(metrics, human-readable lines) of one traced run."""
    selfs = self_times(spans)
    passes = sorted({s.job for s in spans if isinstance(s.job, int)})
    summaries = [job_summary(spans, selfs, job) for job in passes]
    lines = []
    metrics = {}
    for span, fields in SPAN_FIELDS.items():
        per_job = [summary.get(span, EMPTY) for summary in summaries] or [EMPTY]
        for fld in fields:
            vals = [rec[fld] for rec in per_job]
            if fld in ("calls", "full_calls"):
                value = vals[0]
                if len(set(vals)) > 1:
                    lines.append(f"WARNING: {span}.{fld} differs between traced passes: {vals}")
            else:
                value = statistics.median(vals)
            metrics[f"{span}.{fld}"] = metric(value, UNITS[fld])
    metrics["bounds.certified_ratio"] = metric(
        tally.certified / tally.certs if tally.certs else 0.0, "ratio")

    n = workload.full_order
    rates = [_steps_per_s(spans, job) for job in passes]
    metrics["simulation.steps_per_s"] = metric(statistics.median(rates or [0.0]), "1/s")
    if any(rates):
        full = statistics.median(_steps_per_s(spans, job, True) for job in passes)
        reduced = statistics.median(_steps_per_s(spans, job, False) for job in passes)
        lines.append(f"simulate: {full:.0f} steps/s on the full model (n = {n}), "
                     f"{reduced:.0f} steps/s on reduced models")
    workers = getattr(workload, "jobs", 0)
    busy = [worker_busy_frac(spans, job, workers) for job in passes] if workers else []
    metrics["cli.sweep.worker_busy_frac"] = metric(statistics.median(busy) if busy else 0.0, "ratio")
    metrics["trace.overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")

    setup = job_summary(spans, selfs, "setup")
    if setup:
        lines.append("set-up: " + ", ".join(
            f"{name} {rec['calls']} calls {rec['self_s']:.4f} s self"
            for name, rec in sorted(setup.items(), key=lambda kv: -kv[1]["self_s"])[:4]))
    if summaries:
        names = {name for summary in summaries for name in summary}
        med = {name: statistics.median(s.get(name, EMPTY)["self_s"] for s in summaries)
               for name in names}
        for name in sorted(names, key=lambda k: -med[k])[:10]:
            lines.append(f"{name}: {summaries[0].get(name, EMPTY)['calls']} calls, "
                         f"median self {med[name]:.4f} s per pass")
    return metrics, lines


def _steps_per_s(spans, job, full=None) -> float:
    """Integrator steps per second of simulate time in one pass;
    ``full`` selects the full or the reduced models."""
    sims = [s for s in spans if s.job == job and s.name == "simulation.simulate"
            and (full is None or s.full == full)]
    busy = sum(s.end - s.start for s in sims)
    return sum(s.size for s in sims) / busy if busy > 0 else 0.0
