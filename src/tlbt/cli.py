"""Command-line front end: model generation, reduction, bounds,
simulation, and the r / tbar / tau experiment sweeps.

Artifacts are CSV and JSON files written atomically (write to a
temporary file in the destination directory, then rename), so a crashed
run never leaves a torn file. Numeric CSV fields use 17 significant
digits and parse back to the in-memory float64 values.

Subcommands
-----------
gen-model   write a generated model as Matrix Market files plus manifest
reduce      balance and truncate, writing ROM matrices and singular values
bound       evaluate the output-error bound, optionally cross-checking
            the balanced-coordinates representation (--verify)
simulate    integrate full and reduced models, writing trajectories and
            the error series against the bound level
sweep       tabulate BT vs. time-limited BT over r, tbar, or tau values
"""
from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .balancing import balance, select_order, truncate
from .bounds import tlbt_h2_bound, tlbt_h2_bound_alt
from .config import ExperimentConfig
from .gramians import infinite_gramians, time_limited_gramians
from .mmio import write_matrix
from .simulation import input_l2_norm, output_error, simulate
from .systems import InputSignal, generate_heat_model, load_system

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, content) -> None:
    """Write ``path`` through a temporary file in the destination
    directory, renamed into place. ``content`` is a str, written as
    ASCII text; a dict, written as indented JSON with sorted keys; or a
    callable ``write(tmp)`` that writes the temporary file itself. The
    temporary file is created with mode 0o666 less the umask, as
    ``open(path, "w")`` would create ``path`` itself."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        if isinstance(content, str):
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(content)
        else:
            content(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_model(spec: str):
    """Model from ``gen:n,m,p`` or from a JSON manifest path."""
    if spec.startswith("gen:"):
        parts = spec[len("gen:"):].split(",")
        if len(parts) != 3:
            raise ValueError(f"model spec {spec!r} must be gen:n,m,p")
        try:
            n, m, p = (int(s) for s in parts)
        except ValueError:
            raise ValueError(f"model spec {spec!r} has non-integer dimensions") from None
        return generate_heat_model(n, m, p)
    return load_system(spec)


def parse_input(spec: str, m: int) -> InputSignal:
    """Input signal from a ``const:c`` / ``star`` / ``zero`` / ``table:path`` spec."""
    if spec == "star":
        if m != 7:
            raise ValueError(f"the star input has 7 channels but the model has m = {m}")
        return InputSignal.star()
    if spec == "zero":
        return InputSignal.zero(m)
    if spec.startswith("const:"):
        try:
            vals = [float(s) for s in spec[len("const:"):].split(",")]
        except ValueError:
            raise ValueError(f"input spec {spec!r} has non-numeric values") from None
        if len(vals) == 1:
            vals = vals * m
        if len(vals) != m:
            raise ValueError(f"input spec {spec!r} has {len(vals)} channels but the model has m = {m}")
        return InputSignal.constant(vals)
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        if not os.path.exists(path):
            raise FileNotFoundError(f"input table not found: {path}")
        rows, header = [], False
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([float(s) for s in line.split(",")])
                except ValueError:
                    # a first non-blank line with letters that is not a number row is a header
                    if not (rows or header) and any(c.isalpha() for c in line):
                        header = True
                        continue
                    raise ValueError(f"{path}:{lineno}: non-numeric table row") from None
        if not rows:
            raise ValueError(f"input table {path} has no data rows")
        table = np.array(rows)
        if table.shape[1] != m + 1:
            raise ValueError(
                f"input table {path} has {table.shape[1] - 1} channels but the model has m = {m}"
            )
        return InputSignal.from_table(table[:, 0], table[:, 1:])
    raise ValueError(f"unknown input spec {spec!r}; use const:c, star, zero, or table:path")


def _reduce_pipeline(cfg: ExperimentConfig):
    """Shared front half of reduce/bound/simulate: model, Gramians,
    balancing, order choice, truncation."""
    cfg.require_order_control()
    if cfg.tbar is None:
        raise ValueError("tbar is required")
    system = parse_model(cfg.model)
    gramians = time_limited_gramians(system, cfg.tbar)
    bal = balance(gramians, system)
    if cfg.r is not None:
        r = cfg.r
    else:
        r = select_order(bal.singular_values, cfg.tau)
    rom = truncate(system, bal.reduce_to(r))
    return system, gramians, bal, r, rom


def _write_rom(out: str, rom, bal, system, cfg: ExperimentConfig) -> list[str]:
    sigma = bal.singular_values
    files = []
    for name, mat in (("rom_A", rom.A11), ("rom_B", rom.B1), ("rom_C", rom.C1)):
        path = os.path.join(out, name + ".mtx")
        comment = f"order-{rom.r} reduced model, horizon {_fmt(rom.horizon)}"
        _atomic_write(path, lambda tmp: write_matrix(tmp, mat, comment))
        files.append(path)
    manifest = {"A": "rom_A.mtx", "B": "rom_B.mtx", "C": "rom_C.mtx"}
    path = os.path.join(out, "rom_manifest.json")
    _atomic_write(path, manifest)
    files.append(path)
    lines = ["i, sigma"]
    for i, s in enumerate(sigma, start=1):
        lines.append(f"{i}, {_fmt(s)}")
    path = os.path.join(out, "singular_values.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    files.append(path)
    summary = {
        "n": system.n,
        "m": system.m,
        "p": system.p,
        "r": rom.r,
        "tbar": cfg.tbar,
        "n_hat": bal.n_hat,
        "sigma_tail_sum": float(np.sum(sigma[rom.r:])),
    }
    path = os.path.join(out, "summary.json")
    _atomic_write(path, summary)
    files.append(path)
    return files


def cmd_gen_model(cfg: ExperimentConfig) -> list[str]:
    system = parse_model(cfg.model)
    os.makedirs(cfg.out, exist_ok=True)
    files = []
    manifest = {}
    roles = [("A", system.A), ("B", system.B), ("C", system.C)]
    if system.E is not None:
        roles.append(("E", system.E))
    for role, mat in roles:
        path = os.path.join(cfg.out, role + ".mtx")
        comment = f"{system.name} {role}, n = {system.n}"
        _atomic_write(path, lambda tmp: write_matrix(tmp, mat, comment))
        manifest[role] = role + ".mtx"
        files.append(path)
    path = os.path.join(cfg.out, "manifest.json")
    _atomic_write(path, manifest)
    files.append(path)
    return files


def cmd_reduce(cfg: ExperimentConfig) -> list[str]:
    system, _, bal, _, rom = _reduce_pipeline(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    return _write_rom(cfg.out, rom, bal, system, cfg)


def cmd_bound(cfg: ExperimentConfig, verify: bool = False) -> list[str]:
    system, gramians, bal, r, rom = _reduce_pipeline(cfg)
    report = tlbt_h2_bound(system, rom, gramians.P, cfg.tbar)
    data = report.to_dict()
    if verify:
        alt = tlbt_h2_bound_alt(system, gramians, r)
        data["alt_leading"] = alt.leading
        data["alt_remainder"] = alt.remainder
        data["alt_last"] = alt.last
        data["epsilon_squared_alt"] = alt.epsilon_squared
        # the paper's identity: the balanced-coordinates form equals the trace form
        trace = report.term_cpc + report.term_cprc - 2.0 * report.term_cpmc
        data["representation_discrepancy"] = abs(alt.epsilon_squared - trace)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "bound.json")
    _atomic_write(path, data)
    return [path]


def cmd_simulate(cfg: ExperimentConfig) -> list[str]:
    system, gramians, bal, r, rom = _reduce_pipeline(cfg)
    u = parse_input(cfg.input, system.m)
    tend = cfg.tend if cfg.tend is not None else cfg.tbar
    if tend < cfg.tbar:
        raise ValueError(f"tend = {tend} is shorter than the horizon tbar = {cfg.tbar}")
    dt = cfg.dt if cfg.dt is not None else cfg.tbar / 512
    full = simulate(system, u, tend, dt)
    reduced = simulate(rom, u, tend, dt)
    err, max_tbar, max_total = output_error(full, reduced, cfg.tbar)
    report = tlbt_h2_bound(system, rom, gramians.P, cfg.tbar)
    unorm = input_l2_norm(u, cfg.tbar, dt)
    level = report.epsilon * unorm
    os.makedirs(cfg.out, exist_ok=True)
    files = []
    for name, traj in (("y_full.csv", full), ("y_reduced.csv", reduced)):
        path = os.path.join(cfg.out, name)
        _atomic_write(path, traj.save_csv)
        files.append(path)
    lines = ["t, err, bound_level"]
    for t, e in zip(full.times, err):
        lines.append(f"{_fmt(t)}, {_fmt(e)}, {_fmt(level)}")
    path = os.path.join(cfg.out, "error.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    files.append(path)
    data = {
        "max_error_tbar": max_tbar,
        "max_error_total": max_total,
        "bound_level": level,
        "epsilon": report.epsilon,
        "input_l2_tbar": unorm,
        "tbar": cfg.tbar,
        "tend": tend,
        "dt": dt,
        "r": r,
    }
    path = os.path.join(cfg.out, "max_error.json")
    _atomic_write(path, data)
    files.append(path)
    return files


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _settled(result):
    """The value of an ``_attempt``; re-raises the exception it caught."""
    if isinstance(result, Exception):
        raise result
    return result


def _sweep_rows(cfg: ExperimentConfig, axis: str, values, jobs: int):
    """BT and TLBT rows per sweep value. The balancings, the full-model
    trajectories and the input norms shared by rows are computed once, up
    front; a failure there is reported on every row that needs it."""
    system = parse_model(cfg.model)
    u = parse_input(cfg.input, system.m)
    tbars = [float(value) if axis == "tbar" else cfg.tbar for value in values]
    horizons = list(dict.fromkeys(tbars))

    def step(tbar: float) -> float:
        return cfg.dt if cfg.dt is not None else tbar / 256

    def balanced(key):
        method, tbar = key
        g = infinite_gramians(system) if method == "BT" else time_limited_gramians(system, tbar)
        # each read of g.P forms P, so the TLBT rows' bounds share this one
        return (g.P if method == "TLBT" else None), balance(g, system)

    def one(value, tbar):
        rows = []
        for method in ("BT", "TLBT"):
            row = {"value": value, "method": method, "r": "", "max_error_tbar": "",
                   "bound_level": "", "status": "ok"}
            try:
                p_tbar, bal = _settled(balances[(method, tbar if method == "TLBT" else None)])
                if axis == "r":
                    r = int(value)
                elif axis == "tau":
                    r = select_order(bal.singular_values, float(value))
                else:
                    r = cfg.r if cfg.r is not None else select_order(bal.singular_values, cfg.tau)
                rom = truncate(system, bal.reduce_to(r))
                row["r"] = r
                full = _settled(fulls[tbar])
                reduced = simulate(rom, u, tbar, step(tbar))
                _, max_tbar, _ = output_error(full, reduced, tbar)
                row["max_error_tbar"] = _fmt(max_tbar)
                if method == "TLBT":
                    report = tlbt_h2_bound(system, rom, p_tbar, tbar)
                    row["bound_level"] = _fmt(report.epsilon * _settled(norms[tbar]))
            except Exception as exc:
                msg = f"{type(exc).__name__}: {exc}".replace("\n", "; ").replace(",", ";")
                row["status"] = f"error: {msg}"
            rows.append(row)
        return rows

    keys = [("BT", None)] + [("TLBT", t) for t in horizons]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        balances = dict(zip(keys, pool.map(lambda key: _attempt(balanced, key), keys)))
        fulls = dict(zip(horizons, pool.map(lambda t: _attempt(simulate, system, u, t, step(t)), horizons)))
        norms = {t: _attempt(input_l2_norm, u, t, step(t)) for t in horizons}
        nested = list(pool.map(one, values, tbars))
    return [row for group in nested for row in group]


def cmd_sweep(cfg: ExperimentConfig, axis: str, values, jobs: int = 1) -> list[str]:
    if axis not in ("r", "tbar", "tau"):
        raise ValueError(f"axis must be one of r, tbar, tau; got {axis!r}")
    if not values:
        raise ValueError("sweep values must be nonempty")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if axis == "tbar":
        cfg.require_order_control()
    elif cfg.tbar is None:
        raise ValueError("tbar is required")
    rows = _sweep_rows(cfg, axis, values, jobs)
    os.makedirs(cfg.out, exist_ok=True)
    lines = ["value, method, r, max_error_tbar, bound_level, status"]
    for row in rows:
        value = row["value"]
        vtxt = str(value) if axis == "r" else _fmt(value)
        lines.append(", ".join([vtxt, row["method"], str(row["r"]),
                                row["max_error_tbar"], row["bound_level"], row["status"]]))
    path = os.path.join(cfg.out, "sweep.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return [path]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlbt",
        description="balanced truncation with time-limited Gramians and output-error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="gen:n,m,p or path to a JSON manifest")
    common.add_argument("--tbar", type=float, help="bound/Gramian horizon")
    common.add_argument("--dt", type=float, help="simulation step")
    common.add_argument("--tend", type=float, help="simulation end time (default tbar)")
    common.add_argument("--order", type=int, dest="r", help="reduced order r")
    common.add_argument("--tol", type=float, dest="tau", help="singular-value tail tolerance")
    common.add_argument("--input", help="const:c | star | zero | table:path")
    common.add_argument("--out", help="output directory")
    common.add_argument("--config", help="JSON config file; explicit flags override it")
    sub.add_parser("gen-model", parents=[common], help="write model matrices and manifest")
    sub.add_parser("reduce", parents=[common], help="balance, truncate, write the ROM")
    pb = sub.add_parser("bound", parents=[common], help="evaluate the output-error bound")
    pb.add_argument("--verify", action="store_true",
                    help="also evaluate the balanced-coordinates representation")
    sub.add_parser("simulate", parents=[common], help="integrate full and reduced models")
    ps = sub.add_parser("sweep", parents=[common], help="tabulate BT vs TLBT over an axis")
    ps.add_argument("--axis", required=True, choices=("r", "tbar", "tau"))
    ps.add_argument("--values", required=True,
                    help="comma-separated axis values (ints for r, reals otherwise)")
    ps.add_argument("--jobs", type=int, default=1, help="concurrent sweep workers")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    data: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            data = json.loads(fh.read())
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    for field in ("model", "tbar", "dt", "tend", "r", "tau", "input", "out"):
        val = getattr(args, field, None)
        if val is not None:
            data[field] = val
    if data.get("model") is None:
        raise ValueError("--model (or a config file with one) is required")
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "gen-model":
            files = cmd_gen_model(cfg)
        elif args.command == "reduce":
            files = cmd_reduce(cfg)
        elif args.command == "bound":
            files = cmd_bound(cfg, verify=args.verify)
        elif args.command == "simulate":
            files = cmd_simulate(cfg)
        else:
            if args.axis == "r":
                values = [int(s) for s in args.values.split(",")]
            else:
                values = [float(s) for s in args.values.split(",")]
            files = cmd_sweep(cfg, args.axis, values, jobs=args.jobs)
    except Exception as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
