"""Command-line front end: model generation, reduction, bounds,
simulation, and the r / tbar / tau experiment sweeps.

Artifacts are CSV and JSON files written atomically (write to a
temporary file in the destination directory, then rename), so a crashed
run never leaves a torn file. Every CSV file is built by ``_csv``: a
header line, then one line per row, fields separated by ", ". Numeric
CSV fields use 17 significant digits and parse back to the in-memory
float64 values. Tables read by ``--input table:path`` are ASCII, and a
non-ASCII byte is refused with the path and line number.

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
import functools
import json
import os
import sys as _sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .balancing import balance, select_order, truncate
from .bounds import _epsilon, tlbt_h2_bound, tlbt_h2_bound_alt
from .config import ExperimentConfig
from .gramians import infinite_gramians, time_limited_gramians
from .mmio import write_matrix
from .simulation import _grid_steps, input_l2_norm, output_error, simulate
from .systems import InputSignal, generate_heat_model, load_system

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv(header, rows) -> str:
    """CSV text of the field names ``header`` and then the ``rows``, each
    line's fields separated by ", "."""
    return "".join(", ".join(fields) + "\n" for fields in [header, *rows])


def _atomic_write(path: str, content) -> str:
    """Write ``path`` through a temporary file in the destination
    directory, renamed into place; ``path``. ``content`` is a str,
    written as ASCII text; a dict, written as indented JSON with sorted
    keys; or a callable ``write(tmp)`` that writes the temporary file
    itself. The temporary file is created with mode 0o666 less the
    umask, as ``open(path, "w")`` would create ``path`` itself."""
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
    return path


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
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        for lineno, line in enumerate(lines, start=1):
            try:
                line = line.decode("ascii").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{line[exc.start]:02x}; "
                                 "input tables are ASCII") from None
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


def _checked_model(cfg: ExperimentConfig):
    """The model of reduce/bound/simulate, parsed once the config has
    its order control and its horizon."""
    cfg.require_order_control()
    if cfg.tbar is None:
        raise ValueError("tbar is required")
    return parse_model(cfg.model)


def _reduce_pipeline(cfg: ExperimentConfig, system):
    """Shared middle of reduce/bound/simulate: Gramians, balancing,
    order choice, truncation."""
    gramians = time_limited_gramians(system, cfg.tbar)
    bal = balance(gramians, system)
    if cfg.r is not None:
        r = cfg.r
    else:
        r = select_order(bal.singular_values, cfg.tau)
    rom = truncate(system, bal.reduce_to(r))
    return gramians, bal, r, rom


def _write_model(out: str, prefix: str, roles, comment) -> list[str]:
    """Write each (role, matrix) of ``roles`` to ``<prefix><role>.mtx``
    in ``out``, headed by ``comment(role)``, then the manifest
    ``<prefix>manifest.json`` that maps each role to its file; the
    paths written."""
    files, manifest = [], {}
    for role, mat in roles:
        manifest[role] = f"{prefix}{role}.mtx"
        files.append(_atomic_write(os.path.join(out, manifest[role]),
                                   lambda tmp: write_matrix(tmp, mat, comment(role))))
    files.append(_atomic_write(os.path.join(out, prefix + "manifest.json"), manifest))
    return files


def _write_rom(out: str, rom, bal, system, cfg: ExperimentConfig) -> list[str]:
    sigma = bal.singular_values
    files = _write_model(out, "rom_", (("A", rom.A11), ("B", rom.B1), ("C", rom.C1)),
                         lambda role: f"order-{rom.r} reduced model, horizon {_fmt(rom.horizon)}")
    rows = ((str(i), _fmt(s)) for i, s in enumerate(sigma, start=1))
    files.append(_atomic_write(os.path.join(out, "singular_values.csv"), _csv(("i", "sigma"), rows)))
    summary = {
        "n": system.n,
        "m": system.m,
        "p": system.p,
        "r": rom.r,
        "tbar": cfg.tbar,
        "n_hat": bal.n_hat,
        "sigma_tail_sum": float(np.sum(sigma[rom.r:])),
    }
    files.append(_atomic_write(os.path.join(out, "summary.json"), summary))
    return files


def cmd_gen_model(cfg: ExperimentConfig) -> list[str]:
    system = parse_model(cfg.model)
    os.makedirs(cfg.out, exist_ok=True)
    roles = [("A", system.A), ("B", system.B), ("C", system.C)]
    if system.E is not None:
        roles.append(("E", system.E))
    return _write_model(cfg.out, "", roles, lambda role: f"{system.name} {role}, n = {system.n}")


def cmd_reduce(cfg: ExperimentConfig) -> list[str]:
    system = _checked_model(cfg)
    _, bal, _, rom = _reduce_pipeline(cfg, system)
    os.makedirs(cfg.out, exist_ok=True)
    return _write_rom(cfg.out, rom, bal, system, cfg)


def cmd_bound(cfg: ExperimentConfig, verify: bool = False) -> list[str]:
    system = _checked_model(cfg)
    gramians, bal, r, rom = _reduce_pipeline(cfg, system)
    report = tlbt_h2_bound(system, rom, gramians, cfg.tbar)
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
    return [_atomic_write(os.path.join(cfg.out, "bound.json"), data)]


def cmd_simulate(cfg: ExperimentConfig) -> list[str]:
    if cfg.tbar is None:
        raise ValueError("tbar is required")
    tend = cfg.tend if cfg.tend is not None else cfg.tbar
    if tend < cfg.tbar:
        raise ValueError(f"tend = {tend} is shorter than the horizon tbar = {cfg.tbar}")
    dt = cfg.dt if cfg.dt is not None else cfg.tbar / 512
    # both grids, before any work: the input norm is taken on [0, tbar]
    _grid_steps(cfg.tbar, dt, "tbar")
    _grid_steps(tend, dt, "tend")
    # the model and the input too, before any Gramian work
    system = _checked_model(cfg)
    u = parse_input(cfg.input, system.m)
    _, _, r, rom = _reduce_pipeline(cfg, system)
    full = simulate(system, u, tend, dt)
    reduced = simulate(rom, u, tend, dt)
    err, max_tbar, max_total = output_error(full, reduced, cfg.tbar)
    epsilon = _epsilon(system, rom, cfg.tbar)[0]
    unorm = input_l2_norm(u, cfg.tbar, dt)
    level = epsilon * unorm
    os.makedirs(cfg.out, exist_ok=True)
    files = [_atomic_write(os.path.join(cfg.out, name), traj.save_csv)
             for name, traj in (("y_full.csv", full), ("y_reduced.csv", reduced))]
    rows = ((_fmt(t), _fmt(e), _fmt(level)) for t, e in zip(full.times, err))
    files.append(_atomic_write(os.path.join(cfg.out, "error.csv"), _csv(("t", "err", "bound_level"), rows)))
    data = {
        "max_error_tbar": max_tbar,
        "max_error_total": max_total,
        "bound_level": level,
        "epsilon": epsilon,
        "input_l2_tbar": unorm,
        "tbar": cfg.tbar,
        "tend": tend,
        "dt": dt,
        "r": r,
    }
    files.append(_atomic_write(os.path.join(cfg.out, "max_error.json"), data))
    return files


def _sweep_rows(cfg: ExperimentConfig, axis: str, values, jobs: int):
    """The BT and TLBT rows of each sweep value, in order. Work the rows
    share (balancings, full-model trajectories, input norms) runs once,
    queued ahead of them; its failure is reported on every row reading it."""
    system = parse_model(cfg.model)
    u = parse_input(cfg.input, system.m)
    tbars = [float(value) if axis == "tbar" else cfg.tbar for value in values]
    horizons = list(dict.fromkeys(tbars))

    def step(tbar: float) -> float:
        return cfg.dt if cfg.dt is not None else tbar / 256

    def balanced(method, tbar):
        g = infinite_gramians(system) if method == "BT" else time_limited_gramians(system, tbar)
        return balance(g, system)

    def one(value, method, tbar):
        row = {"value": value, "method": method, "r": "", "max_error_tbar": "",
               "bound_level": "", "status": "ok"}
        try:
            bal = balances[(method, tbar if method == "TLBT" else None)].result()
            if axis == "r":
                r = int(value)
            elif axis == "tau":
                r = select_order(bal.singular_values, float(value))
            else:
                r = cfg.r if cfg.r is not None else select_order(bal.singular_values, cfg.tau)
            rom = truncate(system, bal.reduce_to(r))
            row["r"] = r
            full = fulls[tbar].result()
            reduced = simulate(rom, u, tbar, step(tbar))
            _, max_tbar, _ = output_error(full, reduced, tbar)
            row["max_error_tbar"] = _fmt(max_tbar)
            if method == "TLBT":
                epsilon = _epsilon(system, rom, tbar)[0]
                row["bound_level"] = _fmt(epsilon * norms[tbar].result())
        except Exception as exc:
            msg = f"{type(exc).__name__}: {exc}".replace("\n", "; ").replace(",", ";")
            row["status"] = f"error: {msg}"
        return row

    # All shared work is queued before the first row and the workers take
    # tasks in queue order, so a row waits only on work a worker has
    # already taken: no number of workers, one included, can deadlock.
    keys = [("BT", None)] + [("TLBT", t) for t in horizons]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        balances = {key: pool.submit(balanced, *key) for key in keys}
        fulls = {t: pool.submit(simulate, system, u, t, step(t)) for t in horizons}
        norms = {t: pool.submit(input_l2_norm, u, t, step(t)) for t in horizons}
        rows = [pool.submit(one, value, method, tbar)
                for value, tbar in zip(values, tbars) for method in ("BT", "TLBT")]
        return [f.result() for f in rows]


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
    if cfg.dt is not None:
        # every horizon's grid, before any work
        for tbar in values if axis == "tbar" else [cfg.tbar]:
            _grid_steps(tbar, cfg.dt, "tbar")
    rows = _sweep_rows(cfg, axis, values, jobs)
    os.makedirs(cfg.out, exist_ok=True)
    for row in rows:
        row["value"] = str(row["value"]) if axis == "r" else _fmt(row["value"])
    header = ("value", "method", "r", "max_error_tbar", "bound_level", "status")
    return [_atomic_write(os.path.join(cfg.out, "sweep.csv"),
                          _csv(header, ([str(row[k]) for k in header] for row in rows)))]


@functools.cache
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
