"""The four workloads: set-up, one timed pass, and the output checks.

Each workload is chosen to stress a different part of tlbt:

- certify: ``tlbt reduce`` then ``tlbt bound`` on the dense n = 800 heat
  rod. expm, the Lyapunov/Sylvester solves, the separation checks and
  the PSD eigendecompositions do the work; nothing is simulated.
- certify-mass: the same two commands on a 400-state FEM rod with a
  consistent mass matrix, loaded from Matrix Market files that set-up
  writes. The only workload on the E branches and on mmio.
- validate: the paper's empirical cross-check through the Python API on
  n = 100. Simulation and input sampling do the work, Gramians little:
  the mirror image of certify.
- sweep: ``tlbt sweep`` over r = 1..20 on the README's n = 50 model with
  two worker threads, their shared lock and caches, and many small
  bounds. Many of its TLBT rows show the known soundness defect of the
  trace route (eps^2 below the reference integral, or ArithmeticError);
  they count as failures and are kept on purpose.

Every pass is checked after the timed region: certificates against the
benchmark's own reference integral, simulated errors against the
certified level, and every output against the first pass's output (the
inputs repeat, so the outputs must too).

Operations are timed in CPU seconds of the whole process (every
thread), which leave out the time the process waits for a CPU.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tlbt
import tlbt.cli
import tlbt.mmio

from .reference import error_references, standard_form

TBAR = 0.05
ORDER = 9
M_IN, P_OUT = 7, 6
# simulated error may exceed the certified level by rounding only
LEVEL_RTOL = 1e-6


def heat_rod(n, m=M_IN, p=P_OUT):
    """Finite-difference heat rod: A = (n+1)^2 tridiag(1, -2, 1), B the
    first m unit columns, C the last p unit rows."""
    h2 = float((n + 1) ** 2)
    a = h2 * (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
    return a, np.eye(n)[:, :m].copy(), np.eye(n)[n - p:, :].copy()


def fem_rod(n, m=M_IN, p=P_OUT):
    """Linear-FEM heat rod with a consistent mass matrix, h = 1/(n+1):
    A = -(1/h) tridiag(-1, 2, -1), E = (h/6) tridiag(1, 4, 1)."""
    h = 1.0 / (n + 1)
    off = np.ones(n - 1)
    a = -(1.0 / h) * (np.diag(2.0 * np.ones(n)) - np.diag(off, 1) - np.diag(off, -1))
    e = (h / 6.0) * (np.diag(4.0 * np.ones(n)) + np.diag(off, 1) + np.diag(off, -1))
    return a, e, np.eye(n)[:, :m].copy(), np.eye(n)[n - p:, :].copy()


def piecewise_tables(rng, count, m, tbar, blocks=8):
    """Unit-L2-norm piecewise-constant input tables on [0, tbar].

    Block values are uniform in [-1, 1]; each jump is a linear ramp of
    width 1e-9 of a block, so a table input reproduces the steps.
    """
    edges = np.linspace(0.0, tbar, blocks + 1)
    width = tbar / blocks
    ramp = 1e-9 * width
    times = np.ravel(np.column_stack([edges[:-1], edges[1:] - ramp]))
    tables = []
    for _ in range(count):
        vals = rng.uniform(-1.0, 1.0, size=(blocks, m))
        vals /= math.sqrt(float(np.sum(vals**2) * width))
        tables.append((times, np.repeat(vals, 2, axis=0)))
    return tables


def read_mtx(path):
    """Dense 'array real general' Matrix Market file (column-major)."""
    with open(path, encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("%")]
    rows, cols = (int(x) for x in lines[0].split())
    return np.array([float(x) for x in lines[1:]]).reshape(cols, rows).T


@dataclass
class Tally:
    """Operations attempted and failed, certificates attempted and
    passing the reference check, and reasons the run is not correct."""

    attempted: int = 0
    failed: int = 0
    certs: int = 0
    certified: int = 0
    notes: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if why and why not in self.notes:
                self.notes.append(why)

    def cert(self, ok: bool) -> None:
        self.certs += 1
        self.certified += ok


def _cli(argv):
    """One in-process tlbt invocation; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = tlbt.cli.main(argv)
    return rc, err.getvalue().strip()


class Workload:
    name = ""
    full_order = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.records: list = []

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def run_pass(self) -> dict:
        """Run one pass; return the CPU seconds of each timed operation."""
        raise NotImplementedError

    def check(self) -> Tally:
        raise NotImplementedError


class Certify(Workload):
    name = "certify"
    full_order = 800

    def model(self):
        """(A, E, B, C) of the model the commands receive; E may be None."""
        a, b, c = heat_rod(self.full_order)
        return a, None, b, c

    def model_spec(self) -> str:
        return f"gen:{self.full_order},{M_IN},{P_OUT}"

    def run_pass(self) -> dict:
        common = ["--model", self.model_spec(), "--tbar", str(TBAR), "--order", str(ORDER)]
        times, rec = {}, {}
        for cmd in ("reduce", "bound"):
            out = self.work / cmd
            t0 = time.process_time()
            rc, err = _cli([cmd, *common, "--out", str(out)])
            times[cmd] = time.process_time() - t0
            rec[cmd] = (rc, err)
        rec["rom"], rec["summary"], rec["eps"] = self._read_outputs()
        self.records.append(rec)
        return times

    def _read_outputs(self):
        rom = summary = eps = None
        with contextlib.suppress(OSError, ValueError):
            rom = tuple(read_mtx(self.work / "reduce" / f"rom_{k}.mtx") for k in "ABC")
            summary = json.loads((self.work / "reduce" / "summary.json").read_text())
        with contextlib.suppress(OSError, ValueError, KeyError):
            eps = float(json.loads((self.work / "bound" / "bound.json").read_text())["epsilon"])
        return rom, summary, eps

    def check(self) -> Tally:
        tally = Tally()
        first = next((r for r in self.records if r["rom"] is not None), None)
        first_eps = next((r["eps"] for r in self.records if r["eps"] is not None), None)
        ref = None
        if first is not None:
            a, e, b, c = self.model()
            a, b = standard_form(a, b, e)
            ref = self.reference = error_references(a, b, c, [first["rom"]], TBAR)[0]
        for rec in self.records:
            rc, err = rec["reduce"]
            ok = rc == 0 and rec["rom"] is not None and rec["summary"] is not None
            if ok and rec["summary"]["r"] != ORDER:
                tally.errors.append(f"reduce wrote order {rec['summary']['r']}, asked for {ORDER}")
            if ok and not all(np.array_equal(x, y) for x, y in zip(rec["rom"], first["rom"])):
                tally.errors.append("reduce gave different models on identical passes")
            tally.op(ok, f"reduce exit {rc}: {err}")
            rc, err = rec["bound"]
            ok = rc == 0 and rec["eps"] is not None and math.isfinite(rec["eps"])
            if ok and rec["eps"] != first_eps:
                tally.errors.append("bound gave different eps on identical passes")
            sound = ok and ref is not None and ref.admits(rec["eps"])
            tally.cert(sound)
            tally.op(sound, f"bound exit {rc}: {err}" if not ok else "eps^2 below the reference")
        return tally

    def describe(self) -> list:
        ref = getattr(self, "reference", None)
        eps = self.records[0]["eps"] if self.records else None
        if ref is None or eps is None:
            return []
        return [f"eps^2 = {eps * eps:.6e}, reference {ref.value:.6e} (slack {ref.slack:.1e}), "
                f"eps^2 / reference = {eps * eps / ref.value:.4g}"]


class CertifyMass(Certify):
    name = "certify-mass"
    full_order = 400

    def model(self):
        return fem_rod(self.full_order)

    def model_spec(self) -> str:
        return str(self.work / "model" / "manifest.json")

    def setup(self) -> None:
        super().setup()
        a, e, b, c = self.model()
        folder = self.work / "model"
        folder.mkdir(exist_ok=True)
        manifest = {}
        for role, mat in (("A", a), ("E", e), ("B", b), ("C", c)):
            tlbt.mmio.write_matrix(str(folder / f"{role}.mtx"), mat)
            manifest[role] = f"{role}.mtx"
        (folder / "manifest.json").write_text(json.dumps(manifest))


class Validate(Workload):
    name = "validate"
    full_order = 100
    orders = (4, 8)
    inputs = 20

    def setup(self) -> None:
        super().setup()
        a, b, c = heat_rod(self.full_order)
        self.system = tlbt.StateSpaceSystem(A=a, B=b, C=c, name="heat-100")
        tables = piecewise_tables(np.random.default_rng(self.seed), self.inputs, M_IN, TBAR)
        self.signals = [tlbt.InputSignal.from_table(t, v) for t, v in tables]
        self.dt = TBAR / 512

    def run_pass(self) -> dict:
        sys_, dt = self.system, self.dt
        rec = {"roms": None, "eps": None, "errors": []}
        t0 = time.process_time()
        try:
            gram = tlbt.time_limited_gramians(sys_, TBAR)
            bal = tlbt.balance(gram, sys_)
            roms = [tlbt.truncate(sys_, bal.reduce_to(r)) for r in self.orders]
            eps = [tlbt.tlbt_h2_bound(sys_, rom, gram.P, TBAR).epsilon for rom in roms]
        except Exception as exc:  # a failed certificate fails the whole pass
            rec["failure"] = f"{type(exc).__name__}: {exc}"
            roms = []
        else:
            rec["roms"], rec["eps"] = roms, eps
        for u in self.signals if roms else ():
            try:
                full = tlbt.simulate(sys_, u, TBAR, dt)
                unorm = tlbt.input_l2_norm(u, TBAR, dt)
                for rom, e in zip(roms, eps):
                    _, worst, _ = tlbt.output_error(full, tlbt.simulate(rom, u, TBAR, dt), TBAR)
                    rec["errors"].append((worst, e * unorm))
            except Exception as exc:
                rec["errors"].append((None, None))
                rec.setdefault("failure", f"{type(exc).__name__}: {exc}")
        elapsed = time.process_time() - t0
        self.records.append(rec)
        return {"validate": elapsed}

    def check(self) -> Tally:
        tally = Tally()
        first = next((r for r in self.records if r["roms"]), None)
        refs = []
        if first is not None:
            a, b, c = heat_rod(self.full_order)
            refs = error_references(a, b, c, [(r.A11, r.B1, r.C1) for r in first["roms"]], TBAR)
            self.references = refs
        per_pass = len(self.orders) * (1 + self.inputs)
        for rec in self.records:
            if not rec["roms"]:
                for _ in range(per_pass):
                    tally.op(False, rec.get("failure", ""))
                tally.certs += len(self.orders)
                continue
            if rec["eps"] != first["eps"] or rec["errors"] != first["errors"]:
                tally.errors.append("validate gave different results on identical passes")
            for eps, ref in zip(rec["eps"], refs):
                tally.cert(ref.admits(eps))
                tally.op(ref.admits(eps), "eps^2 below the reference")
            for worst, level in rec["errors"]:
                if worst is None:
                    tally.op(False, rec["failure"])
                else:
                    tally.op(worst <= level * (1.0 + LEVEL_RTOL), "simulated error above eps * ||u||")
            missing = len(self.orders) * self.inputs - len(rec["errors"])
            for _ in range(missing):
                tally.op(False, "input not simulated")
        return tally

    def describe(self) -> list:
        refs = getattr(self, "references", [])
        first = next((r for r in self.records if r["roms"]), None)
        if not refs or first is None:
            return []
        return [f"r = {r}: eps^2 / reference - 1 = {e * e / ref.value - 1:.2e} (slack {ref.slack:.1e})"
                for r, e, ref in zip(self.orders, first["eps"], refs)]


class Sweep(Workload):
    name = "sweep"
    full_order = 50
    values = tuple(range(1, 21))
    jobs = 2

    def run_pass(self) -> dict:
        argv = ["sweep", "--model", f"gen:{self.full_order},{M_IN},{P_OUT}", "--tbar", str(TBAR),
                "--axis", "r", "--values", ",".join(map(str, self.values)), "--input", "star",
                "--jobs", str(self.jobs), "--out", str(self.work / "sweep")]
        t0 = time.process_time()
        rc, err = _cli(argv)
        elapsed = time.process_time() - t0
        text = None
        with contextlib.suppress(OSError):
            text = (self.work / "sweep" / "sweep.csv").read_text()
        self.records.append({"rc": rc, "err": err, "text": text if rc == 0 else None})
        return {"sweep": elapsed}

    def _references(self):
        """Reference integral for each TLBT order, on the reduced models
        the sweep's own pipeline produces."""
        a, b, c = heat_rod(self.full_order)
        system = tlbt.StateSpaceSystem(A=a, B=b, C=c)
        bal = tlbt.balance(tlbt.time_limited_gramians(system, TBAR), system)
        orders = [r for r in self.values if r <= bal.r]
        roms = [tlbt.truncate(system, bal.reduce_to(r)) for r in orders]
        refs = error_references(a, b, c, [(x.A11, x.B1, x.C1) for x in roms], TBAR)
        unorm = tlbt.input_l2_norm(tlbt.InputSignal.star(), TBAR, TBAR / 256)
        return dict(zip(orders, refs)), unorm

    def check(self) -> Tally:
        tally = Tally()
        refs, unorm = self._references()
        self.rows = []
        first = next((r["text"] for r in self.records if r["text"] is not None), None)
        for rec in self.records:
            expected = 2 * len(self.values)
            if rec["text"] is None:
                for _ in range(expected):
                    tally.op(False, f"sweep exit {rec['rc']}: {rec['err']}")
                tally.certs += len(self.values)
                continue
            if rec["text"] != first:
                tally.errors.append("sweep gave different tables on identical invocations")
            rows = list(csv.reader(io.StringIO(rec["text"]), skipinitialspace=True))[1:]
            if len(rows) != expected or any(len(row) != 6 for row in rows):
                tally.errors.append(f"sweep wrote a malformed table: {len(rows)} rows, expected {expected}")
                rows = [row for row in rows if len(row) == 6]
            judged = [self._judge(row, refs, unorm) for row in rows]
            for row, (verdict, why) in zip(rows, judged):
                if row[1] == "TLBT":
                    tally.cert(verdict)
                tally.op(verdict, why.split(":")[0])
            if not self.rows:
                self.rows = [(row[0], row[1], why) for row, (v, why) in zip(rows, judged) if not v]
        return tally

    @staticmethod
    def _judge(row, refs, unorm):
        value, method, r, err, level, status = row
        if status != "ok":
            return False, f"error row: {status}"
        if method == "BT":
            return True, ""
        eps = float(level) / unorm
        if float(err) > float(level) * (1.0 + LEVEL_RTOL):
            return False, "simulated error above eps * ||u||"
        ref = refs.get(int(r))
        if ref is None:
            return False, "no reference for this order"
        if not ref.admits(eps):
            return False, f"eps^2 below the reference: eps^2 / reference - 1 = {eps * eps / ref.value - 1:.2e}"
        return True, ""

    def describe(self) -> list:
        return [f"failing row: r = {v} {m}: {why}" for v, m, why in getattr(self, "rows", [])]


WORKLOADS = {w.name: w for w in (Certify, CertifyMass, Validate, Sweep)}
