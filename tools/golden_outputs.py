"""Write the command-line outputs of a fixed set of runs into OUTDIR, so
that the outputs of two checkouts can be compared byte for byte:

    python tools/golden_outputs.py OUTDIR_A      # in one checkout
    python tools/golden_outputs.py OUTDIR_B      # in the other
    diff -r OUTDIR_A OUTDIR_B

(``python tools/compare_outputs.py OUTDIR_A OUTDIR_B`` gives each
file's largest relative difference instead, where rounding may move.)

The runs, at tbar = 0.05 unless said otherwise:

- ``reduce`` and ``bound`` on gen:800,7,6 (order 9), gen:50,7,6
  (order 12) and gen:100,7,6 (order 8);
- ``reduce`` and ``bound`` on three models written as Matrix Market
  files with a manifest under OUTDIR/models: a 400-state linear-FEM heat
  rod with a consistent mass matrix (order 9), and gen:100,7,6 with
  upwind advection 20 (e_{k+1} - e_k) added to A, with the flow and
  against it (order 8);
- ``bound --verify`` on gen:40,40,40, order 4, tbar = 0.5;
- the README's ``simulate`` on gen:50,7,6 (order 6, star input, to
  tend = 0.2);
- the README's sweep over r = 1..20 on gen:50,7,6 with the star input
  and 2 workers, and its sweep over tbar = 0.02, 0.05, 0.1 at order 6.

Each run writes to OUTDIR/<model>/<command>, and its printed output
and exit status go to OUTDIR/status.txt. Paths are given relative to
OUTDIR, so no output names the directory. The script sets
OPENBLAS_NUM_THREADS=1 for its own process before numpy loads, and
imports the package from the ``src`` folder next to it. It compares
nothing and pins nothing.
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from tlbt import generate_heat_model  # noqa: E402
from tlbt.cli import main as tlbt_main  # noqa: E402
from tlbt.mmio import write_matrix  # noqa: E402

TBAR = "0.05"


def fem_rod(n, m, p):
    """A = -(1/h) tridiag(-1, 2, -1), E = (h/6) tridiag(1, 4, 1) with
    h = 1/(n+1); B the first m unit columns, C the last p unit rows."""
    h = 1.0 / (n + 1)
    off = np.ones(n - 1)
    a = -(np.diag(2.0 * np.ones(n)) - np.diag(off, 1) - np.diag(off, -1)) / h
    e = h / 6.0 * (np.diag(4.0 * np.ones(n)) + np.diag(off, 1) + np.diag(off, -1))
    return {"A": a, "E": e, "B": np.eye(n)[:, :m], "C": np.eye(n)[n - p:, :]}


def upwind_rod(shift):
    """gen:100,7,6 plus 20 (e_{k+1} - e_k) (shift -1, with the flow) or
    20 (e_{k-1} - e_k) (shift 1, against it) in A."""
    heat = generate_heat_model(100, 7, 6)
    a = heat.A + 20.0 * (np.eye(100, k=shift) - np.eye(100))
    return {"A": a, "B": heat.B, "C": heat.C}


def write_model(name, roles) -> str:
    folder = Path("models") / name
    folder.mkdir(parents=True)
    for role, mat in roles.items():
        write_matrix(str(folder / f"{role}.mtx"), mat)
    (folder / "manifest.json").write_text(json.dumps({role: f"{role}.mtx" for role in roles}))
    return str(folder / "manifest.json")


def run(status, *argv) -> None:
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        rc = tlbt_main([str(a) for a in argv])
    status.write(f"$ tlbt {' '.join(map(str, argv))}\n{text.getvalue()}exit {rc}\n\n")


def main(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=False)
    os.chdir(out)
    models = {"gen-800": ("gen:800,7,6", 9), "gen-50": ("gen:50,7,6", 12), "gen-100": ("gen:100,7,6", 8),
              "fem-400": (write_model("fem-400", fem_rod(400, 7, 6)), 9),
              "upwind-100": (write_model("upwind-100", upwind_rod(-1)), 8),
              "against-the-flow-100": (write_model("against-the-flow-100", upwind_rod(1)), 8)}
    with open("status.txt", "w", encoding="utf-8") as status:
        for name, (model, order) in models.items():
            for command in ("reduce", "bound"):
                run(status, command, "--model", model, "--tbar", TBAR, "--order", order,
                    "--out", f"{name}/{command}")
        run(status, "bound", "--model", "gen:40,40,40", "--tbar", "0.5", "--order", 4,
            "--out", "gen-40/verify", "--verify")
        run(status, "simulate", "--model", "gen:50,7,6", "--tbar", TBAR, "--tend", "0.2", "--order", 6,
            "--input", "star", "--out", "gen-50/simulate")
        run(status, "sweep", "--model", "gen:50,7,6", "--tbar", TBAR, "--axis", "r",
            "--values", ",".join(map(str, range(1, 21))), "--input", "star", "--jobs", 2,
            "--out", "gen-50/sweep")
        run(status, "sweep", "--model", "gen:50,7,6", "--axis", "tbar", "--values", "0.02,0.05,0.1",
            "--order", 6, "--input", "star", "--jobs", 2, "--out", "gen-50/tbar-sweep")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/golden_outputs.py OUTDIR")
    sys.exit(main(sys.argv[1]))
