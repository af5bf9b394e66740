"""Time ``tlbt.mmio.read_matrix`` on four dense Matrix Market files, and
``tlbt.load_system`` on the FEM rod's manifest:

    python tools/read_timing.py

The inputs, written by ``write_matrix`` into a temporary folder, in the
order they are timed:

- the A and E of the 400-state linear-FEM heat rod of
  ``tools/golden_outputs.py``, mostly ``0`` and ``-0`` tokens;
- the rod's manifest of A, E, B and C, as ``tlbt reduce`` and ``tlbt
  bound`` each load it;
- a 400 x 400 standard-normal matrix (seed 0), 17-digit tokens alone;
- a 9 x 9 standard-normal matrix (seed 1), the size of a reduced model.

For each it prints the file size (for the manifest, that of its four
files) and the least and the median of 21 reads in ms. The script sets
OPENBLAS_NUM_THREADS=1 before numpy loads, pins its own process to one
CPU, and imports the package from the ``src`` folder next to it. To
compare two checkouts, run each one's copy of this script.
"""
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from golden_outputs import fem_rod  # noqa: E402
from tlbt import load_system  # noqa: E402
from tlbt.mmio import read_matrix, write_matrix  # noqa: E402

REPEATS = 21


def timed(name, size, read, path) -> None:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        read(path)
        times.append(time.perf_counter() - start)
    print(f"{name:18s} {size:9d} bytes {1e3 * min(times):8.3f} ms least"
          f" {1e3 * statistics.median(times):8.3f} ms median")


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rod = fem_rod(400, 7, 6)
    normals = {"normal 400 x 400": np.random.default_rng(0).standard_normal((400, 400)),
               "normal 9 x 9": np.random.default_rng(1).standard_normal((9, 9))}
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for name, a in list(rod.items()) + list(normals.items()):
            paths[name] = os.path.join(folder, f"{len(paths)}.mtx")
            write_matrix(paths[name], a)
        manifest = os.path.join(folder, "manifest.json")
        with open(manifest, "w", encoding="ascii") as fh:
            json.dump({role: os.path.basename(paths[role]) for role in rod}, fh)
        size = os.path.getsize
        timed("fem-400 A", size(paths["A"]), read_matrix, paths["A"])
        timed("fem-400 E", size(paths["E"]), read_matrix, paths["E"])
        timed("fem-400 manifest", sum(size(paths[role]) for role in rod), load_system, manifest)
        for name in normals:
            timed(name, size(paths[name]), read_matrix, paths[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
