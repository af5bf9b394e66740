"""Time ``tlbt.mmio.read_matrix`` on four dense Matrix Market files:

    python tools/read_timing.py

The files, written by ``write_matrix`` into a temporary folder:

- the A and E of the 400-state linear-FEM heat rod of
  ``tools/golden_outputs.py``, mostly ``0`` and ``-0`` tokens;
- a 400 x 400 standard-normal matrix (seed 0), 17-digit tokens alone;
- a 9 x 9 standard-normal matrix (seed 1), the size of a reduced model.

For each it prints the file size and the least of 21 reads in ms. The
script sets OPENBLAS_NUM_THREADS=1 before numpy loads, pins its own
process to one CPU, and imports the package from the ``src`` folder next
to it. To compare two checkouts, run each one's copy of this script.
"""
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from golden_outputs import fem_rod  # noqa: E402
from tlbt.mmio import read_matrix, write_matrix  # noqa: E402

REPEATS = 21


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rod = fem_rod(400, 7, 6)
    matrices = {"fem-400 A": rod["A"], "fem-400 E": rod["E"],
                "normal 400 x 400": np.random.default_rng(0).standard_normal((400, 400)),
                "normal 9 x 9": np.random.default_rng(1).standard_normal((9, 9))}
    with tempfile.TemporaryDirectory() as folder:
        for k, (name, a) in enumerate(matrices.items()):
            path = os.path.join(folder, f"{k}.mtx")
            write_matrix(path, a)
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                read_matrix(path)
                times.append(time.perf_counter() - start)
            print(f"{name:18s} {os.path.getsize(path):9d} bytes {1e3 * min(times):8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
