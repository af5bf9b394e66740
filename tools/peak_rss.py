"""Run one ``tlbt`` command in a fresh child process and print the
child's peak resident set size and CPU seconds:

    python tools/peak_rss.py bound --model gen:3200,7,6 --tbar 0.05 --order 9 --out OUTDIR

The arguments are those of ``tlbt``. The child imports the package from
the ``src`` folder next to this script and starts with
OPENBLAS_NUM_THREADS (and OMP_NUM_THREADS, MKL_NUM_THREADS) set to 1, so
BLAS runs one thread. The peak is ``ru_maxrss`` of RUSAGE_CHILDREN in
MB of 2^20 bytes; the CPU seconds are its user plus system time and
include the interpreter's start and the imports. The exit status is the
child's. To compare two checkouts, run each one's copy of this script.
"""
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = "import sys; from tlbt.cli import main; sys.exit(main(sys.argv[1:]))"


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=path)
    rc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env).returncode
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"cpu_s {usage.ru_utime + usage.ru_stime:.3f}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
