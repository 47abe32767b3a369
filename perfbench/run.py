"""Benchmark entry point: ``python3 perfbench/run.py --workload <name> ...``.

Run from the repository root.  Pins every BLAS/OpenMP pool to one
thread before anything imports NumPy, puts ``src/`` and the repository
root on the import path, and hands over to :mod:`perfbench.cli`.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Replace the script directory (perfbench/) so its module names can never
# shadow top-level ones; import the package from the root instead.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import env  # noqa: E402  (must precede any numpy import)

env.pin_threads()

from perfbench import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
