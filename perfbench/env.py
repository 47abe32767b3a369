"""Process environment: pinned thread pools and what the run ran on.

On a 2-vCPU machine OpenBLAS defaults to two threads, which makes the
dense engine's matmuls swing by 2x between runs.  Every benchmark
process -- including the spawned server -- runs with one BLAS/OpenMP
thread, set in the environment before NumPy loads.  This module must
not import NumPy at import time for that reason.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Optional

#: Thread-pool settings applied to every benchmark process.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_threads() -> None:
    """Apply :data:`THREAD_ENV`; raises if NumPy is already loaded."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    os.environ.update(THREAD_ENV)


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return [int(value) for value in fields[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples.

    ``steal`` is the eighth state of the ``cpu`` line; guest time is
    already counted inside user time, so only the first eight states sum
    to the total.

    >>> steal_share([10, 0, 0, 80, 0, 0, 0, 10], [20, 0, 0, 160, 0, 0, 0, 20])
    0.1
    """
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """A process's peak resident set size (``VmHWM``) in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


#: Seconds :func:`pace` takes at the reference pace (its median on the
#: 2-vCPU Xeon VM the benchmark was tuned on).  Paced seconds are
#: wall-clock seconds rescaled to this pace.
REFERENCE_PACE_S = 0.005


def pace(samples: int = 3) -> float:
    """How fast this CPU runs right now, as seconds of a fixed probe.

    On a shared VM the speed of a vCPU drifts by up to 40% over tens of
    seconds, while the work a program does stays the same.  The probe
    -- a pure-Python loop and a loop of small NumPy operations, the two
    kinds of work the simulator's round loop mixes -- runs between
    operations; the geometric mean of the two medians is the pace.
    """
    import time

    import numpy

    values = numpy.linspace(0.0, 1.0, 4096)
    positions = numpy.arange(4096)[::-1].copy()

    def python_loop() -> None:
        total = 0
        for value in range(100_000):
            total += value * value

    def numpy_loop() -> None:
        for _ in range(300):
            ((values + values)[positions] > 1.0).sum()

    medians = []
    for probe in (python_loop, numpy_loop):
        timings = []
        for _ in range(samples):
            started = time.perf_counter()
            probe()
            timings.append(time.perf_counter() - started)
        timings.sort()
        medians.append(timings[len(timings) // 2])
    return (medians[0] * medians[1]) ** 0.5


class Pacer:
    """Probes the pace between pieces of work to rescale their times.

    Paced seconds are wall-clock seconds times :meth:`factor`:
    :data:`REFERENCE_PACE_S` over the mean of the probes just before
    and just after the work.
    """

    def __init__(self) -> None:
        self._last = pace()
        #: Every probe so far, for the record.
        self.probes = [self._last]

    def factor(self) -> float:
        """Probe now; the factor for the work done since the last probe."""
        previous, self._last = self._last, pace()
        self.probes.append(self._last)
        return REFERENCE_PACE_S / ((previous + self._last) / 2)


def describe() -> dict[str, Any]:
    """What the numbers were measured on: CPUs, library versions, threads."""
    import numpy

    blas_version = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas_version = str(config["Build Dependencies"]["blas"].get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas_version,
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
    }
