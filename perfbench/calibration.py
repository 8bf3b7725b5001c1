"""Host calibration stamp: fixed kernels that say how fast this machine is.

Numbers from two machines, or from one machine on two days, can only be
compared after scaling by how fast each host ran the same fixed work. Each
run records a pure-Python score (dict and integer work, like the scalar
replay paths) and a numpy score (sort and gather, like the vectorised
regimes), with the interpreter and numpy versions and the CPU count. The
stamp sits beside the metrics; it is not one of them.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Callable, Dict

REPS = 5
PY_ITEMS = 200_000
NP_ITEMS = 1 << 20


def _python_kernel() -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(PY_ITEMS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= key
    return acc + len(table)


def _numpy_kernel(np, values) -> int:
    order = np.argsort(values, kind="stable")
    return int(values[order][NP_ITEMS // 2])


def _rate(kernel: Callable[[], int], items: int) -> float:
    """Median items per second of ``kernel`` over :data:`REPS` runs."""
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        kernel()
        samples.append(items / (time.perf_counter() - start))
    return statistics.median(samples)


def stamp() -> Dict[str, object]:
    import numpy as np

    values = np.random.default_rng(0).integers(0, 1 << 40, NP_ITEMS, dtype=np.int64)
    return {
        "python_mitems_per_s": round(_rate(_python_kernel, PY_ITEMS) / 1e6, 4),
        "numpy_mitems_per_s": round(_rate(lambda: _numpy_kernel(np, values), NP_ITEMS) / 1e6, 4),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
