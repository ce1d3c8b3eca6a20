"""Host-speed probes: short fixed tasks that use no library code.

On a shared host the machine's speed drifts by 20-50% over tens of seconds,
for every kind of work at once. The runner times a probe right before every
op and scales the op's time by the probe's reference time over the pass's
median probe time: a slow spell of the host slows both and cancels, while
anything the program itself does slower or faster still shows.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Typical probe times on the 2-core host where the benchmark was calibrated;
# they set only the scale of the reported numbers.
REFERENCE_S = {"compute": 0.0028, "spawn": 0.12}


def compute() -> float:
    """Big-integer products, small and large numpy calls and a Python loop:
    the kinds of work the in-process workloads do."""
    start = time.perf_counter()
    math.prod(range(1, 1500))
    small = np.arange(64, dtype=np.int64)
    for shift in range(200):
        np.count_nonzero((small + shift) % 5)
    words = np.arange(1 << 16, dtype=np.int64)
    for shift in range(2):
        np.count_nonzero((words >> shift) % 7)
    acc = 0
    for value in range(20000):
        acc ^= value
    return time.perf_counter() - start


def spawn() -> float:
    """A fresh interpreter importing numpy: what every CLI call pays first."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start


PROBES = {"compute": compute, "spawn": spawn}
