"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same single-threaded code runs 20-30% faster or
slower from one few-second stretch to the next (clock frequency,
hyperthread and cache neighbours), with CPU time equal to wall time, so
a run's wall-clock throughput spreads as widely as the host's speed.
The timed phase runs this probe between consecutive tasks and scales
each task's time by the mean of the probes on either side of it, to the
reference speed below: a change in the host's speed cancels, a change in
conelab's speed does not.  The probe runs no conelab code: interpreted
integer arithmetic, like the library's Python loops, and small dense
solves and ufuncs, like its numpy kernels.  It takes about 3.5 ms.

    python3 perfbench/hostspeed.py     # median probe time over 2 s
"""

import statistics
import time

import numpy as np

#: median probe time on the host the bounds were set on: 2 vCPUs of an
#: Intel Xeon, Python 3.11.7, numpy 2.4.6 (see README.md)
REFERENCE_S = 0.0035

_A = np.random.default_rng(0).random((64, 64)) + 64.0 * np.eye(64)
_B = np.random.default_rng(1).random((64, 8))


def probe():
    """Wall time of the fixed reference computation, in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i % 7
    for _ in range(20):
        np.linalg.solve(_A, _B)
        np.sin(_A).sum()
    return time.perf_counter() - t0


if __name__ == "__main__":
    end = time.perf_counter() + 2.0
    samples = []
    while time.perf_counter() < end:
        samples.append(probe())
    print(f"{statistics.median(samples):.6f} s median of {len(samples)} probes "
          f"(reference {REFERENCE_S} s)")
