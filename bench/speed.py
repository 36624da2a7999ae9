"""Machine-speed calibration for the benchmark's timings.

Small shared machines change speed by 20-30% from minute to minute, which
would swamp a 25% regression bound.  Every ``INTERVAL_S`` of timed op time
the benchmark times a fixed pure-Python kernel (breadth-first searches
over a fixed graph: the set, dict and deque work the library's searches
are made of, but none of the library's code).  A run's op timings are scaled
by ``REFERENCE_S`` over the median kernel time of that run, so they read as
times on the baseline machine (2 cores, Python 3.11.7) at its median
speed, whatever the machine's speed during the run.
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

REFERENCE_S = 0.0026  # median kernel time on the baseline machine
INTERVAL_S = 0.5  # timed op seconds between two calibrations

_N = 200
_rng = random.Random("speed-kernel")
_ADJ = [set() for _ in range(_N)]
for _ in range(3 * _N):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v:
        _ADJ[_u].add(_v)
        _ADJ[_v].add(_u)
_ADJ = [frozenset(a) for a in _ADJ]


def _kernel() -> None:
    for root in range(0, _N, 10):
        dist = {root: 0}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for w in _ADJ[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)


def calibrate() -> float:
    """Median time of three kernel runs, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
