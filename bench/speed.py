"""Machine speed, read from a fixed reference kernel between timed calls.

On a shared 2-core Intel Xeon VM the speed of a vCPU changed from one
second to the next: :func:`kernel` read 2.5 ms in one quarter-second and
4.5 ms in the next, CPU time followed wall time (so this is not
preemption), and consecutive readings were strongly correlated (lag-1
autocorrelation 0.94).  A whole 30-s run could sit in the slow state, so
the median wall time of a run followed the machine, not the program:
10 runs of one workload spread by 0.3 (quartile distance over median).

So every timed call is scaled by the speed read around it:
``seconds = wall * REF_S / ref``, where ``ref`` is the mean time of the
kernel (fixed numpy and Python work that calls nothing of ``ncpqec``),
read at most every ``EVERY_S`` on the same pinned CPU, over the readings
within one call length of the call (:meth:`Speed.scale`).  The result
reads as the call's wall time on a machine that runs the kernel in
``REF_S`` seconds.  A change to ``ncpqec`` scales it exactly as it scales
wall time; the wall times are printed beside it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# Seconds of one kernel() in the fast regime of the 2-core Xeon VM the
# benchmark was tuned on; it only fixes the scale of the reported times.
REF_S = 0.002
# A reading older than this is taken again before it is used.
EVERY_S = 0.1
REPEATS = 3

_rng = np.random.default_rng(12345)
_BIG = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_SMALL = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(12)]
_FLOATS = _rng.standard_normal(750).tolist()


def kernel() -> float:
    """A mix like the library's: a dense d = 128 product and eigh, small-matrix calls, JSON text, a Python loop.

    Its parts slow down by different amounts when the machine does (the
    Python loop least, JSON text most); this mix was chosen so that its
    slowdown lies between that of ``analyze`` and that of a CLI
    subprocess, which slows least.
    """
    h = _BIG @ _BIG.conj().T
    np.linalg.eigh(h[:48, :48])
    acc = 0.0
    for m in _SMALL:
        s = np.linalg.svd(m, compute_uv=False)
        acc += float(np.trace(m @ m.conj().T).real) + float(s[0])
    for i in range(8000):
        acc += i * i
    return acc + len(json.dumps(_FLOATS))


class Speed:
    """Readings of the kernel's time, each the median of ``REPEATS`` runs, with when they were taken."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.readings: list[float] = []

    def read(self) -> float:
        """The latest reading, taken again when it is older than ``EVERY_S``."""
        if not self.times or time.perf_counter() - self.times[-1] > EVERY_S:
            runs = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - start)
            self.readings.append(statistics.median(runs))
            self.times.append(time.perf_counter())
        return self.readings[-1]

    def scale(self, start: float, elapsed: float) -> float:
        """``REF_S`` over the mean reading within one call length of a call.

        The window reaches at least ``2 * EVERY_S`` beyond each end, so it
        holds the readings taken just before and just after the call.  A
        long call (a 4-s CLI command) is scaled by the readings of the
        seconds around it, not by two snapshots, since the speed changes
        many times within it.
        """
        reach = max(elapsed, 2 * EVERY_S)
        lo = bisect.bisect_left(self.times, start - reach)
        hi = bisect.bisect_right(self.times, start + elapsed + reach)
        return REF_S / statistics.fmean(self.readings[lo:hi])
