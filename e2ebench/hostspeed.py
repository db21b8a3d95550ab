"""Host-speed calibration: timings scaled to a reference host speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings
by up to 1.8x in phases that last from seconds to minutes (a fixed
interpreter and NumPy loop timed in 0.5 s windows ran at 351 to 829
iterations per window within 150 s).  Any
wall-clock statistic of a 20 s run inherits that swing, whatever
percentile or repetition scheme it uses, because a whole run can fall
inside one slow phase.

So the client times a fixed calibration kernel, the *probe*, between
its operations (at most every ``PROBE_EVERY_S`` seconds, outside the
timed phase) and scales each timed interval by the host speed around
it: ``seconds * REFERENCE_PROBE_S / median(probes within WINDOW_S)``.
The result reads as the seconds the interval would have taken on a
host where the probe takes ``REFERENCE_PROBE_S``.  The probe is the
benchmark's own code, not the program's, so a change to the program
moves the scaled timings exactly as it moves the raw ones; only the
host's drift cancels.  The probe mixes the kinds of work the program
does on its hot paths: interpreter loops with dict lookups, many small
NumPy calls and one cache-sized sort.  Scaled by it, centroid_degenerate
exact latencies per 10 s window stayed within +-5% while their raw
medians ranged from 55 to 99 ms.

The raw timings are printed too, in the run line.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: The probe's duration on the reference host: a 2-vCPU Intel Xeon VM
#: in its fast phase.  Only the scale of the reported timings depends
#: on it.
REFERENCE_PROBE_S = 1.5e-3
#: Least time between two probes.
PROBE_EVERY_S = 0.02
#: Probes within this many seconds of an interval set its host speed.
WINDOW_S = 0.2

_RNG = np.random.default_rng(20030609)
_SMALL = _RNG.random((8, 8))
_LARGE = _RNG.random(20_000)
_KEYS = list(range(2_000)) * 3
_TABLE = {i: 3 * i for i in range(2_000)}


def probe() -> float:
    """Seconds one run of the fixed calibration kernel takes."""
    start = time.perf_counter()
    acc = 0
    for key in _KEYS:
        acc += _TABLE[key] ^ key
    for _ in range(200):
        product = np.sort(_SMALL @ _SMALL, axis=1)
        acc += int(product.argmax())
    acc += int(np.argsort(_LARGE)[0])
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loops' results live
        raise AssertionError
    return elapsed


class HostSpeed:
    """Probe times by the moment they were taken, and the scaling of
    timed intervals by them."""

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self._last = float("-inf")

    def poll(self) -> None:
        """Probe if the last probe is ``PROBE_EVERY_S`` old."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = probe()
        self.stamps.append(start + seconds / 2)
        self.seconds.append(seconds)
        self._last = time.perf_counter()

    def local_probe(self, start: float, end: float) -> float:
        """Median probe time within ``WINDOW_S`` of ``[start, end]``, or
        the nearest probe's if none is that close."""
        if not self.stamps:
            raise RuntimeError("no host-speed probe was taken")
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if hi > lo:
            return statistics.median(self.seconds[lo:hi])
        nearest = min(
            range(len(self.stamps)), key=lambda i: abs(self.stamps[i] - start)
        )
        return self.seconds[nearest]

    def scale(self, start: float, end: float, seconds: float | None = None) -> float:
        """*seconds* (default ``end - start``) taken over ``[start, end]``,
        at the reference host speed."""
        if seconds is None:
            seconds = end - start
        return seconds * REFERENCE_PROBE_S / self.local_probe(start, end)

    def summary(self) -> dict:
        ms = np.asarray(self.seconds) * 1e3
        return {
            "probes": len(ms),
            "probe_ms_p10": float(np.percentile(ms, 10)),
            "probe_ms_p50": float(np.percentile(ms, 50)),
            "probe_ms_p90": float(np.percentile(ms, 90)),
            "reference_probe_ms": REFERENCE_PROBE_S * 1e3,
        }
