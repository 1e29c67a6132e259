"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a CPU drifts by up to 2x within minutes,
with the load its neighbours put on it, and every wall time drifts along.
Ten 25-second runs of one workload spread their raw ``map_s`` medians by
0.19 to 0.35 (quartile distance over median). Timing a fixed probe in the
same process, while the timed work runs, tracks that drift. A map's wall
time divided by the mean of the probes taken during it varied half as much
from map to map as the raw time did.

``probe_s`` touches no clonemap code. A timing ``t`` taken next to probes
``p`` is reported as ``t * REFERENCE_S / mean(p)``: seconds on a host where
the probe takes REFERENCE_S.
"""

import signal
import time

import numpy as np

REFERENCE_S = 0.002
INTERVAL_S = 0.25

_TEXT = "total = count + delta; /* note */ // tail\n" * 180
_A = np.linspace(0.0, 1.0, 3000)
_B = _A[::-1].copy()
_LINES = [f"x{i % 7} = y + {i % 5};" for i in range(40)]


def probe_s() -> float:
    """Time a fixed mix of the kinds of work a map does.

    A character loop as in comment stripping, small numpy reductions as in
    topic scoring, and a list DP as in line LCS. Over maps of
    ``lcs-baseline`` and ``topic-wide``, the mix tracked the map time
    better than any one part did for both.
    """
    start = time.perf_counter()
    sum(1 for ch in _TEXT if ch != "/")
    for _ in range(80):
        float(np.dot(_A, _B)) / (float(np.linalg.norm(_A)) * float(np.linalg.norm(_B)))
    prev = [0] * (len(_LINES) + 1)
    for x in _LINES:
        cur = [0] * (len(_LINES) + 1)
        for j, y in enumerate(_LINES, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return time.perf_counter() - start


class Sampler:
    """Run the probe every INTERVAL_S of wall time while the block runs.

    The probe runs in a SIGALRM handler, so between two bytecodes of the
    timed code and on the same CPU; ``spent_s`` is the time the probes took,
    to be subtracted from the block's wall time.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.probes.append(probe_s())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        return sum(self.probes)


def scaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * REFERENCE_S / (sum(probes) / len(probes))
