"""Host-speed probe: a fixed pass of plain Python whose time tracks how
fast the shared host runs the benchmark at the moment.

The host this benchmark was built on changes the guest's speed by up to
2x, in spells of seconds to minutes, so raw wall times of identical
work spread far past any useful bound.  Every timed span is probed
around (and, for CLI steps, inside) and its wall time is rescaled to the
speed at which one probe takes PROBE_NOMINAL_S.  The probe never touches
carlab, so a change to carlab moves a scaled time as it moves the wall
time at a fixed host speed.  See README.md, "Host speed".
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
from time import perf_counter

PROBE_NOMINAL_S = 0.002  # about the probe's time in the fast spells of a 2.1 GHz Xeon VM
PROBE_INTERVAL_S = 0.1
PROBE_ROUNDS = 64
_probe_rng = random.Random(0)
# 32 boxes over 6 features, each bounding 3 features from below and 3 from above
_PROBE_BOXES = tuple(
    (
        {j: _probe_rng.uniform(0.0, 0.3) for j in _probe_rng.sample(range(6), 3)},
        {j: _probe_rng.uniform(0.7, 1.0) for j in _probe_rng.sample(range(6), 3)},
    )
    for _ in range(32)
)
_PROBE_POINT = (0.5,) * 6


def _probe_inside(box, x) -> bool:
    lower, upper = box
    return all(x[j] >= v for j, v in lower.items()) and all(x[j] <= v for j, v in upper.items())


def probe_seconds() -> float:
    """Time a fixed pass of plain Python: function calls, generators and
    dict iteration testing one point against 32 boxes, with the collector
    off.  It keeps nothing, so it leaves the heap as it found it.

    Calls and generators slow with the host as carlab does; a loop of
    float arithmetic and list lookups slowed less in the host's worst
    spells and under-corrected them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        hits = 0
        for _ in range(PROBE_ROUNDS):
            hits += sum(_probe_inside(box, _PROBE_POINT) for box in _PROBE_BOXES)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probe times of one workflow: at step boundaries, and from a SIGALRM
    handler every PROBE_INTERVAL_S of wall time while a step runs."""

    def __init__(self) -> None:
        self.times = [probe_seconds()]
        self.in_steps_s = 0.0  # handler time, to be taken off the steps' wall time

    def _on_alarm(self, _signum, _frame) -> None:
        start = perf_counter()
        self.times.append(probe_seconds())
        self.in_steps_s += perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scaled(wall: float, probes: list[float]) -> float:
    """Wall time rescaled to the host speed at which the probe takes PROBE_NOMINAL_S."""
    return wall * PROBE_NOMINAL_S / statistics.mean(probes)
