"""Operation timing corrected for the host's momentary speed.

On a shared 2-core host the same operation can take 1.5 to 2 times as
long from one few-second stretch to the next, because other tenants slow
the CPU, and the host flips between a fast and a slow speed within tens of
milliseconds. Medians within one run do not remove that: whole runs land
in slow or fast stretches. So, while a pass or a set-up runs, a timer
interrupts the process every SAMPLE_EVERY_S of wall time (at the next
Python bytecode, also inside an operation) to time a fixed calibration
kernel, a little of each workload's own mix of work (see calibrate). A CLI
command samples the same way inside its own process (launch.py). An
operation is cut into stretches at the samples taken during it, each
stretch is scaled by REFERENCE_S over the mean of the samples at its two
ends, and the kernel's own time is left out. The result is in reference
seconds: seconds on a host where the kernel takes REFERENCE_S, about its
time on the 2-core machine the benchmark was tuned on. The raw time is
kept alongside.

Samples taken only between operations would not do: they are single draws of
a speed that flips, so a long operation scaled by the samples at its ends
spread more than its plain time (25 % CV against 8 % for the 10 s
2000-agent simulate).
"""
from __future__ import annotations

import bisect
import json
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.1

# (start, seconds) of every kernel run in this process, in time order.
SAMPLES: list[tuple[float, float]] = []


_IDX = np.array([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7])
_NBR = np.array([1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7, 6])
_DESIGN = np.sin(np.outer(np.arange(400) * 0.06, np.arange(1, 13) * 0.7))
_SIGNAL = _DESIGN @ np.linspace(1.0, 2.0, 12)


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel right now.

    The kernel does a little of what the workloads do: neighbour-exchange
    stages on an 8-agent path with small numpy calls (simulate), one
    least-squares fit and one FFT (estimate), and float formatting and
    parsing (trace CSV I/O).
    """
    start = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 8)
    for _ in range(300):
        acc = np.zeros(8)
        np.add.at(acc, _IDX, x[_IDX] - x[_NBR])
        x = x - 1e-3 * acc
    for _ in range(8):
        np.linalg.lstsq(_DESIGN, _SIGNAL, rcond=None)
        np.abs(np.fft.rfft(_SIGNAL, 2048))
    text = ",".join(f"{v:.17g}" for v in _DESIGN[:32].ravel())
    np.array(text.split(","), dtype=float)
    return time.perf_counter() - start


def sample() -> None:
    """Time the kernel now and record it."""
    start = time.perf_counter()
    SAMPLES.append((start, calibrate()))


def _on_timer(*_) -> None:
    sample()
    # One-shot timer, re-armed after the kernel, so samples never nest.
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)


@contextmanager
def sampling():
    """Sample at the start, every SAMPLE_EVERY_S while the block runs, and at its end."""
    signal.signal(signal.SIGALRM, _on_timer)
    signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
    _on_timer()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sample()


class Clock:
    """Raw and speed-corrected time of the operations it runs.

    Operations run inside sampling(); settle converts them.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.reference_s = 0.0
        self.calibrations: list[float] = []
        self._pending: list[tuple[float, float, list | None]] = []

    def run(self, fn, *args, **kwargs):
        """Call fn and time it."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._pending.append((start, time.perf_counter(), None))

    def run_child(self, samples: Path, fn, *args, **kwargs):
        """Call fn, which runs one child process under launch.py that writes
        its own samples to the file samples, and time it.

        This process does not sample meanwhile: its kernel would compete
        with the child for the second core. Without samples from the child
        (it failed early) the whole call is one stretch.
        """
        samples.unlink(missing_ok=True)
        armed = signal.setitimer(signal.ITIMER_REAL, 0)[0] > 0
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            try:
                inside = [(float(at), float(c)) for at, c in json.loads(samples.read_text())]
            except (OSError, ValueError, TypeError):
                inside = []
            self._pending.append((start, end, inside))
            if armed:
                _on_timer()

    def settle(self) -> None:
        """Convert the operations timed since the last call.

        Takes one more sample, so that every operation has one after it.
        """
        if not self._pending:
            return
        sample()
        starts = [at for at, _ in SAMPLES]
        for start, end, inside in self._pending:
            i = bisect.bisect_right(starts, start)
            j = bisect.bisect_left(starts, end)
            if inside is None:
                inside = SAMPLES[i:j]
            before = SAMPLES[i - 1][1] if i > 0 else SAMPLES[j][1]
            after = SAMPLES[j][1]
            points = [(start, 0.0, before)] + [(at, c, c) for at, c in inside] + [(end, 0.0, after)]
            for (at0, took0, speed0), (at1, _, speed1) in zip(points, points[1:]):
                stretch = at1 - at0 - took0
                self.raw_s += stretch
                self.reference_s += stretch * REFERENCE_S / (0.5 * (speed0 + speed1))
            self.calibrations += [c for _, c in inside] + [after]
        self._pending.clear()
