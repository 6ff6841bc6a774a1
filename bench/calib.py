"""Calibration kernel that scales timings to a reference machine speed.

The core speed of a shared machine changes by up to 1.6x within seconds.
CPU time mostly follows wall time, so the change is mostly the core, not
scheduling.  A fixed kernel is timed every CAL_INTERVAL_S, and each measured
interval is multiplied by CAL_REF_S / (median kernel time around it).  The
kernel does the kinds of work the CLI does: FFT round trips with phase
factors over a working set of CAL_ARRAYS grid-sized arrays (a slow phase of
the machine hits large working sets harder than one cached array), and a
Python formatting loop.  No code under ``src/`` runs in the kernel, so a
change to the program cannot move it.
"""

import bisect
import statistics
import time

import numpy as np

from check import GRID_N

CAL_INTERVAL_S = 0.1
#: Kernel samples within this many seconds of an interval scale it.
CAL_WINDOW_S = 0.25
CAL_FFTS = 8
CAL_ARRAYS = 12
#: Kernel time at the reference speed: about the fast state of a shared
#: 2-core Intel Xeon VM with Python 3.11 and numpy 2.4.6 (single-threaded
#: FFT), where the kernel takes 3 to 6 ms.
CAL_REF_S = 3.0e-3

clock = time.perf_counter
_ARRAYS = [np.exp(0.1j * (i + 1) * np.arange(GRID_N)) for i in range(CAL_ARRAYS)]
_PHASE = np.exp(-0.5e-4j * np.linspace(-16.0, 16.0, GRID_N) ** 2)


def kernel():
    """Run the kernel once; returns (seconds, seconds per plain FFT)."""
    t0 = clock()
    for _ in range(CAL_FFTS):
        np.fft.fft(_ARRAYS[0])
    t1 = clock()
    for x in _ARRAYS:
        np.fft.ifft(np.fft.fft(x) * _PHASE) * x
    rows = [",".join(format(i * k * 0.1, ".17g") for k in range(8)) for i in range(150)]
    index = {row: len(row) for row in rows}
    t2 = clock()
    if len(index) != len(rows):
        raise RuntimeError("calibration kernel miscomputed")
    return t2 - t0, (t1 - t0) / CAL_FFTS


class Calibration:
    """Kernel timings taken beside the measured work."""

    def __init__(self):
        self.times, self.kernel, self.fft = [], [], []

    def sample(self):
        k, f = kernel()
        self.times.append(clock())
        self.kernel.append(k)
        self.fft.append(f)

    def due(self) -> bool:
        return not self.times or clock() - self.times[-1] >= CAL_INTERVAL_S

    def factor(self, t0: float, t1: float) -> float:
        """Scale for an interval [t0, t1], from the kernel samples near it.

        A sample is taken before any call that starts CAL_INTERVAL_S after
        the last one, so every interval has one within CAL_WINDOW_S.
        """
        lo = bisect.bisect_left(self.times, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.kernel[lo:hi])

    def fft_floor_s(self, scaled: bool) -> float:
        """Median time of one raw FFT at GRID_N, optionally scaled."""
        return statistics.median(
            f * (CAL_REF_S / k if scaled else 1.0) for f, k in zip(self.fft, self.kernel))
