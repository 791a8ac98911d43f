"""Machine-speed pulses, for timings that hold still on a shared host.

The host this benchmark was defined on changes speed by up to 2x over
seconds to minutes, and CPU time tracks wall time, so the slowdown is the
processor's, not time taken away from the process.  A wall time alone then
says as much about the neighbours as about the program.

While a ``Pulses`` meter is running, an interval timer interrupts the
process every ``INTERVAL_S`` seconds and runs a fixed reference kernel (two
scipy ``dct`` pass pairs on a 128^2 array and a pure-Python RK2 loop, one
for the transform-bound workloads and one for the interpreter-bound ones)
twice.  The first run refills the caches the program evicted; the second is
timed, so the sample does not depend on the program's memory footprint.
The kernel shares no code with the package, so no change to the package
can make it faster or slower.  The samples track the machine's speed all
through an operation.  An interval's *reference seconds* are its wall time
minus the pulses, times ``NOMINAL_PULSE_S`` over the mean sample in that
interval: the time the operation would have taken at the speed the machine
had in a quiet phase when the benchmark was defined.  The pulses take 1-2%
of wall time, which is left out of every reported time.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.fft import dct

INTERVAL_S = 0.1
# median warm kernel time on the 2-vCPU KVM guest the benchmark was defined
# on, in a quiet phase; it only sets the scale of reference seconds
NOMINAL_PULSE_S = 4.0e-4
_RK2_STEPS = 800
_X = np.random.default_rng(0).standard_normal((128, 128))


def kernel() -> None:
    """The fixed reference work of one pulse."""
    for _ in range(2):
        dct(dct(_X, type=2, axis=0), type=2, axis=1)
    # van der Pol, Heun's method
    y0, y1, h = 2.0, 0.0, 0.01
    for _ in range(_RK2_STEPS):
        a0, a1 = y1, 2.0 * (1.0 - y0 * y0) * y1 - y0
        b0, b1 = y0 + h * a0, y1 + h * a1
        c0, c1 = b1, 2.0 * (1.0 - b0 * b0) * b1 - b0
        y0 += 0.5 * h * (a0 + c0)
        y1 += 0.5 * h * (a1 + c1)


class Pulses:
    """Runs a pulse on every SIGALRM tick while entered.  Keeps the time all
    pulses took (``busy``), the sum of their timed kernel runs (``sampled``)
    and their number."""

    def __init__(self):
        self.busy = 0.0
        self.sampled = 0.0
        self.count = 0
        self._previous = None

    def _pulse(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.busy += t2 - t0
        self.sampled += t2 - t1
        self.count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._pulse)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """Wall clock that stands still while a pulse runs."""
        return time.perf_counter() - self.busy

    def sample(self) -> float:
        """Mean timed kernel run so far."""
        return self.sampled / self.count if self.count else NOMINAL_PULSE_S

    def mark(self) -> tuple[float, float, float, int]:
        return time.perf_counter(), self.busy, self.sampled, self.count


def since(pulses: Pulses, mark) -> tuple[float, float]:
    """(net seconds, reference seconds) from ``mark`` to now; net seconds
    are wall seconds with the pulses taken out."""
    t0, b0, s0, n0 = mark
    t1, b1, s1, n1 = pulses.mark()
    net = t1 - t0 - (b1 - b0)
    # an interval too short to hold a pulse takes the mean sample so far
    sample = (s1 - s0) / (n1 - n0) if n1 > n0 else pulses.sample()
    return net, net * NOMINAL_PULSE_S / sample


PULSES = Pulses()
