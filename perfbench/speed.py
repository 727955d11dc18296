"""CPU-speed calibration: the benchmark's gated times at a reference speed.

On the shared 2-vCPU machine the benchmark was written on, a fixed
pure-Python loop takes about 12 ms in some stretches and 20-22 ms in
others.  The stretches last from one to twenty seconds, and the two
vCPUs change speed independently of each other.  A run's wall time
therefore says as much about the stretch it fell into as about the
program.

Within those stretches the speed flips between two levels every few
tens of milliseconds: 1 ms samples of a fixed loop read either about
1.0 ms or about 1.5 ms, and the stretches differ in how often each
level comes up.  So the speed is estimated as a mean, never a median.

A calibrator process pinned to the CPU the workload runs on runs
:func:`loop` (about 1 ms of CPU at full speed) every ``PERIOD_S`` and
records the CPU time it took; the workload keeps running on that CPU.
A sample's speed is ``REF_LOOP_S`` over that time, and the speed at
time ``t`` is the rolling mean of ``SMOOTH`` samples.  An interval
``[t0, t1]`` of a workload on that CPU is reported as ``integral of
speed(t) dt``: the time it would have taken at the reference speed.
The raw wall times are printed beside the reference-speed ones.

    python3 perfbench/speed.py CPU   # calibrator: runs until stdin closes
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import subprocess
import sys
import time
from array import array
from pathlib import Path

#: Loop iterations of one calibration sample.
LOOP_N = 8000
#: CPU time of one sample at the reference speed (the fast stretches
#: of the machine above).
REF_LOOP_S = 1.0e-3
PERIOD_S = 0.05
#: Samples in the rolling mean (under half a second).
SMOOTH = 9


def loop(n: int = LOOP_N) -> int:
    s = 0
    d = {}
    for i in range(n):
        s += i * i % 7
        d[i & 1023] = s
    return s


def calibrator(cpu: int) -> None:
    """Sample the speed of ``cpu`` until stdin closes, then write the
    samples (pairs of midpoint time and CPU seconds) to stdout."""
    os.sched_setaffinity(0, {cpu})
    # Ctrl-C stops the benchmark, which then closes stdin.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    samples = array("d")
    stdin = sys.stdin.fileno()
    while not select.select([stdin], [], [], PERIOD_S)[0]:
        # The workload sharing the CPU has just evicted the loop's data
        # from the caches; warm them first, so that a sample measures the
        # CPU's speed and not how much the workload ran in between.
        loop(LOOP_N // 4)
        c0, t0 = time.thread_time(), time.perf_counter()
        loop()
        t1, c1 = time.perf_counter(), time.thread_time()
        samples.extend(((t0 + t1) / 2, c1 - c0))
    sys.stdout.buffer.write(samples.tobytes())
    sys.stdout.flush()


def cpus() -> tuple[int, int]:
    """Two CPUs of this process's affinity set (the same one twice on a
    single-CPU machine): the first for the client, the last for a
    pinned server."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


@contextlib.contextmanager
def pinned(cpu: int):
    """Run the calling thread on ``cpu`` only, for a ``with`` block."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class SpeedMonitor:
    """A calibrator on ``cpu`` for the duration of a ``with`` block."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self._proc: subprocess.Popen | None = None
        #: Sample times, reference-speed time elapsed at each, and speed.
        self._curve: tuple | None = None

    def __enter__(self) -> "SpeedMonitor":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            # Let the calibrator take a few samples before the workload.
            time.sleep(SMOOTH * PERIOD_S)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, exc_type, *exc) -> None:
        import numpy as np

        out = self._stop()
        if exc_type is not None:
            return
        samples = np.frombuffer(out, dtype=np.float64)
        samples = samples[: len(samples) // 2 * 2].reshape(-1, 2)
        if len(samples) == 0:
            raise RuntimeError(f"the calibrator on CPU {self.cpu} took no samples")
        t = samples[:, 0]
        rate = _rolling_mean(REF_LOOP_S / samples[:, 1], SMOOTH)
        # Reference-speed time elapsed since the first sample, at each
        # sample (trapezoids of the speed).
        ref = np.concatenate(
            ([0.0], np.cumsum(np.diff(t) * (rate[1:] + rate[:-1]) / 2))
        )
        self._curve = (t, ref, rate)

    def _stop(self) -> bytes:
        """Close the calibrator's stdin and collect its samples."""
        proc, self._proc = self._proc, None
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        return out

    def _ref_time(self, when):
        import numpy as np

        t, ref, rate = self._curve
        when = np.asarray(when, dtype=float)
        out = np.interp(when, t, ref)
        # Beyond the samples the nearest speed holds.
        out = np.where(when < t[0], (when - t[0]) * rate[0], out)
        return np.where(when > t[-1], ref[-1] + (when - t[-1]) * rate[-1], out)

    def ref_seconds(self, t0, t1):
        """Reference-speed length of the intervals ``[t0, t1]`` (arrays or
        floats) on the monitored CPU."""
        return self._ref_time(t1) - self._ref_time(t0)

    def slowdown(self) -> float:
        """Wall time over reference-speed time across the whole
        monitored stretch (1 at the reference speed)."""
        import numpy as np

        return float(1.0 / np.mean(self._curve[2]))


def _rolling_mean(x, k: int):
    """Mean of the ``k`` samples centred on each one (fewer at the ends)."""
    import numpy as np

    sums = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(len(x))
    lo = np.maximum(idx - k // 2, 0)
    hi = np.minimum(idx + k - k // 2, len(x))
    return (sums[hi] - sums[lo]) / (hi - lo)


if __name__ == "__main__":
    calibrator(int(sys.argv[1]))
