"""Host-speed-normalized timing for a shared host.

On a shared VM host, load from neighbours slows this process by up to about
2x, in swings that last from milliseconds to minutes, so raw times of one
build spread by 40 % from run to run and no statistic of a run removes that.
While a timed block runs, a SIGALRM timer interrupts it every ``PERIOD_S``
and times a fixed snippet that uses no handroi code. The snippet slows down
with the workload, so the block's normalized time

    (wall time - time spent in the snippet) * NOMINAL_S / median snippet time

is the time the block would take on a host where the snippet takes
``NOMINAL_S``, and repeats from run to run where the raw time does not.
Time the hypervisor gave this machine's CPUs to other guests (steal time in
/proc/stat) is taken out of the wall time first: the process did not run
then, and neither did the snippet.
"""

import json
import os
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.005
# the snippet's time on an unloaded core of the development host (2-vCPU
# Xeon VM), so that normalized seconds read close to unloaded seconds there
NOMINAL_S = 5.5e-5

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_A = np.linspace(-1.0, 1.0, 100).reshape(10, 10)
_DOC = json.dumps({"hand": [[1.5, 2.5, 1.0]] * 21})


def _work(x):
    x = np.tanh(_A @ x + 0.5)
    sum(p[0] * p[1] for p in json.loads(_DOC)["hand"])
    return x


def snippet():
    """Small numpy, JSON and float work, like handroi's own; returns seconds.

    The first round is not timed: it refills the caches the interrupted
    workload evicted, which would otherwise count the workload's own
    footprint as host load.
    """
    x = _work(np.ones(10))
    start = time.perf_counter()
    for _ in range(4):
        x = _work(x)
    return time.perf_counter() - start


def steal_s():
    """Steal time of all CPUs so far, in seconds; 0 where /proc/stat has none."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0


@dataclass
class Timing:
    wall: float = 0.0
    cpu: float = 0.0
    norm_wall: float = 0.0
    norm_cpu: float = 0.0
    steal: float = 0.0
    probe_s: float = 0.0  # time spent in the snippet, included in wall and cpu
    probe_median: float = 0.0


class Probe:
    """Owns the SIGALRM handler; one timed block at a time."""

    def __init__(self):
        self._samples = None
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self._samples is not None:
            self._samples.append(snippet())

    @contextmanager
    def timed(self):
        """Time the block; the Timing it yields is filled in when the block ends."""
        t = Timing()
        self._samples = samples = []
        steal0 = steal_s()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield t
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t.wall = time.perf_counter() - wall0
            t.cpu = time.process_time() - cpu0
            t.steal = steal_s() - steal0
            self._samples = None
        t.probe_s = spent = sum(samples)
        samples.append(snippet())  # a block shorter than PERIOD_S still gets a sample
        t.probe_median = statistics.median(samples)
        scale = NOMINAL_S / t.probe_median
        t.norm_wall = (t.wall - t.steal - spent) * scale
        t.norm_cpu = (t.cpu - spent) * scale
