"""Timings corrected for the share of a core the host gives this process.

On a small shared VM (2 vCPUs, Intel Xeon) the host can run the benchmark's
vCPU at about half speed for seconds at a time without reporting steal time:
wall time and CPU time both stretch, for every kind of work alike (measured:
0.95 ms against 1.9 ms for a fixed pure-Python job, 1.42 ms against 2.8 ms
for a 128x128 uint8 product).  Between two runs of the same code that moved
timings by up to 2x.

``Sampler`` times a block of code and, while it runs, repeats a fixed
pure-Python job every ``INTERVAL_S`` from a SIGALRM handler, plus once just
before and once just after the block.  Each job's duration ``d`` gives the
host speed at that moment as ``REF_S / d``; the block's time, minus the time
spent in the jobs, is scaled by the mean speed over its samples.  The
samples come at even wall-clock intervals, so that mean is the work the
block got done per second, and the scaled time reads the seconds the block
would take on a host where the job takes ``REF_S``.

Only ``signal`` and ``time`` are imported, so measuring ``import posrel.cli``
with a sampler leaves numpy's import inside the measured time.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Duration of ``job`` on an uncontended core of the host the benchmark was
# defined on (Intel Xeon, 2 vCPUs, Python 3.11).  Any fixed value works: it
# only sets the scale, and it is the same for every commit measured.
REF_S = 1.2e-4
INTERVAL_S = 0.01


def job():
    """A fixed interpreter job of about REF_S: arithmetic, a dict and a sort."""
    t0 = perf_counter()
    acc = {}
    for i in range(1000):
        acc[i % 31] = acc.get(i % 31, 0) + i * i % 7
    sorted(acc.items(), key=lambda kv: kv[1])
    return perf_counter() - t0


class Sampler:
    """Context manager timing its block; ``seconds`` is the corrected time."""

    def __enter__(self):
        self.samples = [job()]
        self.spent = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.t0 = perf_counter()
        return self

    def _tick(self, signum, frame):
        d = job()
        self.samples.append(d)
        self.spent += d

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self.previous)
        self.samples.append(job())
        return False

    @property
    def speed(self):
        """Mean host speed over the block, 1.0 at the reference speed."""
        return sum(REF_S / d for d in self.samples) / len(self.samples)

    @property
    def seconds(self):
        return (self.elapsed - self.spent) * self.speed
