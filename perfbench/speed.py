"""Machine-speed clock: wall time rescaled by a reference kernel.

The machine the benchmark was built on changes speed by up to 2x within
seconds, for the workload process's own CPU time as much as for its wall
time. A small reference kernel, made of the same kind of work as the
program (tuples, dicts, sorting, frozensets, small allocations), slows down
nearly in step with the workloads, while a plain arithmetic loop does not.

``Clock`` runs the kernel from a SIGALRM handler every ``PERIOD_S`` of wall
time, in the main thread between two bytecodes of the program, and keeps
two times:

- ``wall``: ``time.perf_counter`` seconds, kernel runs included;
- ``norm``: the wall time outside the kernel runs, each stretch between two
  runs scaled by ``NOMINAL_S`` / (the median of the last three kernel
  times). It is the time the same work would take on a machine where the
  kernel takes ``NOMINAL_S``.

The kernel is part of the benchmark, not of ``ispaces``, so a change to the
program moves ``norm`` as it moves ``wall``.
"""

import gc
import random
import signal
import statistics
import time

PERIOD_S = 0.1
NOMINAL_S = 0.0006  # the kernel's typical time on a 2-vCPU Xeon, Python 3.11

_rnd = random.Random(7)
_KEYS = [tuple(_rnd.randrange(20) for _ in range(4)) for _ in range(300)]


def kernel():
    """The reference work, in two halves of about equal time.

    Tuple keys counted in a dict, sorted, and made into frozensets; then
    small tuples and lists built and stored under tuple keys. Either half
    alone tracks some workloads worse; together they track all four.
    """
    d = {}
    for x in _KEYS:
        d[x] = d.get(x, 0) + 1
    n = len(sorted(d.items())) + len({frozenset(x) for x in _KEYS})
    out = {}
    for i in range(500):
        t = tuple(range(i % 7, i % 7 + 4))
        out[(i, t)] = [t, (i,)]
    return n + len(out)


def _time_kernel():
    enabled = gc.isenabled()
    gc.disable()  # a collection of the program's objects is not reference work
    try:
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Wall and speed-normalised time of this process, from its creation."""

    def __init__(self):
        self.started_wall = time.time()
        self.start = time.perf_counter()
        _time_kernel()  # the first run is slower: cold caches
        self.recent = [_time_kernel()]
        self.ticks = 1
        self.tick_s = self.recent[0]
        self.norm = 0.0  # normalised seconds up to self.last
        self.last = time.perf_counter()
        self.scale = self.first_scale = NOMINAL_S / self.recent[0]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        r = _time_kernel()
        self.recent = (self.recent + [r])[-3:]
        self.ticks += 1
        self.tick_s += r
        # the stretch that ends here runs at the speed seen around its end
        self.scale = NOMINAL_S / statistics.median(self.recent)
        self.norm += (t - self.last) * self.scale
        self.last = time.perf_counter()

    def read(self):
        """(wall seconds, normalised seconds) since the clock was created."""
        t = time.perf_counter()
        return t - self.start, self.norm + max(0.0, t - self.last) * self.scale

    def since_wall(self, t0_wall):
        """Normalised seconds since the wall-clock time ``t0_wall``.

        The stretch before the clock existed runs at the first kernel's speed.
        """
        return max(0.0, self.started_wall - t0_wall) * self.first_scale + self.read()[1]

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
