"""Host-speed calibration: fixed work that never calls the program.

A 2-vCPU sandbox host runs programs up to 1.8x slower for seconds to
minutes at a time, and a job's CPU time swells with it.  While
a job runs, a profiling timer interrupts it every PERIOD_S of CPU time
and times one chunk of fixed work of the workload's own kind (`Probe`).
The chunks' time is taken out of the job's time, and the job's time is
scaled by REFERENCE_S[kind] times the mean of 1 / (chunk time) over the
chunks taken during the job: it reads as CPU seconds on a host where one
chunk takes REFERENCE_S[kind].  A change to the program cannot move a
chunk, so it still moves the scaled times in full.

The slow state need not slow every kind of work alike, so each workload
is scaled by a chunk of its own kind (workloads.CALIBRATION):

* "rational": exact `Fraction` elimination, the kind of work
  `rational.rref` does, which is about 80% of `algebra`;
* "gamma": scalar numpy arithmetic in the shape of the seed's
  `kernels.recip_gamma_series` (a shifted log-Gamma asymptotic series and
  a binomial recurrence), the kernel under `crossing` and `oracle`.

run.py calibrates `setup_s` by fresh interpreters of its own instead.
"""

import gc
import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Round numbers near the CPU seconds of one chunk on a 2-vCPU sandbox
# (Python 3.11, numpy 2.4) in its fast state: about 0.5 ms for "gamma"
# and 1.1 ms for "rational".
REFERENCE_S = {"rational": 0.001, "gamma": 0.0005}
# CPU seconds between two chunks; a chunk costs about 2% of that.
PERIOD_S = 0.05

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 7)
            for j in range(8)] for i in range(6)]

_BERNOULLI = np.array([1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
                       -691.0 / 2730, 7.0 / 6, -3617.0 / 510])
_POINTS = [complex(0.3 + 0.1 * k, 2.0 - 0.5 * k) for k in range(8)]
_ORDER = 8


def _eliminate():
    rows = [row[:] for row in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        rank += 1


def _series(z):
    shift = 0.0 + 0.0j
    w = z
    while w.real < 10.0:
        shift += np.log(w)
        w = w + 1.0
    w2 = 1.0 / (w * w)
    s = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi)
    term = 1.0 / w
    for n in range(_BERNOULLI.size):
        tn = 2 * (n + 1)
        s += _BERNOULLI[n] * term / (tn * (tn - 1))
        term *= w2
    g = np.zeros(_ORDER + 1, dtype=np.complex128)
    for m in range(1, _ORDER + 1):
        g[m] = (-1.0) ** m / (w + m) ** m
    binom = np.zeros((_ORDER + 1, _ORDER + 1))
    for i in range(_ORDER + 1):
        binom[i, 0] = 1.0
        for j in range(1, i + 1):
            upper = binom[i - 1, j] if j <= i - 1 else 0.0
            binom[i, j] = binom[i - 1, j - 1] + upper
    f = np.zeros(_ORDER + 1, dtype=np.complex128)
    f[0] = np.exp(shift - s)
    for m in range(1, _ORDER + 1):
        acc = 0.0 + 0.0j
        for j in range(m):
            acc += binom[m - 1, j] * g[m - j] * f[j]
        f[m] = acc / m
    return f


def _gamma():
    for z in _POINTS:
        _series(z)


_WORK = {"rational": _eliminate, "gamma": _gamma}


def chunk(kind):
    """CPU seconds of one chunk of the fixed work of `kind`."""
    t0 = time.thread_time()
    _WORK[kind]()
    return time.thread_time() - t0


def speed_scale(kind, chunk_times):
    """REFERENCE_S[kind] times the mean of 1 / (chunk time)."""
    return REFERENCE_S[kind] * statistics.fmean(1.0 / c for c in chunk_times)


class Probe:
    """Times chunks of `kind` during a timed region, on a profiling timer.

    `sample()` times one chunk now.  Between `start()` and `stop()` a
    SIGPROF handler calls it every PERIOD_S of CPU time.  Each sample is
    (start, end, chunk seconds) in thread CPU time; `job()` reads one
    timed region from them.  Regions and chunks are timed with
    `time.thread_time()`, not `process_time()`: while a process-wide CPU
    timer is armed, Linux reads the process clock from a counter that
    can lag by a scheduler tick, and a 1 ms chunk can read 0.
    """

    def __init__(self, kind):
        self.kind = kind
        self.samples = []
        self.busy = False

    def sample(self, *_):
        if self.busy:   # a timer signal during a sample: skip, do not nest
            return
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()    # a collection of the program's heap is not the chunk's
        t0 = time.thread_time()
        c = chunk(self.kind)
        self.samples.append((t0, time.thread_time(), c))
        if enabled:
            gc.enable()
        self.busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def job(self, first, t0, t1):
        """(raw, scaled) CPU seconds of the region [t0, t1].

        `first` indexes the sample taken just before t0.  Handlers run
        between bytecodes, so each sample lies wholly inside the region
        or wholly outside it.
        """
        inside = [s for s in self.samples[first + 1:] if t0 <= s[0] < t1]
        raw = (t1 - t0) - sum(end - start for start, end, _ in inside)
        speed = [c for _, _, c in [self.samples[first]] + inside]
        return raw, raw * speed_scale(self.kind, speed)
