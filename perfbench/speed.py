"""Host-speed calibration of the benchmark's timed units.

The benchmark shares a few cores of a host with other tenants. On the 2-core
VM of the baseline the host's speed switches, within milliseconds and for up
to seconds at a time, between levels up to 2x apart, and the share of time
spent at each level changes from one run to the next. A raw time then says
as much about the neighbours as about hareid.

``Meter.time`` therefore runs a fixed calibration kernel right before and
right after every timed unit, and runs it inside long units too: between
the training samples a unit reads (``Probed``) and between the images of an
extraction chunk. The mean kernel time over the
unit, over the kernel's ``reference`` seconds, is the unit's speed factor;
the unit's raw time, less the kernel runs inside it, over that factor is its
scaled time: its time at the speed at which one kernel run takes
``reference`` seconds. A stage's throughput (``rate``) is its items over its
raw seconds times the mean factor of its units: a ratio of two means, each
linear in the share of time the host spent at each speed level.

The neighbours slow different work by different amounts, so each workload
uses the kernel that resembles its own work:

- ``small``: 64x64 matrix-vector products and element-wise ops, the
  per-call mix the autodiff core spends its time in at H=64
  (interpreter-bound);
- ``large``: for each of three 1024x1024 matrices, a matrix-vector
  product, its transpose and an outer product added into a 1024x1024
  gradient array: one GRU step's forward and backward at H=1024
  (memory-bound, 48 MB touched per run, near the 60 MB the model's
  weights and gradients take). A smaller working set stays in the shared
  cache when the neighbours are quiet and over-corrects.

The kernels use NumPy alone, so a change to hareid moves the raw time and
not the kernel's: a faster program reads faster whatever the host is doing.
Every time the benchmark reports, ``setup_s`` and ``wall_s`` included, is
scaled; the raw seconds and the speed factors are kept in the detail line
of each run.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

def _small():
    rng = np.random.default_rng(0)
    w, x = rng.standard_normal((64, 64)) / 8.0, rng.standard_normal(64)

    def run() -> None:
        v = x
        for _ in range(100):
            v = np.tanh(w @ v + 0.1) * 0.5 + v * 0.5
    return run


def _large():
    rng = np.random.default_rng(0)
    us = [rng.standard_normal((1024, 1024)) / 32.0 for _ in range(3)]
    gs = [np.zeros((1024, 1024)) for _ in range(3)]
    v = rng.standard_normal(1024)

    def run() -> None:
        for u, g in zip(us, gs):
            y = u @ v
            g += np.multiply.outer(y, v)
            np.tanh(u.T @ y)
    return run


# name -> (kernel factory, nominal seconds of one run: the quiet host's time
# or so). The large kernel's arrays exist only in the runs that use it.
KERNELS = {"small": (_small, 1.0e-3), "large": (_large, 20.0e-3)}


class Timing(NamedTuple):
    raw: float       # seconds on the clock, less the kernel runs inside the unit
    factor: float    # mean kernel seconds over the unit / the kernel's reference

    @property
    def seconds(self) -> float:
        """Scaled seconds."""
        return self.raw / self.factor


def rate(units) -> float:
    """Items per scaled second over (items, Timing) units."""
    items = sum(n for n, _ in units)
    raw = sum(t.raw for _, t in units)
    return items / raw * statistics.fmean(t.factor for _, t in units)


class Meter:
    """Times units of work against a calibration kernel (see the module doc)."""

    def __init__(self, kernel: str = "small"):
        make, self.reference = KERNELS[kernel]
        self._kernel = make()
        self.kernel = kernel
        self.samples: list[float] = []   # seconds of every kernel run
        self.kernel_s = 0.0              # their sum
        self.timings: list[Timing] = []
        self._kernel()                   # the first run pays NumPy's warm-up

    def probe(self) -> None:
        """One kernel run, sampling the host's speed now."""
        t0 = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.kernel_s += seconds

    def time(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return its result and its Timing.

        Kernel runs inside the unit (probes and nested units) count towards
        its factor and not towards its raw time.
        """
        self.probe()
        first, kernel_s = len(self.samples) - 1, self.kernel_s
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0 - (self.kernel_s - kernel_s)
        self.probe()
        timing = Timing(raw, statistics.fmean(self.samples[first:]) / self.reference)
        self.timings.append(timing)
        return out, timing

    def summary(self) -> dict:
        """Speed factors seen in this run, for the detail line."""
        factors = [s / self.reference for s in self.samples]
        q1, median, q3 = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
        return {"kernel": self.kernel, "units": len(self.timings), "samples": len(factors),
                "raw_s": sum(t.raw for t in self.timings),
                "factor_min_q1_median_q3_max": [min(factors), q1, median, q3, max(factors)]}


class Probed(Sequence):
    """``items`` that run the meter's kernel at every ``every``-th item read,
    so that a unit lasting seconds is sampled throughout (``optim.train``
    reads its items one sample at a time)."""

    def __init__(self, items: Sequence, meter: Meter, every: int):
        self.items, self.meter, self.every = items, meter, every
        self.reads = 0

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        if self.reads % self.every == 0:
            self.meter.probe()
        return self.items[i]
