"""Host speed, measured by a fixed reference computation.

The host this benchmark runs on is shared: other tenants slow it down in
phases that can last minutes, and a slow phase stretches every operation
of a run alike. On a 2-vCPU virtual machine the median operation time of
ten runs in a row spread by up to 37% (quartile distance over median),
because some runs fell in such a phase. So the benchmark times this fixed
computation right before every operation and scales the operation's wall
time by ``REFERENCE_S / calibration time``: the result reads in seconds of
a host that runs the calibration in ``REFERENCE_S``.

The computation mixes what the program spends its time on: CSV parsing in
Python, masked numpy reductions over a few thousand rows, small sorts, and
passes over arrays of a few megabytes. No single part tracks every
workload: the Python parsing slows most in a slow phase and alone
over-corrects the Monte Carlo workloads, while the array parts alone
under-correct analyze. Over 10-second windows of one process, scaling by
the whole mix held analyze and mc_clone to 4.5% and 5.6% where their raw
times spread by 30% and 18%.

Never change this file in a change that claims a gain: the scaling would
change with it. The raw wall times stay in every result record.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

REFERENCE_S = 0.055  # calibration time on a quiet host; a fixed unit, not a measurement to update

_TEXT = "\n".join(",".join(str((i * 7 + j) % 3 - 1) for j in range(10)) + f",{i / 7:.17g}" for i in range(6000))
_RNG = np.random.default_rng(0)
_A = _RNG.random((6000, 8))
_ARM = _RNG.integers(0, 32, 6000)
_WIDE = _RNG.random((20000, 16))


def calibrate() -> float:
    """Wall seconds of the reference computation (about 55 ms on a quiet host)."""
    start = perf_counter()
    n = 0
    for row in csv.reader(io.StringIO(_TEXT)):
        n += sum(int(t) for t in row[:10]) + (float(row[10]) > 0.5)
    s = 0.0
    for j in range(32):
        m = _ARM == j
        s += float(_A[m, j % 8].mean()) + float((_A[m] * _A[m, :1]).sum())
    for i in range(400):
        s += float(np.sort(_A[:, i % 8])[7])
    for i in range(60):
        col = _WIDE[:, i % 16]
        s += float((col * _WIDE[:, (i + 1) % 16]).sum()) + float(np.count_nonzero(col > 0.5))
    elapsed = perf_counter() - start
    if n == 0 or not np.isfinite(s):  # keeps the work from being skipped or optimized away
        raise RuntimeError("calibration computed nothing")
    return elapsed
