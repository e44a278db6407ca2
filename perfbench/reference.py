"""A fixed block of work that gauges how fast the host runs right now.

On a host whose cores other tenants share, speed can drift by 20% and more
within a run, and every pass time drifts with it.  The driver times this block before every pass and after the last, and divides
each pass time by the mean of the two blocks around it.  The block does the
kind of work the passes do (butterflies on (1024, 64) rows, numpy calls on
tiny arrays, normal draws, interpreter-bound Python arithmetic) but uses no
forrlab code, so a change to forrlab does not move it.  Changing the block
changes every normalised time.
"""

from __future__ import annotations

import time

import numpy as np

# median time of one block on an idle 2-vCPU x86_64 KVM guest (Xeon, 2.1 GHz,
# Python 3.11, numpy 2.4); normalised times are seconds at that speed
NOMINAL_S = 0.14


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.normal(size=(1024, 64))
        self._small = rng.normal(size=8)

    def __call__(self) -> float:
        """Wall seconds of one block."""
        started = time.perf_counter()
        a = self._rows.copy()
        for _ in range(30):
            h = 1
            while h < 64:
                v = a.reshape(1024, 64 // (2 * h), 2, h)
                lo = v[..., 0, :].copy()
                hi = v[..., 1, :]
                v[..., 0, :] = lo + hi
                v[..., 1, :] = lo - hi
                h *= 2
            a *= 0.125
        x = self._small.copy()
        for _ in range(32000):
            x = np.abs(x * 0.5 - self._small)
        rng = np.random.default_rng(0)
        for _ in range(32):
            rng.standard_normal((1024, 64))
        total = 0
        for i in range(500_000):
            total += i * i % 7
        return time.perf_counter() - started
