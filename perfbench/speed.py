"""The machine's speed, measured next to every op.

The machines this benchmark runs on share their cores with other work: the
same Python computation can take twice as long from one second, or one
minute, to the next.  So the timed loop runs `slice_s()`, a fixed
computation of the same kind as the package's work (products of Fraction
coefficients in dicts keyed by exponent tuples), after every op, and the
end-to-end times are scaled to the speed at which a slice takes NOMINAL_S.
The slice never calls the package, and it runs with the cyclic garbage
collector off, so no change to the package changes the slice's time.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# A slice's median time on the machine the baselines were measured on, in
# one of its fast phases (2-CPU Intel Xeon, Python 3.11).
NOMINAL_S = 2.2e-4

# An op's speed is the median of the slices run after the WINDOW ops before
# it, after itself and after the WINDOW ops that follow it.
WINDOW = 2

_P = {(i, j): Fraction(3 * i + 1, 2 * j + 3)
      for i in range(3) for j in range(3)}


def slice_s() -> float:
    """The wall time of one slice, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for (i, j), c in _P.items():
            for (k, m), d in _P.items():
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + c * d
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def ratio(slices) -> float:
    """Speed relative to the nominal one (above 1: faster)."""
    return NOMINAL_S / statistics.median(slices)


def ratios(slices):
    """Per position i, the speed ratio of the slices within WINDOW of i."""
    return [ratio(slices[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(slices))]
