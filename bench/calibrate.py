"""Interpreter-speed calibration for the sps benchmark.

The shared hosts the benchmark runs on change speed by 10-30 % over seconds
to minutes (a fixed pure-Python loop timed in 10-second windows drifts that
much), which is as large as the regressions the benchmark has to catch. So an
end-to-end run times ``work()`` before every set-up and every instance, and
scales all its measured times to the speed at which ``work()`` takes
``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (trimmed mean of the run's calibrations)

``work()`` is the benchmark's own pure-Python field arithmetic (dict, tuple
and int work of the same kind sps does) and never calls sps, so a change to
sps moves the scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

from instances import GF

# The trimmed mean of a run's calibrations on the reference machine (2-core
# Intel Xeon VM, Python 3.11), rounded; scaled times are seconds at that speed.
NOMINAL_S = 0.0100

_F = GF(5)
_G = GF(3, 2)
_RNG = random.Random("calibrate")
_FORMS = [[_RNG.randrange(1, 5) for _ in range(5)] for _ in range(8)]
_ROWS = [[_RNG.choice(_G.elements()) for _ in range(10)] for _ in range(12)]


def _expand():
    """Coefficients of the product of _FORMS, as {exponent tuple: value}."""
    F = _F
    poly = {(0, 0, 0, 0, 0): 1}
    for f in _FORMS:
        nxt = {}
        for mono, c in poly.items():
            for j, a in enumerate(f):
                m = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                nxt[m] = F.add(nxt.get(m, 0), F.mul(c, a))
        poly = nxt
    return poly


def _rank():
    G = _G
    rows = [list(r) for r in _ROWS]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != G.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = G.inv(rows[rank][col])
        rows[rank] = [G.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != rank and c != G.zero:
                rows[i] = [G.add(x, G.neg(G.mul(c, y))) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def work():
    """About 10 ms of fixed work at the reference speed; returns a checksum."""
    return sum(_expand().values()) + _rank()


CHECKSUM = work()


def measure():
    """Seconds of one work() call, after a full collection (not timed)."""
    gc.collect()
    t0 = perf_counter()
    value = work()
    dt = perf_counter() - t0
    if value != CHECKSUM:
        raise RuntimeError("calibration checksum changed")
    return dt


def trimmed_mean(samples):
    """Mean of the samples left after dropping the lowest and the highest
    quarter (rounded down) of them."""
    s = sorted(samples)
    cut = len(s) // 4
    return statistics.fmean(s[cut:len(s) - cut])


def scale_factor(calibrations):
    """NOMINAL_S over the trimmed mean of a run's calibrations.

    One factor per run: a single calibration swings by up to 2x with the
    host's state from one call to the next, but a run's calibrations together
    track the host's speed over the run."""
    return NOMINAL_S / trimmed_mean(calibrations)
