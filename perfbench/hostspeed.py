"""A fixed unit of pure-Python work that tells how fast the host is running.

On a shared virtual machine the CPU time of the same code drifts: over a few
minutes, one pass of ``cli-requests`` took from 1.0 to 2.0 times its fastest
CPU time, in phases of seconds to minutes, and every operation of a slow pass
was slow by about the same factor. A phase that lasts a whole run moves every
figure of that run, and no statistic over the run's own samples removes it.

So the client times this unit right after every operation. The unit does the
kind of work pathauction does (``Fraction`` sums, a small dict, a keyed sort)
without calling pathauction, so a change to the program leaves its work as
it is; only the caches it finds differ, which moved its time by about 10%.
An operation's *scaled* time is its CPU time times ``NOMINAL_S`` over the
unit's CPU time measured next to it: the operation's time on a host that runs
the unit in ``NOMINAL_S``. Over minutes of such drift, statistics of
per-operation medians of scaled times spread by 0.01 to 0.03 (IQR over
median, across chunks of 4 to 10 passes) where those of raw times spread by
0.17 to 0.38.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction

# About the unit's CPU time next to the operations, on the 2-vCPU virtual
# machine the benchmark was tuned on while the host was quiet (80 us when the
# unit runs in a loop of its own). It only fixes the scale of the reported
# times.
NOMINAL_S = 100e-6

_rng = random.Random(3)
_FRACTIONS = tuple(Fraction(_rng.randint(1, 10**6), _rng.randint(1, 999)) for _ in range(40))
_KEYS = tuple(f"edge{i}" for i in range(60))


def unit():
    total = Fraction(0)
    for f in _FRACTIONS:
        total += f
    table = {key: (i * 7919) % 101 for i, key in enumerate(_KEYS)}
    return total, sorted(table.items(), key=lambda kv: (kv[1], kv[0]))


def time_unit(clock) -> float:
    """CPU time of one unit, the collector off so that it pays for none of
    the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        unit()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()
