"""A fixed piece of interpreter work that measures the machine's speed.

The benchmark runs on shared machines whose speed changes by up to 2x from
one second to the next: other tenants share the cores, caches and memory
bus.  So every timed operation is paired with one run of
:func:`reference_work` just before it, and reported as its CPU time
divided by the reference's, times ``NOMINAL_S``: the time it would take on
a machine that runs the reference in ``NOMINAL_S``.  A change of the
machine's speed shows in both and cancels; a change of the program shows
only in the operation.

The work is shaped like the sampler's own: tuple rows grouped by key in
dicts of lists, per-row counters, pseudo-random draws, prefix sums and
bisection.  It uses nothing from the program, so no change to the program
can move it.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, List

#: Seconds of process CPU time :func:`reference_work` takes on the machine
#: the figures are scaled to (a 2-vCPU x86 VM, Python 3.11, in its faster
#: state).
NOMINAL_S = 0.0005


def reference_work() -> int:
    rng = random.Random(20_240_611)
    groups: Dict[int, List[tuple]] = {}
    weights: Dict[tuple, int] = {}
    total = 0
    for i in range(400):
        key = rng.randrange(100)
        row = (key, i)
        group = groups.setdefault(key, [])
        group.append(row)
        weights[row] = weights.get((key, i - 1), 0) + len(group)
        total += weights[row]
    prefix = list(itertools.accumulate(len(group) for group in groups.values()))
    for _ in range(200):
        total += bisect.bisect(prefix, rng.randrange(prefix[-1]))
    for group in groups.values():
        group.sort(reverse=True)
        total += group[0][1]
    return total
