"""Host speed probe: a fixed pure-Python loop of dict lookups and tuple building.

The benchmark runs it between the items it times.  On a shared host the
speed of CPU-bound code moves by tens of percent over seconds to minutes;
the probe's mean time over a run measures that speed, and the run divides
its times by it (see ``run.slowdown``).  Of the loops tried, this one
tracked the time of a search and a screen best as the host's speed moved
(they slowed 1.02-1.08 times as much, correlation 0.9 over 4 s windows;
a tight loop over a small list slowed only 0.75 times as much).  It warms
its 0.5 MB of data before timing, so what the program under test leaves in
the caches does not change the probe's time.
"""
from __future__ import annotations

import time

_TABLE = {(i, i * 7 % 101): i for i in range(4096)}
_KEYS = list(_TABLE)


def probe() -> float:
    """Seconds six passes of lookups over a 4096-entry dict take now."""
    table, keys, out = _TABLE, _KEYS, []
    for k in keys:
        table[k]
    start = time.perf_counter()
    for _ in range(6):
        for k in keys:
            out.append((table[k], k[1]))
        out.clear()
    return time.perf_counter() - start
