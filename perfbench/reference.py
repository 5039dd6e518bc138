"""A fixed reference loop that measures how fast the host runs right now.

The measuring machine is a shared VM.  Its speed switches between two
states about 1.6x apart, within seconds, on both vCPUs: this loop takes
either ~75-80 ms or ~120-130 ms.  Timing it right before and right after a
stretch of qlie work and dividing by it turns a wall time into a time at
reference speed, which repeats across busy and quiet hours.  The loop does
what qlie spends its time on (exact Fraction elimination, dict polynomial
products); it is standard library only and never changes with qlie.

Times at reference speed are scaled to seconds on a host where one loop
takes REFERENCE_S, the fast state of the machine the bounds were set on.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.075


def _work():
    rng = random.Random(7)
    n = 28
    m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n + 6)]
         for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    p = {tuple(rng.randint(0, 2) for _ in range(4)): Fraction(rng.randint(1, 9), rng.randint(1, 9))
         for _ in range(14)}
    q = dict(p)
    for _ in range(3):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        q = out


def reference_s() -> float:
    """Wall time of one reference loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
