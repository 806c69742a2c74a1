"""Fixed probes of how fast the host runs at the moment.

On a shared host the same work runs up to 2x slower for a minute or more at
a time, longer than one benchmark run, and the slow spells do not hit every
kind of work alike.  So each timing is scaled by a probe of its own kind:

- ``probe`` times a fixed piece of pure-Python work whose character follows
  the audit's inner loop (a string-seeded RNG per round, a few draws, float
  math, a validating slotted object, a small dict), so it slows down with
  the host the way the audit does.
- ``START_ARGS`` is a process start: a fresh interpreter that imports numpy
  and exits.  Loading numpy's shared libraries and bytecode slows down in
  spells that leave pure-Python loops and a bare interpreter untouched, and
  it is most of an ``hsc`` process that loads numpy.

Neither runs the program, so no change to the program can move them.
"""

from __future__ import annotations

import math
import random
import time

# About the probe's median time on the 2-core reference host; a run whose
# probes take this long reports its timings unchanged.
REFERENCE_S = 0.020

# Arguments to the interpreter for the reference process start, and about
# its median spawn-to-exit time on the reference host.
START_ARGS = ("-c", "import numpy")
START_REFERENCE_S = 0.170


class _Point:
    __slots__ = ("modulus", "angles")

    def __init__(self, modulus: float, angles) -> None:
        if not math.isfinite(modulus) or modulus < 0.0:
            raise ValueError(modulus)
        if not all(math.isfinite(a) for a in angles):
            raise ValueError(angles)
        self.modulus, self.angles = modulus, tuple(angles)


def _work(rounds: int = 1500) -> float:
    total = 0.0
    for i in range(rounds):
        rng = random.Random(f"probe:{i}")
        xs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        point = _Point(math.sqrt(sum(x * x for x in xs)),
                       [math.atan2(xs[k + 1], xs[k]) for k in range(3)])
        record = {"modulus": point.modulus, "angles": list(point.angles)}
        total += record["modulus"] + sum(record["angles"])
    return total


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
