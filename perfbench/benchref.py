"""The reference loop: the unit in which the benchmark reports time.

The shared machines the benchmark runs on go through phases, from a
fraction of a second to many minutes long, in which all code runs 30-70%
slower, CPU time as much as wall time.  Time in seconds then measures the
phase as much as the program.  So the benchmark times :func:`reference`,
a fixed mix of the interpreter work the program does (exact rationals,
set intersections and indented JSON), right before and right after every
operation and every set-up, and divides each by the mean of the two
reference times next to it: the unit ``ref`` is one run of the reference
loop at that moment on that machine.  Each part of the loop follows one
of the program's hot spots, so that a phase slows the loop about as much
as the work next to it.  The loop belongs to the benchmark, not to the
program, so a change to the program moves a time in ``ref`` by the same
share as the time in seconds.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

#: The reference loop's time at the speed of the 2.1 GHz Xeon the baseline was
#: measured on.  ``setup_s`` must be in seconds: it is the set-up time in
#: ``ref`` times this constant, seconds at that machine's steady speed.
REFERENCE_S = 2.5e-3


def reference() -> int:
    """A fixed amount of interpreter work, about 2.5 ms on a 2.1 GHz Xeon.

    Three parts of about equal time, after the program's hot spots: sums
    of exact rationals (the penalty and phase tables), pairwise
    intersections of small sets (conflict tests between gates) and JSON
    with indentation (artifacts).
    """
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 260):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7 + i % 11)
    supports = [{a % 97, (a * 7) % 97, (a * 13) % 97} for a in range(100)]
    overlaps = sum(
        1
        for i in range(len(supports))
        for j in range(i + 1, len(supports))
        if len(supports[i] & supports[j]) > 1
    )
    gates = [
        {"vars": [f"x{a}", f"x{b}"], "coeff": {"num": v.numerator, "den": v.denominator}, "layer": [a, b, a * b]}
        for (a, b), v in sorted(acc.items())
    ]
    return len(json.dumps({"gates": gates}, indent=1, sort_keys=True)) + overlaps


def time_reference() -> float:
    """Seconds that one run of :func:`reference` takes now, after a collection."""
    gc.collect()
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scales(refs: list[float]) -> list[float]:
    """The reference time for each of ``len(refs) - 1`` operations.

    ``refs[i]`` was timed right before operation ``i`` and ``refs[i + 1]``
    right after it.  The machine can change speed within a second, so the
    two nearest reference times track an operation best; a wider window
    read steadier on neither a constraint-heavy nor a graph workload.
    """
    return [(before + after) / 2 for before, after in zip(refs, refs[1:])]
