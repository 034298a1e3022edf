"""Comparing the three coloring methods on random interaction graphs.

The exact branch-and-bound settles the chromatic index; the constructive
method finds Delta colors by Kempe-chain swaps when it can and guarantees
max-degree-plus-one on ordinary graphs; first-fit greedy works on any
hypergraph but overshoots. The exact count always lands on Delta or Delta+1
for simple graphs.
"""

import random

from qaoadepth import build, color_exact, color_greedy, color_misra_gries, dualize, make_maxcut
from qaoadepth.problems import InstanceGraph

rng = random.Random(7)

print(f"{'n':>3} {'edges':>5} {'Delta':>5} {'exact':>5} {'constructive':>12} {'greedy':>6}")
for _ in range(12):
    n = rng.randint(4, 10)
    edges = tuple(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.5
    )
    if not edges:
        continue
    g = InstanceGraph(n=n, edges=edges)
    h = build(dualize(make_maxcut(g)))
    exact = color_exact(h).num_colors
    constructive = color_misra_gries(h).num_colors
    greedy = color_greedy(h).num_colors
    delta = g.max_degree()
    assert exact in (delta, delta + 1)
    assert exact <= constructive <= delta + 1
    assert exact <= greedy
    print(f"{n:>3} {len(edges):>5} {delta:>5} {exact:>5} {constructive:>12} {greedy:>6}")

print()
print("bound annotations for the last instance:")
from qaoadepth import bounds

lower, uppers = bounds(h)
print(f"  lower bound {lower}")
for ref in uppers:
    if ref.applies:
        value = "n/a" if ref.value is None else ref.value
        print(f"  {ref.name} ({ref.status}): {value}")
