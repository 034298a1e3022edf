"""Depth survey across the classic problem families.

For each family the pipeline reports the structural depth next to the
family's closed-form figure; when the two disagree the report says so
instead of reconciling them.  Knapsack shows the slack-range preprocessing
(two-sided capacity bound) paying off one qubit and one layer.
"""

from qaoadepth import (
    InstanceGraph,
    make_knapsack,
    make_maxcut,
    make_sat,
    make_tsp,
    make_vertex_cover,
    run_pipeline,
    with_penalty_weight,
)


def show(title, result):
    report = result.report
    fb = report.family_bound
    print(f"== {title}")
    print(
        f"   qubits {len(result.hypergraph.vertices)}, gates {len(result.hypergraph.edges)}, "
        f"colors {result.coloring.num_colors} ({result.coloring.method})"
    )
    line = f"   depth/iteration {result.schedule.structural_depth}"
    if fb is not None:
        value = "n/a" if fb.value is None else fb.value
        line += f"   family figure: {fb.formula} = {value}"
        if fb.matches_structural is False:
            line += "   [differs]"
    print(line)
    for note in report.notes:
        print(f"   note: {note}")
    print()


wheel = InstanceGraph(
    6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6))
)
show("vertex cover on the wheel", run_pipeline(with_penalty_weight(make_vertex_cover(wheel), 7)))

show("knapsack, plain capacity slack", run_pipeline(make_knapsack((1, 2, 3), (1, 2, 3), 4)))
show(
    "knapsack, two-sided capacity (saves one slack bit)",
    run_pipeline(make_knapsack((1, 2, 3), (1, 2, 3), 4, preprocess=True)),
)

square = InstanceGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)), weights=(1, 1, 1, 1, 2))
show("tsp on four cities (degree equalities become <= pairs)", run_pipeline(make_tsp(square)))

show("soft 3-sat, two clauses", run_pipeline(make_sat([(1, 2, -3), (2, 3, 4)])))

star = InstanceGraph(6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6)))
show("maxcut on a star (edges all share the hub)", run_pipeline(make_maxcut(star)))
