"""Checks of the program's outputs that share no code with the program.

Nothing here imports ``qaoadepth``.  An ``analyze`` artifact is checked with
``Fraction`` arithmetic only:

* every coloring class holds gates on pairwise disjoint qubits, and every
  gate of the hypergraph is colored exactly once;
* the monomials of all scheduled cost and singleton gates, plus the PUBO
  constant, equal the PUBO objective term by term (the phase oracle in
  algebraic form, which works at any size);
* depth per iteration = color classes + singleton layer (0 or 1) + 1;
* the coloring's lower bound does not exceed its number of colors.

A ``verify`` artifact passes when both oracles report ``passed: true``.
"""

from __future__ import annotations

from fractions import Fraction

from benchgen import rational_from_json


class CheckError(Exception):
    """An output that the checker rejects."""


def _number(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, dict)):
        raise CheckError(f"not an exact number: {value!r}")
    return rational_from_json(value)


def _add_terms(acc: dict[tuple[str, ...], Fraction], terms) -> None:
    for term in terms:
        key = tuple(sorted(term["vars"]))
        acc[key] = acc.get(key, Fraction(0)) + _number(term["coeff"])


def _nonzero(acc: dict[tuple[str, ...], Fraction]) -> dict[tuple[str, ...], Fraction]:
    return {k: v for k, v in acc.items() if v != 0}


def check_analyze(artifact: dict) -> None:
    """Raise :class:`CheckError` unless the artifact is internally consistent."""
    edges = [tuple(e["support"]) for e in artifact["hypergraph"]["edges"]]
    classes = artifact["coloring"]["classes"]
    colored: list[int] = []
    for c, cls in enumerate(classes):
        busy: set[str] = set()
        for index in cls:
            if not 0 <= index < len(edges):
                raise CheckError(f"class {c} names unknown gate {index}")
            overlap = busy.intersection(edges[index])
            if overlap:
                raise CheckError(f"class {c} has gates overlapping on {sorted(overlap)}")
            busy.update(edges[index])
            colored.append(index)
    if sorted(colored) != list(range(len(edges))):
        raise CheckError("gates are not each colored exactly once")

    layers = artifact["schedule"]["layers"]
    scheduled: dict[tuple[str, ...], Fraction] = {}
    singleton_layers = 0
    cost_layers = 0
    for number, layer in enumerate(layers):
        busy = set()
        for gate in layer["gates"]:
            overlap = busy.intersection(gate["qubits"])
            if overlap:
                raise CheckError(f"layer {number} has gates overlapping on {sorted(overlap)}")
            busy.update(gate["qubits"])
            if layer["kind"] != "mixer":
                _add_terms(scheduled, gate["terms"])
        singleton_layers += layer["kind"] == "singleton"
        cost_layers += layer["kind"] == "cost"
    if layers[-1]["kind"] != "mixer" or sum(l["kind"] == "mixer" for l in layers) != 1:
        raise CheckError("schedule must end with exactly one mixer layer")
    if cost_layers != len(classes):
        raise CheckError(f"{cost_layers} cost layers for {len(classes)} color classes")

    pubo = artifact["pubo"]
    objective: dict[tuple[str, ...], Fraction] = {}
    _add_terms(objective, pubo["objective"])
    _add_terms(scheduled, [{"vars": [], "coeff": pubo["constant_offset"]}])
    if _nonzero(scheduled) != _nonzero(objective):
        missing = set(_nonzero(objective).items()) ^ set(_nonzero(scheduled).items())
        raise CheckError(f"schedule differs from the objective on {sorted(missing)[:3]}")

    depth = artifact["depth"]["structural_depth"]
    expected = len(classes) + singleton_layers + 1
    if not depth == expected == len(layers) == artifact["schedule"]["structural_depth"]:
        raise CheckError(f"depth {depth} != {len(classes)} classes + {singleton_layers} + 1")
    coloring = artifact["coloring"]
    if coloring["num_colors"] != len(classes) or coloring["lower_bound"] > len(classes):
        raise CheckError(
            f"lower bound {coloring['lower_bound']} exceeds {len(classes)} colors"
        )


def certified(artifact: dict) -> bool:
    """Whether the coloring is certified optimal: colors equal the lower bound."""
    return artifact["coloring"]["num_colors"] == artifact["coloring"]["lower_bound"]


def verify_verdicts(artifact: dict) -> tuple[bool, bool]:
    """(penalty oracle passed, phase oracle passed) as the JSON reports them."""
    return (
        artifact["penalty_oracle"]["passed"] is True,
        artifact["phase_oracle"]["passed"] is True,
    )
