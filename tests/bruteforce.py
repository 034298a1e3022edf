"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb: direct enumeration with dict-based
evaluation, no shared code paths with the algorithms under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from itertools import compress
from operator import and_
from typing import Sequence

from qaoadepth import (
    CircuitSchedule,
    Constraint,
    DerivedHypergraph,
    EquivalenceReport,
    Hyperedge,
    InstanceGraph,
    InvalidInputError,
    PenaltyVerification,
    Polynomial,
    Problem,
    Pubo,
    make_tsp,
)
from qaoadepth.io import (
    _records,
    _Runs,
    _Table,
    expansion_diff_to_json,
    polynomial_to_json,
    rational_from_json,
)
from qaoadepth.poly import EXACT_ENUMERATION_LIMIT


def pubo_from_polynomial(objective: Polynomial) -> Pubo:
    """Wrap a bare polynomial as an already-unconstrained PUBO over its own variables."""
    return Pubo(
        objective=objective,
        variables=objective.variables(),
        dualizations=(),
        original_sense="min",
    )


def total_polynomial(h: DerivedHypergraph) -> Polynomial:
    """Sum of everything the hypergraph represents; must equal the source."""
    terms = [((), h.constant)]
    terms.extend(((name,), coeff) for name, coeff in h.singletons)
    for edge in h.edges:
        terms.extend(edge.monomials)
    return Polynomial.from_terms(terms)


def is_canonical(value) -> bool:
    """The exact-number rule: an int when whole, else a Fraction with denominator > 1.

    A bool, a float or ``Fraction(n, 1)`` breaks it.
    """
    if value.denominator == 1:
        return type(value) is int
    return type(value) is Fraction


def min_objective(problem: Problem) -> Polynomial:
    """The objective in min form: negated for a max problem."""
    return problem.objective if problem.sense == "min" else -problem.objective


def assignments(names):
    """All {0,1} assignments of the given variables, in binary counting order."""
    names = list(names)
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def values_over_cube_reference(poly: Polynomial, order) -> list:
    """``Polynomial.values_over_cube`` by the per-bit zeta loop, one point at a time.

    Entry z sets ``order[i]`` to bit i of z.  Entries are Fractions.
    """
    names = list(order)
    position = {name: i for i, name in enumerate(names)}
    values = [Fraction(0)] * (1 << len(names))
    for support, coeff in poly.terms():
        mask = 0
        for name in support:
            mask |= 1 << position[name]
        values[mask] += coeff
    for i in range(len(names)):
        bit = 1 << i
        for z in range(1 << len(names)):
            if z & bit:
                values[z] += values[z ^ bit]
    return values


def cut_size(edges, bits) -> int:
    """Number of edges with endpoints on opposite sides; bits is 1-based-indexed via bits[v-1]."""
    return sum(1 for u, v in edges if bits[u - 1] != bits[v - 1])


def independent_sets(n: int, edges) -> list[tuple[int, ...]]:
    """All independent sets of a graph as 0/1 tuples."""
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(not (bits[u - 1] and bits[v - 1]) for u, v in edges):
            out.append(bits)
    return out


def evaluate_terms(poly: Polynomial, assignment: dict) -> Fraction:
    """Re-evaluate a polynomial the slow way (loop over terms, no transforms)."""
    total = Fraction(0)
    for support, coeff in poly.terms():
        if all(assignment[name] for name in support):
            total += coeff
    return total


def exhaustive_minimum(poly: Polynomial) -> Fraction:
    names = poly.variables()
    best = None
    for bits in itertools.product((0, 1), repeat=len(names)):
        value = evaluate_terms(poly, dict(zip(names, bits)))
        if best is None or value < best:
            best = value
    return best if best is not None else Fraction(0)


def constrained_argmin(problem: Problem) -> list[tuple[int, ...]]:
    """Argmin set of a constrained problem in min form, by direct enumeration."""
    objective = min_objective(problem)
    names = list(problem.variables)
    best = None
    winners: list[tuple[int, ...]] = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, bits))
        ok = True
        for con in problem.constraints:
            value = evaluate_terms(con.lhs, assignment)
            if value > con.rhs or (con.lower is not None and value < con.lower):
                ok = False
                break
        if not ok:
            continue
        value = evaluate_terms(objective, assignment)
        if best is None or value < best:
            best = value
            winners = [bits]
        elif value == best:
            winners.append(bits)
    return winners


def pubo_argmin_reference(pubo: Pubo) -> list[tuple[int, ...]]:
    """Argmin set of a PUBO over its original variables, slack minimized out.

    Evaluates every assignment of every variable with ``Fraction`` sums;
    tuples list the non-slack variables in ``pubo.variables`` order.
    """
    slack = pubo.slack_names()
    names = [name for name in pubo.variables if name not in slack]
    projected = {}
    for bits in itertools.product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, bits))
        projected[bits] = min(
            evaluate_terms(pubo.objective, assignment | dict(zip(slack, slack_bits)))
            for slack_bits in itertools.product((0, 1), repeat=len(slack))
        )
    best = min(projected.values())
    return sorted(bits for bits, value in projected.items() if value == best)


def _indices(values: list, target) -> list[int]:
    """Every index at which ``values`` holds ``target``, each found by a C-level scan."""
    found, start = [], 0
    try:
        while True:
            start = values.index(target, start)
            found.append(start)
            start += 1
    except ValueError:
        return found


def _scaled_values(poly: Polynomial, order: list[str]) -> tuple[list[int], int]:
    """``poly`` times its common denominator d over the cube (all ints), and d."""
    scale = poly.common_denominator()
    return (poly * scale).values_over_cube(order), scale


def _bits(z: int, width: int) -> tuple[int, ...]:
    return tuple((z >> i) & 1 for i in range(width))


def verify_penalty_reference(pubo: Pubo, problem: Problem) -> PenaltyVerification:
    """``verify_penalty`` on list tables: one int per assignment, scanned entry by entry.

    Feasibility is a per-entry comparison with the scaled thresholds, each
    minimum a scan, the slack projection a per-entry ``min`` over the 2**k
    slack blocks and the argmins ``list.index`` scans.  The report,
    witness and detail included, must equal the packed oracle's.
    """
    order = list(pubo.variables)
    if len(order) > EXACT_ENUMERATION_LIMIT:
        raise InvalidInputError(
            f"verification needs {len(order)} variables "
            f"but the limit is {EXACT_ENUMERATION_LIMIT}"
        )
    slack_names = set(pubo.slack_names())
    original = [name for name in order if name not in slack_names]
    slack = [name for name in order if name in slack_names]
    n_orig = len(original)

    # For an integer v, v/d <= rhs exactly when v <= floor(rhs*d), and
    # v/d >= lower exactly when v >= ceil(lower*d).
    feasible = [True] * (1 << n_orig)
    for con in problem.constraints:
        lhs_values, scale = _scaled_values(con.lhs, original)
        high = math.floor(con.rhs * scale)
        feasible = list(map(and_, feasible, map(high.__ge__, lhs_values)))
        if con.lower is not None:
            low = math.ceil(con.lower * scale)
            feasible = list(map(and_, feasible, map(low.__le__, lhs_values)))
    objective_values, _ = _scaled_values(min_objective(problem), original)
    # With no feasible point best_value is None, which no entry equals.
    best_value = min(compress(objective_values, feasible), default=None)
    constrained = sorted(
        _bits(z, n_orig) for z in _indices(objective_values, best_value) if feasible[z]
    )

    # Original variables occupy the low bit positions, so each slack block
    # of 2**n_orig consecutive indices scans the same original assignments.
    projected, _ = _scaled_values(pubo.objective, original + slack)
    if slack:
        block = 1 << n_orig
        projected = list(
            map(min, *[projected[start : start + block] for start in range(0, len(projected), block)])
        )
    projected_argmin = sorted(_bits(z, n_orig) for z in _indices(projected, min(projected)))

    passed = bool(constrained) and projected_argmin == constrained
    witness, detail = None, ""
    if not constrained:
        detail = "original problem has no feasible assignment"
    elif not passed:
        witness = min(set(projected_argmin).symmetric_difference(constrained))
        side = "penalty form" if witness in set(projected_argmin) else "constrained problem"
        detail = f"assignment {witness} is optimal only for the {side}"
    return PenaltyVerification(
        passed=passed,
        constrained_argmin=tuple(constrained),
        pubo_argmin=tuple(projected_argmin),
        variable_order=tuple(original),
        counterexample=witness,
        detail=detail,
    )


def chromatic_index_bruteforce(supports) -> int:
    """Minimum proper edge-coloring size by enumerating all set partitions.

    Depth-first in restricted-growth order (each edge joins an existing class
    or opens the next fresh one), so every partition of the edge set appears
    exactly once; a class is usable when its supports are pairwise disjoint.
    """
    supports = [frozenset(s) for s in supports]
    m = len(supports)
    if m == 0:
        return 0

    best = m  # one class per edge always works

    def extend(index: int, classes: list[set]) -> None:
        nonlocal best
        if len(classes) >= best:
            return
        if index == m:
            best = len(classes)
            return
        support = supports[index]
        for cls in classes:
            if not (cls & support):
                saved = set(cls)
                cls |= support
                extend(index + 1, classes)
                cls.clear()
                cls.update(saved)
        classes.append(set(support))
        extend(index + 1, classes)
        classes.pop()

    extend(0, [])
    return best


def merge_layers_bruteforce(supports, limit: int) -> int:
    """Fewest circuit layers when overlapping monomials of a layer merge into one gate.

    Enumerates layer partitions in restricted-growth order, like
    :func:`chromatic_index_bruteforce`.  A layer is valid when each of its
    overlap-connected groups of supports (one gate each) spans at most
    ``limit`` qubits.
    """
    supports = [frozenset(s) for s in supports]
    m = len(supports)
    best = m

    def valid(layer: list[frozenset]) -> bool:
        groups: list[set] = []
        for support in layer:
            joined = set(support)
            for group in [g for g in groups if g & support]:
                joined |= group
                groups.remove(group)
            groups.append(joined)
        return all(len(group) <= limit for group in groups)

    def extend(index: int, layers: list[list[frozenset]]) -> None:
        nonlocal best
        if len(layers) >= best:
            return
        if index == m:
            best = len(layers)
            return
        support = supports[index]
        for layer in layers:
            layer.append(support)
            if valid(layer):
                extend(index + 1, layers)
            layer.pop()
        layers.append([support])
        extend(index + 1, layers)
        layers.pop()

    extend(0, [])
    return best


def merge_cover_reference(h: DerivedHypergraph, limit: int) -> int:
    """The most groups the edges at one vertex split into, each group's union on at most ``limit`` vertices.

    The bound ``hypergraph._merge_lower_bound`` computes, by enumerating the
    set partitions of each vertex's edges in restricted-growth order, like
    :func:`chromatic_index_bruteforce`, with no reduction to maximal sets.
    """
    supports = [frozenset(e.support) for e in h.edges]
    most = 0
    for edges in h.incident:
        at = [supports[i] for i in edges]
        best = len(at)  # one group per edge always works

        def extend(index: int, groups: list[frozenset]) -> None:
            nonlocal best
            if len(groups) >= best:
                return
            if index == len(at):
                best = len(groups)
                return
            for position, group in enumerate(groups):
                if len(group | at[index]) <= limit:
                    groups[position] = group | at[index]
                    extend(index + 1, groups)
                    groups[position] = group
            groups.append(at[index])
            extend(index + 1, groups)
            groups.pop()

        extend(0, [])
        most = max(most, best)
    return most


def misra_gries_reference(h: DerivedHypergraph) -> list[list[int]]:
    """Misra-Gries Delta+1 classes on vertex names, kept as the identity reference.

    Two synchronised maps (vertex -> color -> other endpoint, and sorted name
    pair -> color); the same tie-breaks as the Delta+1 pass of
    ``coloring._recolor``, which must return identical classes.  Every edge
    has width 2.
    """
    max_degree = h.max_degree()
    palette = range(1, max_degree + 2)

    incident: dict[str, dict[int, str]] = {}  # vertex -> {color: other endpoint}
    edge_color: dict[tuple[str, str], int] = {}

    def key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def free_color(v: str) -> int:
        used = incident.get(v, {})
        for color in palette:
            if color not in used:
                return color
        raise AssertionError(f"no free color at {v}; palette too small")

    def assign(a: str, b: str, color: int) -> None:
        k = key(a, b)
        old = edge_color.get(k)
        if old is not None:
            del incident[a][old]
            del incident[b][old]
        edge_color[k] = color
        incident.setdefault(a, {})[color] = b
        incident.setdefault(b, {})[color] = a

    def unassign(a: str, b: str) -> None:
        k = key(a, b)
        old = edge_color.pop(k)
        del incident[a][old]
        del incident[b][old]

    for edge in h.edges:
        u, v = edge.support
        # Shortcut: a color free at both endpoints colors the edge directly.
        shared = next(
            (col for col in palette
             if col not in incident.get(u, {}) and col not in incident.get(v, {})),
            None,
        )
        if shared is not None:
            assign(u, v, shared)
            continue
        # Maximal fan of u starting at v: each next edge's color is free at
        # the previous fan vertex.
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            extension = None
            for color, w in sorted(incident.get(u, {}).items()):
                if w not in in_fan and color not in incident.get(last, {}):
                    extension = w
                    break
            if extension is None:
                break
            fan.append(extension)
            in_fan.add(extension)

        c = free_color(u)
        d = free_color(fan[-1])

        if c != d:
            # Invert the maximal path from u alternating colors d, c.
            # Unassign first: flipping in place would transiently give two
            # incident edges the same color and corrupt the bookkeeping.
            path = []
            current, color = u, d
            while color in incident.get(current, {}):
                nxt = incident[current][color]
                path.append((current, nxt, color))
                current = nxt
                color = c if color == d else d
            for a, b, _ in path:
                unassign(a, b)
            for a, b, color in path:
                assign(a, b, d if color == c else c)

        # d is now free at u; find the first fan vertex where d is free and
        # rotate the fan prefix onto it.
        pivot = None
        for index, w in enumerate(fan):
            if d not in incident.get(w, {}):
                pivot = index
                break
        if pivot is None:
            raise AssertionError("no fan vertex with the free color; fan invariant broken")
        for i in range(pivot):
            shifted = edge_color[key(u, fan[i + 1])]
            unassign(u, fan[i + 1])
            assign(u, fan[i], shifted)
        assign(u, fan[pivot], d)

    colors_used = sorted(set(edge_color.values()))
    index_of = {
        key(*h.edges[i].support): i for i in range(len(h.edges))
    }
    classes = [
        sorted(index_of[k] for k, col in edge_color.items() if col == color)
        for color in colors_used
    ]
    if len(classes) > max_degree + 1:
        raise AssertionError("misra-gries exceeded Delta+1 colors")
    return classes


def conflicts_pairwise(supports) -> list[list[int]]:
    """For each support, the indices of the other supports it intersects, pair by pair."""
    sets = [set(s) for s in supports]
    return [
        [j for j in range(len(sets)) if j != i and sets[i] & sets[j]]
        for i in range(len(sets))
    ]


def is_linear_pairwise(supports) -> bool:
    """True when no two supports share more than one vertex, pair by pair."""
    sets = [set(s) for s in supports]
    return all(
        len(sets[i] & sets[j]) <= 1
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
    )


def is_simple_graph_by_names(supports) -> bool:
    """True when every support is a pair and no pair repeats, on frozensets of names."""
    pairs = {frozenset(s) for s in supports}
    return len(pairs) == len(supports) and all(len(pair) == 2 for pair in pairs)


def absorb_subsets_scan(h: DerivedHypergraph, limit: int) -> DerivedHypergraph:
    """Subset absorption that scans every kept edge for a host, pair by pair.

    Edges are visited widest first, ties by support; each narrower than
    ``limit`` joins the earliest kept edge of width <= ``limit`` that strictly
    contains it.
    """
    order = sorted(range(len(h.edges)), key=lambda i: (-len(h.edges[i].support), h.edges[i].support))
    kept: list[int] = []
    monomials: dict[int, list] = {}
    for index in order:
        edge = h.edges[index]
        host = None
        if len(edge.support) < limit:
            for candidate in kept:
                wider = h.edges[candidate].support
                if len(wider) <= limit and set(edge.support) < set(wider):
                    host = candidate
                    break
        if host is None:
            kept.append(index)
            monomials[index] = list(edge.monomials)
        else:
            monomials[host].extend(edge.monomials)
    edges = [
        Hyperedge(support=h.edges[index].support, monomials=tuple(sorted(monomials[index])))
        for index in kept
    ]
    return replace(h, edges=tuple(sorted(edges, key=lambda e: e.support)))


def absorb_subsets_incidence(h: DerivedHypergraph, limit: int) -> DerivedHypergraph:
    """Subset absorption through the qubit numbering, with each narrow edge scanning for a host.

    A narrow edge's host is the first kept edge, widest first and ties by
    support, of width in (its width, limit] among the edges on its rarest
    qubit that contains it.  ``h`` itself is returned when a scan of each
    narrow edge's first qubit finds no host and the edges are in support
    order, or when nothing was absorbed and they are.
    """
    if limit < 2:
        raise InvalidInputError(f"gate width limit must be >= 2, got {limit}")

    def in_support_order(edges) -> bool:
        return all(a.support <= b.support for a, b in zip(edges, edges[1:]))

    def absorbs_nothing() -> bool:
        for index, edge in enumerate(h.edges):
            if len(edge.support) < limit:
                support = set(edge.support)
                for c in h.incident[h.ends[index][0]]:
                    if len(support) < len(h.ends[c]) <= limit and support.issubset(h.edges[c].support):
                        return False
        return True

    if absorbs_nothing() and in_support_order(h.edges):
        return h

    def rank(i: int):
        return (-len(h.edges[i].support), h.edges[i].support)

    kept: dict[int, list] = {}
    for index in sorted(range(len(h.edges)), key=rank):
        edge = h.edges[index]
        width = len(edge.support)
        host = None
        if width < limit:
            support = set(edge.support)
            rarest = min(h.ends[index], key=lambda x: len(h.incident[x]))
            host = min(
                (
                    c for c in h.incident[rarest]
                    if c in kept
                    and width < len(h.edges[c].support) <= limit
                    and support.issubset(h.edges[c].support)
                ),
                key=rank,
                default=None,
            )
        if host is None:
            kept[index] = list(edge.monomials)
        else:
            kept[host].extend(edge.monomials)
    if len(kept) == len(h.edges) and in_support_order(h.edges):
        return h
    edges = [
        Hyperedge(support=h.edges[index].support, monomials=tuple(sorted(monomials)))
        for index, monomials in kept.items()
    ]
    return replace(h, edges=tuple(sorted(edges, key=lambda e: e.support)))


def first_fit_by_conflicts(h: DerivedHypergraph) -> list[list[int]]:
    """First-fit color classes from a list of conflicts per edge, found pair by pair.

    Edges are colored most conflicts first, ties by support, each with the
    lowest color no conflicting edge has.
    """
    conflicts = conflicts_pairwise([e.support for e in h.edges])
    m = len(conflicts)
    colors = [-1] * m
    for index in sorted(range(m), key=lambda i: (-len(conflicts[i]), h.edges[i].support)):
        taken = {colors[j] for j in conflicts[index]}
        colors[index] = next(c for c in range(m) if c not in taken)
    return [[i for i in range(m) if colors[i] == c] for c in range(max(colors, default=-1) + 1)]


def polynomial_from_json_twice_checked(data, known, path: str) -> Polynomial:
    """The JSON terms checked one by one, then summed by ``Polynomial.from_terms``,
    which checks every name and coefficient again."""
    if not isinstance(data, list):
        raise InvalidInputError(f"{path}: expected a list of terms")
    pairs = []
    for i, term in enumerate(data):
        term_path = f"{path}[{i}]"
        if not isinstance(term, dict):
            raise InvalidInputError(f"{term_path}: expected an object")
        extra = set(term) - {"vars", "coeff"}
        if extra:
            raise InvalidInputError(f"{term_path}: unknown fields {sorted(extra)}")
        variables = term.get("vars", [])
        if not isinstance(variables, list) or not all(isinstance(v, str) and v for v in variables):
            raise InvalidInputError(f"{term_path}.vars: expected a list of non-empty variable names")
        if known is not None:
            for j, name in enumerate(variables):
                if name not in known:
                    raise InvalidInputError(f"{term_path}.vars[{j}]: unknown variable {name!r}")
        coeff = rational_from_json(term.get("coeff", 1), f"{term_path}.coeff")
        pairs.append((tuple(variables), coeff))
    return Polynomial.from_terms(pairs)


def make_tsp_scan(g: InstanceGraph, subtour_subsets=()) -> Problem:
    """``make_tsp`` with its constraints rebuilt by scanning every edge for each vertex and set.

    Only the objective and the variables come from ``make_tsp``.  A subtour
    set's left side sums distinct variables, so its maximum over the cube is
    its number of edges, and it is kept when that exceeds |Q| - 1.
    """
    problem = make_tsp(g, subtour_subsets)
    constraints = []
    for vertex in range(1, g.n + 1):
        lhs = Polynomial.from_terms(((f"e{u}_{v}",), 1) for u, v in g.edges if vertex in (u, v))
        constraints.append(Constraint(lhs=lhs, rhs=2, label=f"degree({vertex})<="))
        constraints.append(Constraint(lhs=-lhs, rhs=-2, label=f"degree({vertex})>="))
    n_subtour = 0
    for subset in subtour_subsets:
        q = sorted(set(subset))
        members = [f"e{u}_{v}" for u, v in g.edges if u in q and v in q]
        if len(members) > len(q) - 1:
            lhs = Polynomial.from_terms(((name,), 1) for name in members)
            label = f"subtour({','.join(map(str, q))})"
            constraints.append(Constraint(lhs=lhs, rhs=len(q) - 1, label=label))
            n_subtour += 1
    info = {**problem.family_info, "n_subtour": n_subtour}
    return replace(problem, constraints=tuple(constraints), family_info=info)


# -- all-Fraction reference algebra -------------------------------------------
#
# A polynomial here is a dict from sorted supports to nonzero Fractions.  The
# functions share nothing with ``Polynomial``: every coefficient is boxed as
# a Fraction, every product is formed term by term.


def fraction_terms(pairs) -> dict:
    """Sum (variables, coefficient) pairs by support, as Fractions, dropping zeros."""
    acc: dict[tuple[str, ...], Fraction] = {}
    for variables, coeff in pairs:
        key = tuple(sorted(set(variables)))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
    return {key: c for key, c in acc.items() if c}


def fraction_add(a: dict, b: dict) -> dict:
    return fraction_terms([*a.items(), *b.items()])


def fraction_scale(a: dict, scalar) -> dict:
    return fraction_terms((s, c * Fraction(scalar)) for s, c in a.items())


def fraction_mul(a: dict, b: dict) -> dict:
    """Product with x*x = x: each pair of terms lands on the union of its supports."""
    return fraction_terms(
        (set(sa) | set(sb), ca * cb) for sa, ca in a.items() for sb, cb in b.items()
    )


def fraction_extremes(a: dict) -> tuple[Fraction, Fraction]:
    """(minimum, maximum) over every {0,1} assignment, each point summed in Fractions."""
    names = sorted({name for support in a for name in support})
    values = [
        sum((c for s, c in a.items() if all(point[name] for name in s)), Fraction(0))
        for point in assignments(names)
    ]
    return min(values), max(values)


def fraction_penalty_form(problem: Problem, pubo: Pubo) -> dict:
    """The penalty form in the reference algebra: objective + sum of weight * square.

    Takes the slack names, ranges and weights ``pubo``'s records chose, like
    :func:`penalty_fold`, and rebuilds everything else from the problem.
    """
    total = fraction_terms(min_objective(problem).terms())
    for con, record in zip(problem.constraints, pubo.dualizations, strict=True):
        if record.dropped:
            continue
        k = len(record.slack_vars)
        span = math.ceil(Fraction(record.slack_range))
        residual = fraction_terms(
            [*con.lhs.terms(), ((), -Fraction(con.rhs))]
            + [
                ((name,), 2**j if j < k - 1 else span - (2 ** (k - 1) - 1))
                for j, name in enumerate(record.slack_vars)
            ]
        )
        penalty = fraction_scale(fraction_mul(residual, residual), record.weight)
        total = fraction_add(total, penalty)
    return total


def penalty_fold(problem: Problem, pubo: Pubo) -> Polynomial:
    """The penalty form rebuilt one constraint at a time: objective + sum of weight * square.

    Uses only public :class:`Polynomial` operations.  The slack names,
    ranges and weights are the ones ``pubo``'s records chose; each square is
    rebuilt from its constraint.  Slack bit j < k - 1 has coefficient 2**j
    and the last one span - (2**(k-1) - 1), with span = ceil(slack range),
    so the slack sums are exactly 0..span.
    """
    objective = min_objective(problem)
    for con, record in zip(problem.constraints, pubo.dualizations, strict=True):
        if record.dropped:
            continue
        k = len(record.slack_vars)
        span = math.ceil(record.slack_range)
        slack = Polynomial.zero()
        for j, name in enumerate(record.slack_vars):
            coefficient = 2**j if j < k - 1 else span - (2 ** (k - 1) - 1)
            slack = slack + coefficient * Polynomial.variable(name)
        objective = objective + (con.lhs + slack - con.rhs).square() * record.weight
    return objective


def maxcut_objective_reference(g: InstanceGraph) -> Polynomial:
    """The MaxCut objective term by term: w*(2*xu*xv - xu - xv) per edge, summed."""
    terms = []
    for idx, (u, v) in enumerate(g.edges):
        w = g.weight(idx)
        xu, xv = f"x{u}", f"x{v}"
        terms.append(((xu, xv), 2 * w))
        terms.append(((xu,), -w))
        terms.append(((xv,), -w))
    return Polynomial.from_terms(terms)


def sat_formula_degrees_reference(clauses: Sequence[Sequence[int]]) -> dict[str, int]:
    """The SAT degree figure from the clause list: per variable, |union of the
    touching clauses' supports| - 1 plus two slack bits per touching clause,
    where clause c's support holds its variables and its indicator z_c."""
    degrees: dict[str, int] = {}
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    for i in variables:
        touching = [
            (index, clause)
            for index, clause in enumerate(clauses, start=1)
            if i in {abs(lit) for lit in clause}
        ]
        union: set[str] = set()
        for index, clause in touching:
            union.update(f"x{abs(lit)}" for lit in clause)
            union.add(f"z{index}")
        degrees[f"x{i}"] = len(union) - 1 + 2 * len(touching)
    return degrees


def random_graph(rng, n: int, p: float) -> InstanceGraph:
    edges = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    ]
    return InstanceGraph(n=n, edges=tuple(edges))


def random_hypergraph_supports(rng, n_vertices: int, n_edges: int, max_width: int = 3):
    """Distinct random supports of width 2..max_width over x1..xn."""
    names = [f"x{i}" for i in range(1, n_vertices + 1)]
    supports: set[tuple[str, ...]] = set()
    attempts = 0
    while len(supports) < n_edges and attempts < 200:
        attempts += 1
        width = rng.randint(2, min(max_width, n_vertices))
        supports.add(tuple(sorted(rng.sample(names, width))))
    return sorted(supports)


def random_polynomial(rng, names, max_terms: int = 8, max_width: int = 3) -> Polynomial:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        width = rng.randint(0, min(max_width, len(names)))
        support = tuple(rng.sample(list(names), width))
        terms.append((support, rng.randint(-5, 5)))
    return Polynomial.from_terms(terms)


def phase_table(sched: CircuitSchedule) -> list:
    """Accumulated phase exponent of every basis state, in units of gamma.

    Entry z belongs to the assignment where ``sched.variables[i]`` is bit i
    of z.  Sums every gate's monomials over the whole cube, 2**n entries;
    mixer gates carry none.
    """
    return sched.covered_polynomial().values_over_cube(sched.variables)


def phase_table_reference(sched: CircuitSchedule, pubo: Pubo) -> EquivalenceReport:
    """The phase oracle by tables: compare the phase and the objective state by state.

    The objective's constant is only a global phase, so it is left out.
    Reports the first mismatching basis state in bitmask order.
    """
    variables = sched.variables
    phases = phase_table(sched)
    target = pubo.objective - Polynomial.constant(pubo.objective.constant_term)
    expected = target.values_over_cube(variables)
    for z, phase in enumerate(phases):
        if phase != expected[z]:
            return EquivalenceReport(
                equivalent=False,
                mismatch_assignment={name: (z >> i) & 1 for i, name in enumerate(variables)},
                phase=Fraction(phase),
                expected=Fraction(expected[z]),
            )
    return EquivalenceReport(equivalent=True)


# The branch and bound of ``hypergraph.search_layers`` as it was on frozensets,
# copied unchanged apart from its name and its budget stop, which returns
# the best found instead of raising: a new gate list for every layer tried,
# a dict per edge for the DSATUR counts, and ``max`` with a key for the
# branching edge.  The integer-mask search must visit the same nodes and
# return the same layers.

#: A circuit layer: its gates, each as (qubits acted on, indices of the edges covered).
Layer = list[tuple[frozenset, list[int]]]


def _class_accepts(groups: Layer, support: frozenset, limit: int) -> Layer | None:
    """Merge plan if `support` joins this class, or None when it would exceed limit.

    Edges sharing qubits with existing gates of the class must merge into one
    gate; the merged gate count stays within the width limit or the class is
    rejected.  With ``limit=0`` nothing merges: the class accepts `support`
    only when it shares no qubit with the class.
    """
    overlapping = [g for g in groups if g[0] & support]
    union = frozenset(support)
    members: list[int] = []
    for g_union, g_members in overlapping:
        union |= g_union
        members.extend(g_members)
    if overlapping and len(union) > limit:
        return None
    rest = [g for g in groups if not (g[0] & support)]
    return rest + [(union, members)]


def search_layers_reference(
    h: DerivedHypergraph,
    limit: int,
    budget: int,
    incumbent: int,
    seed: Sequence[int] = (),
    lower: int = 0,
) -> tuple[list[Layer] | None, int, bool]:
    """Fewest layers covering the edges of ``h``, by branch and bound.

    Each node branches on the unplaced edge with the most distinct layers
    among its placed conflicting edges (DSATUR, Brelaz 1979), then the most
    conflicts, then the lowest index.  It tries every layer that accepts the
    edge through :func:`_class_accepts` with ``limit``, then one new layer
    when that could still beat the best solution so far.  Only solutions
    with fewer than ``incumbent`` layers count.  The ``seed`` edges, which
    must pairwise conflict, open the first layers, one each.  The search
    stops at a solution with ``lower`` layers.

    Returns the best layers found (None if none beat ``incumbent``), the
    number of nodes explored, and whether the search finished: when the
    node budget runs out it stops, with the best found and the whole budget.
    """
    if incumbent <= lower:
        return None, 0, True
    supports = [frozenset(e.support) for e in h.edges]
    conflicts = conflicts_pairwise(supports)
    m = len(supports)
    # score[i] = saturation * m + rank of (conflict degree, -i), kept up to
    # date as edges come and go; a placed edge's score is m * (m + 1) lower,
    # so the branching edge is the one with the highest score.
    score = [0] * m
    for rank, edge in enumerate(sorted(range(m), key=lambda i: (len(conflicts[i]), -i))):
        score[edge] = rank
    # in_layer[i][k]: placed edges conflicting with edge i that sit in layer k
    in_layer: list[dict[int, int]] = [{} for _ in range(m)]
    layers: list[Layer] = []
    best: list[Layer] | None = None
    best_count = incumbent
    nodes = 0

    def place(edge: int, index: int, step: int) -> None:
        """Put ``edge`` into layer ``index`` (step 1) or take it out again (step -1)."""
        score[edge] -= step * m * (m + 1)
        for j in conflicts[edge]:
            count = in_layer[j][index] = in_layer[j].get(index, 0) + step
            if count == (step == 1):  # the first in, or the last out
                score[j] += step * m

    for edge in seed:
        place(edge, len(layers), 1)
        layers.append([(supports[edge], [edge])])

    def dfs(placed: int) -> bool:
        """Extend the partial layers; True once a solution with ``lower`` layers is found."""
        nonlocal nodes, best, best_count
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        if len(layers) >= best_count:
            return False
        if placed == m:
            best, best_count = [list(layer) for layer in layers], len(layers)
            return best_count <= lower
        edge = max(range(m), key=score.__getitem__)
        support = supports[edge]
        for index in range(len(layers)):
            merged = _class_accepts(layers[index], support, limit)
            if merged is None:
                continue
            merged[-1][1].append(edge)
            saved, layers[index] = layers[index], merged
            place(edge, index, 1)
            stop = dfs(placed + 1)
            place(edge, index, -1)
            layers[index] = saved
            if stop:
                return True
        if len(layers) + 1 >= best_count:
            return False
        place(edge, len(layers), 1)
        layers.append([(support, [edge])])
        stop = dfs(placed + 1)
        layers.pop()
        place(edge, len(layers), -1)
        return stop

    try:
        dfs(len(layers))
    except _OutOfBudget:
        return best, budget, False
    return best, nodes, True


class _OutOfBudget(Exception):
    """Unwinds the reference search when its node budget runs out."""


def merge_lower_bound_reference(h: DerivedHypergraph, limit: int) -> int:
    """The greedy bound ``hypergraph._merge_lower_bound`` gave before the cover count, on frozensets.

    At each vertex, the most edges of which no two fit one gate of
    ``limit`` qubits, picked widest first.  The cover count is never below it.
    """
    supports = [frozenset(e.support) for e in h.edges]
    best = 0
    for edges in h.incident:
        apart: list[frozenset] = []
        for edge in sorted(edges, key=lambda i: -len(supports[i])):
            if all(len(supports[edge] | other) > limit for other in apart):
                apart.append(supports[edge])
        best = max(best, len(apart))
    return best


def render_schedule_text_reference(sched: CircuitSchedule, color: bool = False) -> str:
    """``io.render_schedule_text`` by scanning every gate of a layer for each qubit."""
    headers = []
    cost_index = 0
    for layer in sched.layers:
        if layer.kind == "mixer":
            headers.append("mixer")
        elif layer.kind == "singleton":
            headers.append("1q")
        else:
            cost_index += 1
            headers.append(f"L{cost_index}")

    grid: list[list[str]] = []
    for name in sched.variables:
        row = []
        for layer in sched.layers:
            prefix = "B" if layer.kind == "mixer" else "C"
            label = "."
            for gate in layer.gates:
                if name in gate.support:
                    label = f"{prefix}({','.join(gate.support)})"
                    break
            row.append(label)
        grid.append(row)

    name_width = max((len(n) for n in sched.variables), default=0)
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in grid), default=1))
        for i in range(len(sched.layers))
    ]
    palette = (31, 32, 33, 34, 35, 36, 91, 92, 93, 94, 95, 96)
    lines = [" ".join([" " * name_width] + [h.ljust(w) for h, w in zip(headers, widths)])]
    for v, name in enumerate(sched.variables):
        cells = []
        for i in range(len(sched.layers)):
            text = grid[v][i].ljust(widths[i])
            if color and grid[v][i] != ".":
                text = f"\x1b[{palette[i % len(palette)]}m{text}\x1b[0m"
            cells.append(text)
        lines.append(" ".join([name.ljust(name_width)] + cells))
    if sched.iterations > 1:
        lines.append(f"(repeated {sched.iterations} times; angles gamma_k, beta_k per iteration)")
    return "\n".join(lines) + "\n"


def _with_terms_reference(records: list[dict], key: str):
    """``records``, whose values under ``key`` are polynomials, as runs of one key set.

    The dict-per-record path ``io`` used before it read records column by
    column: each run of dicts with equal keys is a table whose ``key``
    column is one table of all its polynomials' terms with each record's
    count of them.
    """
    runs = _Runs()
    for _, run in itertools.groupby(records, dict.keys):
        run = list(run)
        columns = {name: [record[name] for record in run] for name in run[0]}
        polys = columns.get(key)
        if polys is not None:
            terms = [term for poly in polys for term in poly.terms()]
            columns[key] = ([poly.num_terms() for poly in polys], _records(terms, "vars", "coeff"))
        runs.append(_Table(columns))
    return runs


def schedule_to_json_reference(sched: CircuitSchedule) -> dict:
    """``io.schedule_to_json`` with one dict per gate and one per term, and no table."""
    layers = []
    for layer in sched.layers:
        gates = []
        for gate in layer.gates:
            record = {"qubits": list(gate.support)}
            if layer.kind != "mixer":
                record["terms"] = [{"vars": list(support), "coeff": coeff}
                                   for support, coeff in gate.monomials]
            gates.append(record)
        angle = "beta" if layer.kind == "mixer" else "gamma"
        layers.append({"kind": layer.kind, "angle": angle, "gates": gates})
    return {
        "variables": list(sched.variables),
        "iterations": sched.iterations,
        "structural_depth": sched.structural_depth,
        "total_depth": sched.total_depth,
        "layers": layers,
    }


def problem_to_json_reference(problem: Problem) -> dict:
    """``io.problem_to_json`` with one dict per constraint, regrouped by its keys."""
    constraints = []
    for con in problem.constraints:
        entry = {"terms": con.lhs, "rhs": con.rhs}
        if con.weight is not None:
            entry["lambda"] = con.weight
        if con.lower is not None:
            entry["lower"] = con.lower
        if con.slack_bound is not None:
            entry["slack_bound"] = con.slack_bound
        if con.label:
            entry["label"] = con.label
        if con.reference_expansion is not None:
            entry["reference_expansion"] = polynomial_to_json(con.reference_expansion)
        constraints.append(entry)
    out = {
        "sense": problem.sense,
        "variables": problem.variables,
        "objective": polynomial_to_json(problem.objective),
        "constraints": _with_terms_reference(constraints, "terms"),
    }
    if problem.family is not None:
        out["family"] = problem.family
    if problem.family_info:
        out["family_info"] = problem.family_info
    return out


def dualization_record_reference(record) -> dict:
    """The record of one constraint's dualization, with its penalty as the polynomial."""
    out = {"index": record.index, "label": record.label, "dropped": record.dropped}
    if record.dropped:
        out["reason"] = record.reason
    if record.cube_min is not None:
        out["cube_min"] = record.cube_min
        out["cube_min_exact"] = record.cube_min_exact
    if not record.dropped:
        out["slack_range"] = record.slack_range
        out["slack_bits"] = record.bit_count
        out["slack_vars"] = record.slack_vars
        out["penalty_weight"] = record.weight
        out["penalty"] = record.penalty
    if record.notes:
        out["notes"] = record.notes
    if record.expansion_diff is not None:
        out["expansion_diff"] = expansion_diff_to_json(record.expansion_diff)
    return out


def pubo_to_json_reference(pubo: Pubo) -> dict:
    """``io.pubo_to_json`` with one dict per dualization record, regrouped by its keys."""
    return {
        "objective": polynomial_to_json(pubo.objective),
        "constant_offset": pubo.constant_offset,
        "original_sense": pubo.original_sense,
        "variables": pubo.variables,
        "slack_variables": pubo.slack_names(),
        "dualization": _with_terms_reference(
            [dualization_record_reference(r) for r in pubo.dualizations], "penalty"),
    }
