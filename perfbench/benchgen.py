"""Seeded input generators for the benchmark.

Everything here is plain data drawn from a ``random.Random``.  Nothing is
imported from ``qaoadepth``: the program under test only ever sees the
problem JSON and DIMACS files written from these values.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def rational_json(value: Fraction):
    """A number in the problem schema: an int, or a {num, den} object."""
    value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return {"num": value.numerator, "den": value.denominator}


def rational_from_json(value) -> Fraction:
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    return Fraction(value)


def random_graph(rng: random.Random, n: int, avg_degree: float) -> list[tuple[int, int]]:
    """G(n, m) with m = round(n * avg_degree / 2) distinct edges on vertices 1..n."""
    m = min(round(n * avg_degree / 2), n * (n - 1) // 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def dimacs(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def random_clauses(rng: random.Random, n_vars: int, n_clauses: int, width: int = 3) -> list[list[int]]:
    """Random clauses of ``width`` distinct variables with random signs."""
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(range(1, n_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def knapsack_items(rng: random.Random, n: int) -> tuple[list[int], list[int], int]:
    """Positive values, weights sorted ascending, capacity about half the total weight."""
    weights = sorted(rng.randint(1, 30) for _ in range(n))
    values = [rng.randint(1, 40) for _ in range(n)]
    capacity = max(1, sum(weights) // 2 + rng.randint(-5, 5))
    return values, weights, capacity


def _coefficient(rng: random.Random, rational_share: float) -> Fraction:
    magnitude = Fraction(rng.randint(1, 3))
    if rng.random() < rational_share:
        magnitude /= rng.choice((2, 3))
    return magnitude if rng.random() < 0.5 else -magnitude


def _terms_json(terms: dict[tuple[str, ...], Fraction]) -> list[dict]:
    return [
        {"vars": list(support), "coeff": rational_json(coeff)}
        for support, coeff in sorted(terms.items())
        if coeff != 0
    ]


def _evaluate(terms: dict[tuple[str, ...], Fraction], assignment: dict[str, int]) -> Fraction:
    return sum(
        (c for s, c in terms.items() if all(assignment[v] for v in s)), Fraction(0)
    )


def _cube_extremes(terms: dict[tuple[str, ...], Fraction]) -> tuple[Fraction, Fraction]:
    names = sorted({v for s in terms for v in s})
    values = [
        _evaluate(terms, dict(zip(names, bits)))
        for bits in itertools.product((0, 1), repeat=len(names))
    ]
    return min(values), max(values)


def _square_degree(terms: dict[tuple[str, ...], Fraction]) -> int:
    """Largest monomial width in (lhs + linear slack)**2 with x*x = x."""
    supports = [frozenset(s) for s in terms] + [frozenset()]
    return max(len(a | b) for a in supports for b in supports)


def general_problem(
    rng: random.Random,
    n_vars: int,
    gate_width: int,
    n_constraints: int,
    pubo_vars: int | None = None,
) -> tuple[dict, int]:
    """A random problem using every constraint form the schema accepts.

    Constraints are linear or quadratic, with integer or rational
    coefficients, one- or two-sided, and sometimes carry an explicit
    ``lambda``.  A planted assignment satisfies all of them, so no input
    is infeasible.  Quadratic left-hand sides are kept to squares of degree
    at most ``gate_width``: at width 3 every product shares one hub
    variable.  ``pubo_vars`` caps original plus slack bits, and free
    variables (objective only) fill up to exactly that count.  Returns the
    problem and its variable count after dualization (original plus slack).
    """
    names = [f"x{i}" for i in range(1, n_vars + 1)]
    planted = {name: rng.randint(0, 1) for name in names}
    sense = rng.choice(("min", "max"))

    objective: dict[tuple[str, ...], Fraction] = {}
    for name in names:
        objective[(name,)] = _coefficient(rng, 0.3)
    # One rational objective coefficient at least, so every general problem
    # takes the program's Fraction path and instances of one size cost alike.
    objective[(names[0],)] = Fraction(rng.choice((-3, -1, 1, 3)), 2)
    for _ in range(n_vars // 2):
        support = tuple(sorted(rng.sample(names, rng.randint(2, min(3, gate_width)))))
        objective[support] = objective.get(support, Fraction(0)) + _coefficient(rng, 0.3)
    swing = max(
        abs(sum((min(Fraction(0), c) for c in objective.values()), Fraction(0))),
        sum((max(Fraction(0), c) for c in objective.values()), Fraction(0)),
    )

    slack_bits = 0
    constraints = []
    for index in range(n_constraints):
        size = rng.randint(3, min(5, n_vars))
        members = sorted(rng.sample(names, size), key=lambda v: int(v[1:]))
        rational_share = 0.5 if rng.random() < 0.4 else 0.0
        lhs: dict[tuple[str, ...], Fraction] = {}
        if rng.random() < 0.5:
            hub = members[0]
            for other in members[1:]:
                pair = (hub, other) if gate_width == 3 else tuple(sorted(rng.sample(members, 2)))
                pair = tuple(sorted(pair))
                lhs[pair] = lhs.get(pair, Fraction(0)) + _coefficient(rng, rational_share)
            if gate_width >= 4 or rng.random() < 0.5:
                lhs[(members[-1],)] = _coefficient(rng, rational_share)
        else:
            for name in members:
                lhs[(name,)] = _coefficient(rng, rational_share)
        lhs = {s: c for s, c in lhs.items() if c != 0}
        if not lhs or _square_degree(lhs) > gate_width:
            continue

        at_planted = _evaluate(lhs, planted)
        rhs = at_planted + rng.choice((0, 0, 1, 2, Fraction(1, 2)))
        lower = None
        if rng.random() < 0.35:
            lower = at_planted - rng.choice((0, 1, 2, 3))
            if lower >= rhs:
                lower = rhs - 1
        low, high = _cube_extremes(lhs)
        slack = rhs - low if lower is None else min(rhs - low, rhs - lower)
        dropped = high <= rhs and lower is None
        bits = 0 if dropped else math.ceil(slack).bit_length()
        if pubo_vars is not None and len(names) + slack_bits + bits > pubo_vars:
            continue
        slack_bits += bits

        entry = {"terms": _terms_json(lhs), "rhs": rational_json(rhs), "label": f"c{index + 1}"}
        if lower is not None:
            entry["lower"] = rational_json(lower)
        if rng.random() < 0.2:
            entry["lambda"] = rational_json(2 * (1 + swing))
        constraints.append(entry)
    while pubo_vars is not None and len(names) + slack_bits < pubo_vars:
        names.append(f"x{len(names) + 1}")
        objective[(names[-1],)] = _coefficient(rng, 0.3)

    problem = {
        "sense": sense,
        "variables": names,
        "objective": _terms_json(objective),
        "constraints": constraints,
    }
    return problem, len(names) + slack_bits


def random_pubo(rng: random.Random, n_vars: int, n_terms: int, gate_width: int) -> dict:
    """An unconstrained minimization with monomials of width 2..gate_width."""
    names = [f"x{i}" for i in range(1, n_vars + 1)]
    terms: dict[tuple[str, ...], Fraction] = {}
    while len(terms) < n_terms:
        support = tuple(sorted(rng.sample(names, rng.randint(2, gate_width))))
        terms[support] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    for name in names:
        terms[(name,)] = Fraction(rng.randint(-2, 2))
    return {"sense": "min", "variables": names, "objective": _terms_json(terms), "constraints": []}


def known_defect(problem: dict) -> str | None:
    """Why the penalty form of ``problem`` may lose its argmin today, if it may.

    Two defects of the dualizer are known and not yet fixed: a two-sided
    ``lower`` is not enforced when ``rhs - lower + 1`` is not a power of two
    (the slack bits reach past the range), and the default penalty weight
    assumes every violation is at least 1, which rational constraint data
    breaks.  A penalty-oracle FAIL on such an input is counted as a known
    defect, not as a failed operation; a fix turns it into a pass.
    """
    for con in problem.get("constraints", []):
        numbers = [rational_from_json(t["coeff"]) for t in con["terms"]]
        numbers.append(rational_from_json(con["rhs"]))
        if "lower" in con:
            numbers.append(rational_from_json(con["lower"]))
            span = rational_from_json(con["rhs"]) - rational_from_json(con["lower"])
            if span.denominator != 1 or (span.numerator + 1) & span.numerator:
                return "two-sided bound with rhs - lower + 1 not a power of two"
        if any(x.denominator != 1 for x in numbers):
            return "rational constraint data"
    return None
