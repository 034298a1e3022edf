"""Constrained binary optimization problems and the studied problem families.

A :class:`Problem` is an objective polynomial plus a list of ``lhs <= rhs``
constraints over named binary variables.  Generators build the classic
families (MaxCut, MaxIndSet, Vertex Cover, Knapsack, TSP, SAT) from natural
inputs and tag the result so depth analyzers can recognize the family later.
A :class:`Constraint` is a named tuple, so ``_replace`` takes the place of
``dataclasses.replace``; it checks nothing, as ``tuple.__new__`` does not.
"""

from __future__ import annotations

import warnings
from collections import Counter, namedtuple
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .poly import Polynomial, Scalar, _coerce, canonical

MINIMIZE = "min"
MAXIMIZE = "max"


class Constraint(namedtuple("Constraint", "lhs rhs weight lower slack_bound label reference_expansion")):
    """lhs <= rhs, optionally two-sided (lower <= lhs <= rhs).

    ``weight`` is the penalty multiplier used when the constraint is turned
    into a squared penalty; ``None`` means "use the problem-level default".
    ``slack_bound`` optionally caps the slack range used to size slack bits
    when domain knowledge guarantees the slack never exceeds it at optima.
    ``reference_expansion`` may hold an externally supplied expansion of the
    squared penalty; the dualizer diffs its own expansion against it and
    reports every discrepancy.

    The constructor coerces and checks the numbers.  The generators whose
    data are int literals build theirs at tuple cost, with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, lhs: Polynomial, rhs: Scalar, weight: Scalar | None = None,
                lower: Scalar | None = None, slack_bound: Scalar | None = None, label: str = "",
                reference_expansion: Polynomial | None = None):
        rhs = _coerce(rhs)
        if weight is not None:
            weight = _penalty_weight(weight)
        if lower is not None:
            lower = _coerce(lower)
            if lower >= rhs:
                raise InvalidInputError(
                    f"two-sided constraint needs lower < rhs, got {lower} >= {rhs}"
                )
        if slack_bound is not None:
            slack_bound = _coerce(slack_bound)
            if slack_bound < 0:
                raise InvalidInputError("slack_bound must be nonnegative")
        return tuple.__new__(cls, (lhs, rhs, weight, lower, slack_bound, label, reference_expansion))


def _penalty_weight(value) -> Scalar:
    """``value`` as an exact penalty weight; InvalidInputError unless it is positive."""
    if (weight := _coerce(value)) <= 0:
        raise InvalidInputError(f"penalty weight must be positive, got {weight}")
    return weight


def _constraints(lhs: Iterable[Polynomial], rhs: Iterable[int], labels: Iterable[str]):
    """``Constraint(l, r, label=t)`` for each ``(l, r, t)``, built at tuple cost: an int
    ``r`` needs no coercion, and a generator's data need no check."""
    return tuple(map(tuple.__new__, repeat(Constraint), zip(
        lhs, rhs, repeat(None), repeat(None), repeat(None), labels, repeat(None))))


@dataclass
class Problem:
    """A constrained problem over binary variables, listed by name in a fixed order."""

    sense: str
    objective: Polynomial
    constraints: tuple[Constraint, ...] = ()
    variables: tuple[str, ...] = ()
    family: str | None = None
    family_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise InvalidInputError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.constraints = tuple(self.constraints)
        self.variables = tuple(self.variables)
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            repeated = sorted(name for name, uses in Counter(self.variables).items() if uses > 1)
            raise InvalidInputError(f"variable names must be unique, repeated: {repeated}")
        used = set().union(*self.objective.supports())
        for con in self.constraints:
            used.update(*con.lhs.supports())
        missing = used - declared
        if missing:
            raise InvalidInputError(f"unregistered variables: {sorted(missing)}")

    def default_penalty_weight(self) -> Scalar:
        """1 plus an interval bound ``high - low`` on the objective's range over the cube.

        ``low`` and ``high`` sum the negative and the positive coefficients of
        the non-constant terms, so the objectives of any two assignments differ
        by at most ``high - low``: the constant shifts them all alike.  An
        assignment that violates a constraint by at least 1 pays at least the
        weight, so no infeasible point can undercut a feasible optimum.
        Negating the objective swaps and negates ``low`` and ``high``, so the
        weight is the same for either sense.
        """
        coeffs = [c for support, c in self.objective.terms() if support]
        low = sum([min(0, c) for c in coeffs])
        high = sum([max(0, c) for c in coeffs])
        return canonical(1 + high - low)


@dataclass(frozen=True)
class InstanceGraph:
    """A simple graph with 1-based vertices and optional edge weights."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Scalar, ...] | None = None

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        normalized = []
        for u, v in self.edges:
            if 1 <= u < v <= n:
                key = (u, v)
            elif 1 <= v < u <= n:
                key = (v, u)
            elif 1 <= u <= n and 1 <= v <= n:
                raise InvalidInputError(f"loop edge ({u},{v}) not allowed")
            else:
                raise InvalidInputError(f"edge ({u},{v}) outside vertex range 1..{n}")
            if key in seen:
                raise InvalidInputError(f"duplicate edge ({u},{v}); multigraphs are rejected")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(normalized))
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise InvalidInputError("weights must match edges one-to-one")
            object.__setattr__(self, "weights", tuple(map(_coerce, self.weights)))

    def weight(self, index: int) -> Scalar:
        return self.weights[index] if self.weights is not None else 1

    def max_degree(self) -> int:
        return max(Counter(v for edge in self.edges for v in edge).values(), default=0)


def _vertex_var(i: int) -> str:
    return f"x{i}"


def _vertex_names(g: InstanceGraph) -> list[str]:
    """Each vertex's variable name, by vertex number; item 0 is unused."""
    return list(map(_vertex_var, range(g.n + 1)))


def _count_vertices(names: list[str]) -> Polynomial:
    """The sum of the variables ``names[1:]``."""
    return Polynomial._from_canonical({(name,): 1 for name in names[1:]})


def make_maxcut(g: InstanceGraph) -> Problem:
    """MaxCut as an unconstrained minimization.

    Each edge {i,j} contributes w*(2*xi*xj - xi - xj), which is -w exactly
    when the edge is cut, so the minimum equals minus the maximum cut weight.
    """
    names = _vertex_names(g)
    weights = g.weights if g.weights is not None else (1,) * len(g.edges)
    # The coefficient dict is built in canonical form directly: supports are
    # sorted by name ("x10" < "x9") and edges are distinct, so each edge owns
    # its quadratic key and each vertex sums its linear coefficient once.
    terms: dict[tuple[str, ...], Scalar] = {}
    linear = [0] * (g.n + 1)
    for (u, v), w in zip(g.edges, weights):
        xu, xv = names[u], names[v]
        terms[(xu, xv) if xu < xv else (xv, xu)] = 2 * w
        linear[u] -= w
        linear[v] -= w
    for i in range(1, g.n + 1):
        terms[(names[i],)] = linear[i]
    return Problem(
        sense=MINIMIZE,
        objective=Polynomial._from_canonical(terms),
        constraints=(),
        variables=tuple(names[1:]),
        family="maxcut",
        family_info={"n": g.n, "edges": g.edges},
    )


def with_penalty_weight(problem: Problem, weight) -> Problem:
    """``problem`` with ``weight`` (``--lambda``) as every constraint's penalty weight."""
    weight = _penalty_weight(weight)
    return replace(problem, constraints=tuple(c._replace(weight=weight) for c in problem.constraints))


def make_maxindset(g: InstanceGraph) -> Problem:
    """Maximum independent set: max sum(xi) with xi*xj <= 0 per edge."""
    names = _vertex_names(g)
    lhs = []
    for u, v in g.edges:
        xu, xv = names[u], names[v]
        lhs.append(Polynomial._from_sorted({(xu, xv) if xu < xv else (xv, xu): 1}))
    return Problem(
        sense=MAXIMIZE,
        objective=_count_vertices(names),
        constraints=_constraints(lhs, repeat(0), [f"edge({u},{v})" for u, v in g.edges]),
        variables=tuple(names[1:]),
        family="maxindset",
        family_info={"n": g.n, "edges": g.edges},
    )


def make_vertex_cover(g: InstanceGraph) -> Problem:
    """Minimum vertex cover: min sum(xi) with (1-xi)+(1-xj) <= 1 per edge."""
    names = _vertex_names(g)
    lhs = []
    for u, v in g.edges:
        xu, xv = names[u], names[v]
        if xv < xu:
            xu, xv = xv, xu
        lhs.append(Polynomial._from_sorted({(): 2, (xu,): -1, (xv,): -1}))
    return Problem(
        sense=MINIMIZE,
        objective=_count_vertices(names),
        constraints=_constraints(lhs, repeat(1), [f"edge({u},{v})" for u, v in g.edges]),
        variables=tuple(names[1:]),
        family="vertex_cover",
        family_info={"n": g.n, "edges": g.edges},
    )


def make_knapsack(
    values: Sequence,
    weights: Sequence,
    capacity,
    preprocess: bool = False,
) -> Problem:
    """0/1 knapsack: max sum(vi*xi) subject to sum(wi*xi) <= capacity.

    With ``preprocess=True`` (weights must be sorted ascending, values
    positive) the capacity constraint is tightened to the two-sided form
    capacity - w_n <= sum(wi*xi) <= capacity: any solution lighter than that
    leaves room for another item, so optima are unaffected and the slack
    range shrinks from ``capacity`` to ``w_n``.
    """
    if len(values) != len(weights):
        raise InvalidInputError("values and weights must have equal length")
    if not weights:
        raise InvalidInputError("knapsack needs at least one item")
    n = len(weights)
    weights = [_coerce(w) for w in weights]
    values = [_coerce(v) for v in values]
    capacity = _coerce(capacity)
    if any(w <= 0 for w in weights):
        raise InvalidInputError("weights must be positive")
    if capacity <= 0:
        raise InvalidInputError("capacity must be positive")
    if preprocess:
        if any(values[i] <= 0 for i in range(n)):
            raise InvalidInputError("preprocessing requires positive values")
        if any(weights[i] > weights[i + 1] for i in range(n - 1)):
            raise InvalidInputError("preprocessing requires weights sorted ascending")

    names = [_vertex_var(i) for i in range(1, n + 1)]
    objective = Polynomial.from_terms(((names[i],), values[i]) for i in range(n))
    load = Polynomial.from_terms(((names[i],), weights[i]) for i in range(n))

    constraints: tuple[Constraint, ...]
    if sum(weights) <= capacity:
        warnings.warn("capacity constraint is redundant (every item fits); dropping it")
        constraints = ()
    elif preprocess:
        w_max = weights[-1]
        constraints = (
            Constraint(
                lhs=load,
                rhs=capacity,
                lower=capacity - w_max,
                slack_bound=w_max,
                label="capacity",
            ),
        )
    else:
        constraints = (Constraint(lhs=load, rhs=capacity, label="capacity"),)

    return Problem(
        sense=MAXIMIZE,
        objective=objective,
        constraints=constraints,
        variables=tuple(names),
        family="knapsack",
        family_info={
            "n": n,
            "capacity": capacity,
            "max_weight": max(weights),
            "preprocess": preprocess,
        },
    )


def _edge_var(u: int, v: int) -> str:
    u, v = min(u, v), max(u, v)
    return f"e{u}_{v}"


def make_tsp(g: InstanceGraph, subtour_subsets: Sequence[Iterable[int]] = ()) -> Problem:
    """Traveling salesperson on edge variables.

    Every vertex must have tour degree exactly 2; each equality is expanded
    into a <= pair.  Subtour elimination sets Q (2 <= |Q| < n) are supplied
    by the caller since the full family is exponential; constraints that can
    never bind (for example |Q| = 2, where the bound is vacuous on binary
    variables) are dropped with a warning.
    """
    if g.weights is None:
        raise InvalidInputError("TSP needs an edge-weighted graph")
    names = [_edge_var(u, v) for u, v in g.edges]
    objective = Polynomial.from_terms(
        ((_edge_var(u, v),), g.weight(idx)) for idx, (u, v) in enumerate(g.edges)
    )

    incident: list[list[str]] = [[] for _ in range(g.n + 1)]  # per vertex, its edges' names
    for name, (u, v) in zip(names, g.edges):
        incident[u].append(name)
        incident[v].append(name)
    lhs, rhs, labels = [], [], []  # of each constraint
    for vertex in range(1, g.n + 1):
        degree = Polynomial.from_terms(((name,), 1) for name in incident[vertex])
        # degree == 2, written as the <= pair (<= 2 and -degree <= -2)
        lhs += (degree, -degree)
        rhs += (2, -2)
        labels += (f"degree({vertex})<=", f"degree({vertex})>=")

    n_subtour = 0
    for subset in subtour_subsets:
        q = sorted(set(subset))
        if len(q) < 2:
            raise InvalidInputError(f"subtour set {q} must have at least 2 vertices")
        if len(q) >= g.n:
            raise InvalidInputError(f"subtour set {q} must be a proper subset of the vertices")
        if any(v < 1 or v > g.n for v in q):
            raise InvalidInputError(f"subtour set {q} outside vertex range")
        inside = set(q)
        members = [name for name, (u, v) in zip(names, g.edges) if u in inside and v in inside]
        inner = Polynomial.from_terms(((name,), 1) for name in members)
        if inner.maximum_over_cube()[0] <= len(q) - 1:
            warnings.warn(f"subtour constraint on {q} can never bind; dropping it")
            continue
        lhs.append(inner)
        rhs.append(len(q) - 1)
        labels.append(f"subtour({','.join(map(str, q))})")
        n_subtour += 1

    return Problem(
        sense=MINIMIZE,
        objective=objective,
        constraints=_constraints(lhs, rhs, labels),
        variables=tuple(names),
        family="tsp",
        family_info={
            "n_vertices": g.n,
            "n_edge_vars": len(names),
            "n_subtour": n_subtour,
        },
    )


def make_sat(clauses: Sequence[Sequence[int]]) -> Problem:
    """Soft SAT: minimize the number of violated clauses.

    Clauses are lists of nonzero signed integers (DIMACS convention: ``3``
    means x3, ``-3`` means "not x3").  Clause c gets an indicator z_c that is
    free to be 1 exactly when the clause is unsatisfied, enforced through
    the contrapositive form  sum(unsatisfied literals) - z_c <= |c| - 1.
    """
    if not clauses:
        raise InvalidInputError("clause list must be nonempty")
    max_var = 0
    for clause in clauses:
        if not clause:
            raise InvalidInputError("empty clauses are not allowed")
        for lit in clause:
            if lit == 0:
                raise InvalidInputError("literal 0 is not allowed")
            max_var = max(max_var, abs(lit))

    x_names = [_vertex_var(i) for i in range(1, max_var + 1)]
    z_names = [f"z{c}" for c in range(1, len(clauses) + 1)]
    labels = [f"clause({c})" for c in range(1, len(clauses) + 1)]
    objective = Polynomial.from_terms(((z,), 1) for z in z_names)

    lhs = []
    for c, clause in enumerate(clauses, start=1):
        seen_vars = set()
        terms: list[tuple[tuple[str, ...], int]] = []
        for lit in clause:
            name = _vertex_var(abs(lit))
            if name in seen_vars:
                raise InvalidInputError(f"variable {name} repeats in clause {c}")
            seen_vars.add(name)
            if lit > 0:
                # positive literal unsatisfied when x = 0: contributes 1 - x
                terms.append(((), 1))
                terms.append(((name,), -1))
            else:
                terms.append(((name,), 1))
        terms.append(((f"z{c}",), -1))
        lhs.append(Polynomial.from_terms(terms))

    return Problem(
        sense=MINIMIZE,
        objective=objective,
        constraints=_constraints(lhs, [len(clause) - 1 for clause in clauses], labels),
        variables=tuple(x_names + z_names),
        family="sat",
        family_info={"n_vars": max_var, "clauses": tuple(map(tuple, clauses))},
    )
