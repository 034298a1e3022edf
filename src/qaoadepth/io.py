"""File formats and serialization.

Problems travel as JSON (schema below); plain graphs may come in as DIMACS
edge files for the family generators.  All numbers are exact end to end:
integers stay integers and non-integral rationals are {"num": p, "den": q}
objects, never floats, so repeated runs are byte-identical.

Problem JSON schema::

    {
      "sense": "min" | "max",
      "variables": ["x1", ...],
      "objective": [{"vars": ["x1", "x2"], "coeff": 2}, ...],
      "constraints": [
        {"terms": [{"vars": [...], "coeff": ...}, ...],
         "rhs": <number>,
         "lambda": <positive number, optional>,
         "lower": <number, optional two-sided bound>,
         "slack_bound": <number, optional slack-range cap>,
         "label": <string, optional>,
         "reference_expansion": [term, ...]  (optional)}
      ],
      "family": <string, optional>,
      "family_info": <object, optional>
    }

``family`` picks which of the paper's closed-form figures the depth report
quotes; the figure itself is computed from the problem's own structure.
``family_info`` is float-free metadata, nested at most
:data:`FAMILY_INFO_MAX_DEPTH` lists and objects deep: it is copied into
every artifact and never read.

The ``*_to_json`` builders return what :func:`dumps` writes, not plain
``json`` values, and they alone lay out records: a list of like records
(terms, edges, layers, gates, bounds) is a ``_Table`` read column by
column from the model, with no dict per record, and ints, Fractions and
tuples pass through as they are.  Records whose optional keys differ
(constraints, dualizations), and gates, which only layers with terms give
terms, are ``_Runs`` of tables of one key set, and all the terms of a
run's polynomials, or all its expansion diffs, make one table.  Constraint
and dualization records are named tuples, read in columns by one ``zip``.
Only the encoder knows the ``{"num", "den"}`` format (with
:func:`rational_from_json`, which reads it back).  Every artifact is
written through :func:`dumps`.

Sections share model objects (an unconstrained objective is its penalty
form; one names tuple is four sections' variables), and :func:`dumps`
writes each once.  A schedule's gates list the objectives' terms again, and
:func:`dumps` writes each such record from the text it kept of the term.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction
from itertools import chain, compress, count, groupby, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, is_, is_not, itemgetter, not_
from typing import Any

from .coloring import EdgeColoring
from .dualize import ConstraintDualization, ExpansionDiff, Pubo
from .errors import InvalidInputError
from .hypergraph import DerivedHypergraph
from .poly import Polynomial, Scalar, Support, canonical, ratio
from .problems import Constraint, InstanceGraph, Problem
from .schedule import CircuitSchedule, DepthReport

TOOL_NAME = "qaoadepth"

#: The deepest nesting of lists and objects ``family_info`` may hold, itself
#: included.  :func:`dumps` takes at most about six Python frames per level,
#: so whatever is accepted is written well within the default recursion limit.
FAMILY_INFO_MAX_DEPTH = 100


# -- exact numbers -----------------------------------------------------------


def rational_to_json(value: Scalar):
    """The JSON value :func:`dumps` writes for an exact number."""
    if value.denominator == 1:
        return value.numerator
    return {"num": value.numerator, "den": value.denominator}


def rational_from_json(value, path: str) -> Scalar:
    """The exact number a JSON value encodes: an int when it is whole, else a Fraction."""
    if isinstance(value, bool):
        raise InvalidInputError(f"{path}: expected a number, got a boolean")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        raise InvalidInputError(
            f"{path}: floats are not accepted; use an integer or {{'num', 'den'}}"
        )
    if isinstance(value, dict):
        extra = set(value) - {"num", "den"}
        if extra or "num" not in value or "den" not in value:
            raise InvalidInputError(f"{path}: rational object must have exactly num and den")
        num, den = value["num"], value["den"]
        if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
            raise InvalidInputError(f"{path}: num and den must be integers")
        if den == 0:
            raise InvalidInputError(f"{path}: zero denominator")
        return ratio(num, den)
    raise InvalidInputError(f"{path}: expected a number, got {type(value).__name__}")


def _check_family_info(value, path: str, depth: int = 1) -> None:
    """Raise InvalidInputError at the first float inside a parsed JSON value, or at the
    first list or object nested deeper than :data:`FAMILY_INFO_MAX_DEPTH`."""
    if isinstance(value, float):
        raise InvalidInputError(
            f"{path}: floats are not accepted; use an integer or {{'num', 'den'}}"
        )
    if isinstance(value, (dict, list)) and depth > FAMILY_INFO_MAX_DEPTH:
        raise InvalidInputError(
            f"{path}: nested deeper than {FAMILY_INFO_MAX_DEPTH} lists and objects"
        )
    if isinstance(value, dict):
        for key, item in value.items():
            _check_family_info(item, f"{path}.{key}", depth + 1)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_family_info(item, f"{path}[{i}]", depth + 1)


# -- record tables -----------------------------------------------------------


class _Table:
    """Records of one key set, as one column per sorted key.  A column is a list of values,
    a ``_Table``, or a ``(lengths, flat)`` pair: list i holds the next ``lengths[i]``
    items of ``flat``, a list, a table or a ``_Runs``.  ``source`` is the model object the
    table is read from, if it is read from one alone; :func:`dumps` writes a source's table once."""

    def __init__(self, columns: dict, source=None):
        self.keys = tuple(sorted(columns))
        self.columns = list(map(columns.__getitem__, self.keys))
        self.source = source


class _Runs(list):
    """A list of ``_Table``s, written as one list of all their records in turn."""


class _Terms(list):
    """``(support, coefficient)`` pairs, written as ``{"coeff", "vars"}`` records: from the
    texts :func:`dumps` kept of a polynomial's terms when it kept every pair's, else as a table."""


def _records(rows, *keys) -> _Table:
    """The records of the list ``rows``, in its order: item i of each row under ``keys[i]``."""
    return _Table({key: list(map(itemgetter(i), rows)) for i, key in enumerate(keys)})


def _column(records, name: str) -> list:
    """The attribute ``name`` of each of ``records``."""
    return list(map(attrgetter(name), records))


def _columns(records, kind) -> list[list]:
    """Each field of the ``kind`` named tuples ``records``, as a list: one ``zip`` reads them all."""
    return list(map(list, zip(*records))) or [[] for _ in kind._fields]


def _given(column: list) -> list[bool]:
    """Which values of ``column`` are not None."""
    return list(map(is_not, column, repeat(None)))


def _runs(groups: list[tuple[list[bool] | None, dict[str, list]]], **tables) -> _Runs:
    """Records given column by column, as runs of one key set.

    Each group is a column of flags, one per record, and the columns of the
    keys that the flagged records have; a group whose flags are ``None`` is
    in every record.  A run is a longest stretch of records whose flags
    agree, so every run has one key set.  A run's column under a key of
    ``tables`` is written as ``tables[key]`` makes it, such as
    :func:`_terms_table` for polynomials, so a record's values cost no table of their own.
    """
    runs = _Runs()
    start = 0
    for shape, run in groupby(zip(*[flags for flags, _ in groups if flags is not None])):
        stop = start + len(list(run))
        present = iter(shape)
        columns = {
            key: column[start:stop]
            for flags, group in groups
            if flags is None or next(present)
            for key, column in group.items()
        }
        for key, table in tables.items():
            if key in columns:
                columns[key] = table(columns[key])
        runs.append(_Table(columns))
        start = stop
    return runs


def _terms_table(polys: list[Polynomial]) -> tuple[list[int], _Table]:
    """The terms of ``polys``: each one's count of them, and one table of them all."""
    terms = list(chain.from_iterable(map(Polynomial.terms, polys)))
    return list(map(Polynomial.num_terms, polys)), _records(terms, "vars", "coeff")


# -- polynomials -------------------------------------------------------------


def polynomial_to_json(p: Polynomial) -> _Table:
    """The terms of ``p`` as a table whose source is ``p``."""
    return _Table({"vars": list(p.supports()), "coeff": list(map(itemgetter(1), p.terms()))}, p)


def polynomial_from_json(data, known: set[str] | None, path: str) -> Polynomial:
    """The sum of the JSON terms, each checked once here and not again by :class:`Polynomial`."""
    if not isinstance(data, list):
        raise InvalidInputError(f"{path}: expected a list of terms")
    terms: dict[Support, Scalar] = {}
    for i, term in enumerate(data):  # the paths are formatted only for an error
        if not isinstance(term, dict):
            raise InvalidInputError(f"{path}[{i}]: expected an object")
        if not term.keys() <= {"vars", "coeff"}:
            extra = sorted(term.keys() - {"vars", "coeff"})
            raise InvalidInputError(f"{path}[{i}]: unknown fields {extra}")
        variables = term.get("vars", [])
        if not isinstance(variables, list) or not all(isinstance(v, str) and v for v in variables):
            expected = "expected a list of non-empty variable names"
            raise InvalidInputError(f"{path}[{i}].vars: {expected}")
        if known is not None and not known.issuperset(variables):
            j, name = next((j, name) for j, name in enumerate(variables) if name not in known)
            raise InvalidInputError(f"{path}[{i}].vars[{j}]: unknown variable {name!r}")
        coeff = rational_from_json(term.get("coeff", 1), f"{path}[{i}].coeff")
        key = tuple(sorted(set(variables)))
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial._from_canonical(terms)


# -- problems ----------------------------------------------------------------


def problem_to_json(problem: Problem) -> dict:
    lhs, rhs, weights, lowers, slack_bounds, labels, references = _columns(problem.constraints, Constraint)
    out: dict[str, Any] = {
        "sense": problem.sense,
        "variables": problem.variables,
        "objective": polynomial_to_json(problem.objective),
        "constraints": _runs([
            (None, {"terms": lhs, "rhs": rhs}),
            (_given(weights), {"lambda": weights}),
            (_given(lowers), {"lower": lowers}),
            (_given(slack_bounds), {"slack_bound": slack_bounds}),
            (list(map(bool, labels)), {"label": labels}),
            (_given(references), {"reference_expansion": references}),
        ], terms=_terms_table, reference_expansion=_terms_table),
    }
    if problem.family is not None:
        out["family"] = problem.family
    if problem.family_info:
        out["family_info"] = problem.family_info
    return out


def problem_from_json(data, path: str = "problem") -> Problem:
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: expected an object")
    extra = set(data) - {"sense", "variables", "objective", "constraints", "family", "family_info"}
    if extra:
        raise InvalidInputError(f"{path}: unknown fields {sorted(extra)}")
    sense = data.get("sense")
    if sense not in ("min", "max"):
        raise InvalidInputError(f"{path}.sense: expected 'min' or 'max', got {sense!r}")
    names = data.get("variables")
    if not isinstance(names, list) or not all(isinstance(n, str) and n for n in names):
        raise InvalidInputError(f"{path}.variables: expected a list of non-empty names")
    known = set(names)

    objective = polynomial_from_json(data.get("objective", []), known, f"{path}.objective")

    constraints = []
    raw_constraints = data.get("constraints", [])
    if not isinstance(raw_constraints, list):
        raise InvalidInputError(f"{path}.constraints: expected a list")
    for i, raw in enumerate(raw_constraints):
        c_path = f"{path}.constraints[{i}]"
        if not isinstance(raw, dict):
            raise InvalidInputError(f"{c_path}: expected an object")
        extra = set(raw) - {
            "terms", "rhs", "lambda", "lower", "slack_bound", "label", "reference_expansion",
        }
        if extra:
            raise InvalidInputError(f"{c_path}: unknown fields {sorted(extra)}")
        if "rhs" not in raw:
            raise InvalidInputError(f"{c_path}: missing rhs")
        lhs = polynomial_from_json(raw.get("terms", []), known, f"{c_path}.terms")
        numbers = [  # rhs, weight, lower and slack_bound, each checked by Constraint
            rational_from_json(raw[key], f"{c_path}.{key}") if key in raw else None
            for key in ("rhs", "lambda", "lower", "slack_bound")
        ]
        label = raw.get("label", "")
        if not isinstance(label, str):
            raise InvalidInputError(f"{c_path}.label: expected a string")
        reference = raw.get("reference_expansion")
        if "reference_expansion" in raw:
            reference = polynomial_from_json(reference, None, f"{c_path}.reference_expansion")
        constraints.append(Constraint(lhs, *numbers, label, reference))

    family = data.get("family")
    if family is not None and not isinstance(family, str):
        raise InvalidInputError(f"{path}.family: expected a string")
    family_info = data.get("family_info", {})
    if not isinstance(family_info, dict):
        raise InvalidInputError(f"{path}.family_info: expected an object")
    # family_info is carried through to every artifact, which holds no floats.
    _check_family_info(family_info, f"{path}.family_info")

    return Problem(
        sense=sense,
        objective=objective,
        constraints=tuple(constraints),
        variables=tuple(names),
        family=family,
        family_info=dict(family_info),
    )


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, with universal newlines."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_problem(path: str) -> Problem:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InvalidInputError(f"{path}: JSON nested too deeply to read") from exc
    return problem_from_json(data, path="problem")


def write_problem(problem: Problem, path: str) -> None:
    # Encoded before the file is opened, so a value dumps rejects leaves it as it was.
    text = dumps(problem_to_json(problem))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- DIMACS edge files -------------------------------------------------------


def read_dimacs_graph(path: str) -> InstanceGraph:
    """DIMACS edge format: a 'p edge N M' header and 'e u v [weight]' lines."""
    lines = _read_text(path).split("\n")  # not splitlines, which also splits at \f and \x1c
    n = None
    declared_edges = None
    edges: list[tuple[int, int]] = []
    weights: list[Scalar] | None = None  # from the first weight on, one per edge
    for lineno, fields in enumerate(map(str.split, lines), start=1):
        if not fields:
            continue
        if fields[0] == "e":
            if n is None:
                raise InvalidInputError(f"{path}:{lineno}: edge before the problem line")
            if len(fields) not in (3, 4):
                raise InvalidInputError(f"{path}:{lineno}: expected 'e <u> <v> [weight]'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise InvalidInputError(f"{path}:{lineno}: endpoints must be integers")
            if len(fields) == 4:
                try:
                    weight = Fraction(fields[3])
                except (ValueError, ZeroDivisionError):
                    raise InvalidInputError(f"{path}:{lineno}: bad weight {fields[3]!r}")
                if weights is None:
                    weights = [1] * len(edges)
                weights.append(weight)
            elif weights is not None:
                weights.append(1)
            edges.append((u, v))
        elif fields[0][0] == "c":
            continue
        elif fields[0] == "p":
            if n is not None:
                raise InvalidInputError(f"{path}:{lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise InvalidInputError(
                    f"{path}:{lineno}: expected 'p edge <vertices> <edges>'"
                )
            try:
                n, declared_edges = int(fields[2]), int(fields[3])
            except ValueError:
                raise InvalidInputError(f"{path}:{lineno}: vertex/edge counts must be integers")
        else:
            raise InvalidInputError(f"{path}:{lineno}: unknown record {fields[0]!r}")

    if n is None:
        raise InvalidInputError(f"{path}: missing 'p edge' problem line")
    if declared_edges is not None and declared_edges != len(edges):
        raise InvalidInputError(
            f"{path}: header declares {declared_edges} edges but {len(edges)} found"
        )
    try:
        return InstanceGraph(
            n=n, edges=tuple(edges), weights=None if weights is None else tuple(weights)
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


# -- DOT export --------------------------------------------------------------

_DOT_PALETTE = (
    "red", "blue", "forestgreen", "darkorange", "purple", "teal",
    "deeppink", "saddlebrown", "olive", "navy", "crimson", "darkcyan",
)


def _dot_quote(text: str) -> str:
    """A quoted DOT string with backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hypergraph_to_dot(h: DerivedHypergraph, coloring: EdgeColoring | None = None) -> str:
    """Graphviz rendering; hyperedges wider than 2 become labeled box nodes."""
    color_of = coloring.color_of() if coloring is not None else {}

    def attrs(index: int) -> str:
        if index not in color_of:
            return ""
        c = color_of[index]
        return f' [color="{_DOT_PALETTE[c % len(_DOT_PALETTE)]}", label="c{c}"]'

    lines = ["graph interactions {", "  node [shape=circle];"]
    for name in h.vertices:
        lines.append(f"  {_dot_quote(name)};")
    # Box nodes are gate0, gate1, ..., skipping any name a vertex already uses.
    taken = set(h.vertices)
    boxes = (aux for aux in map("gate{}".format, count()) if aux not in taken)
    for index, edge in enumerate(h.edges):
        if len(edge.support) == 2:
            u, v = map(_dot_quote, edge.support)
            lines.append(f"  {u} -- {v}{attrs(index)};")
        else:
            aux = _dot_quote(next(boxes))
            lines.append(f"  {aux} [shape=box, label={_dot_quote(','.join(edge.support))}];")
            for name in edge.support:
                lines.append(f"  {aux} -- {_dot_quote(name)}{attrs(index)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structured reports ------------------------------------------------------


def expansion_diff_to_json(diff: ExpansionDiff) -> dict:
    return {
        "has_differences": diff.has_differences,
        "missing_in_reference": _records(sorted(diff.missing_in_reference), "vars", "coeff"),
        "unexpected_in_reference": _records(sorted(diff.unexpected_in_reference), "vars", "coeff"),
        "coefficient_mismatches": _records(
            sorted(diff.coefficient_mismatches), "vars", "computed", "reference"),
    }


def _diff_table(diffs: list[ExpansionDiff]) -> _Table:
    """:func:`expansion_diff_to_json` of each of ``diffs``, as one table: a column of
    record tables is each one's count of records and the ``_Runs`` of them all."""
    records = list(map(expansion_diff_to_json, diffs))
    columns = {key: list(map(itemgetter(key), records)) for key in records[0]}
    for key in ("missing_in_reference", "unexpected_in_reference", "coefficient_mismatches"):
        columns[key] = (list(map(len, _column(diffs, key))), _Runs(columns[key]))
    return _Table(columns)


def pubo_to_json(pubo: Pubo) -> dict:
    (indices, labels, dropped, reasons, cube_mins, cube_min_exact, slack_ranges, slack_vars,
     weights, _, penalties, notes, diffs) = _columns(pubo.dualizations, ConstraintDualization)
    return {
        "objective": polynomial_to_json(pubo.objective),
        "constant_offset": pubo.constant_offset,
        "original_sense": pubo.original_sense,
        "variables": pubo.variables,
        "slack_variables": pubo.slack_names(),
        "dualization": _runs([
            (None, {"index": indices, "label": labels, "dropped": dropped}),
            (dropped, {"reason": reasons}),
            (_given(cube_mins), {"cube_min": cube_mins, "cube_min_exact": cube_min_exact}),
            (list(map(not_, dropped)), {
                "slack_range": slack_ranges,
                "slack_bits": list(map(len, slack_vars)),
                "slack_vars": slack_vars,
                "penalty_weight": weights,
                "penalty": penalties,
            }),
            (list(map(bool, notes)), {"notes": notes}),
            (_given(diffs), {"expansion_diff": diffs}),
        ], penalty=_terms_table, expansion_diff=_diff_table),
    }


def hypergraph_to_json(h: DerivedHypergraph) -> dict:
    return {
        "vertices": h.vertices,
        "edges": _Table({"support": [e.support for e in h.edges],
                         "terms": [len(e.monomials) for e in h.edges]}),
        "singletons": _records(h.singletons, "var", "coeff"),
        "constant": h.constant,
        "max_degree": h.max_degree(),
        "linear": h.is_linear(),
        "uniform_size": h.uniform_size(),
    }


def coloring_to_json(coloring: EdgeColoring) -> dict:
    return {
        "method": coloring.method,
        "num_colors": coloring.num_colors,
        "classes": coloring.classes,
        "lower_bound": coloring.lower_bound,
        "upper_bounds": _Table({
            name: _column(coloring.upper_bound_refs, name)
            for name in ("name", "kind", "status", "applies", "value", "note")
        }),
    }


def schedule_to_json(sched: CircuitSchedule) -> dict:
    layers = sched.layers
    kinds = _column(layers, "kind")
    gates = _Runs()  # one table for each run of layers with terms, and for each run of mixers
    for mixer, run in groupby(layers, lambda layer: layer.kind == "mixer"):
        run_gates = list(chain.from_iterable(_column(run, "gates")))
        columns = {"qubits": _column(run_gates, "support")}
        if not mixer:  # each gate's terms: their counts, and the run's terms
            monomials = _column(run_gates, "monomials")
            columns["terms"] = (list(map(len, monomials)), _Terms(chain.from_iterable(monomials)))
        gates.append(_Table(columns))
    return {
        "variables": sched.variables,
        "iterations": sched.iterations,
        "structural_depth": sched.structural_depth,
        "total_depth": sched.total_depth,
        "layers": _Table({
            "kind": kinds,
            "angle": ["beta" if kind == "mixer" else "gamma" for kind in kinds],
            "gates": ([len(layer.gates) for layer in layers], gates),
        }),
    }


def depth_report_to_json(report: DepthReport) -> dict:
    fb, sched = report.family_bound, report.schedule
    return {
        "structural_depth": sched.structural_depth,
        "coloring_depth": sched.coloring_depth,
        "singleton_overhead": sched.singleton_overhead,
        "notes": report.notes,
        "family_bound": None if fb is None else asdict(fb),
    }


def dumps(data) -> str:
    """Canonical JSON text: sorted keys, stable indentation, trailing newline.

    Accepted values are exactly dicts with ``str`` keys, lists, tuples,
    ``_Table``s (each written as its list of dicts), ``_Runs`` (written as
    one list of all their tables' dicts), strings, ints,
    ``Fraction``s, bools and ``None``; anything else, including a float or
    a non-``str`` key, raises ``TypeError``.  A ``Fraction`` is written as
    :func:`rational_to_json` gives it: a whole one as its int, any other as
    ``{"num", "den"}``.  With every Fraction and table so replaced, the text
    is byte-identical to ``json.dumps(data, indent=2, sort_keys=True) +
    "\\n"``, which runs a pure-Python generator.  Strings are escaped by the
    C function ``json`` uses.

    The envelope, each section dict and a list of one item are encoded one
    value at a time, but the items of a longer list are encoded together, a
    column at a time (``_texts``): all strings, all ints or all bools with
    one ``map``; whole Fractions with the ints, and the others as one table
    of their numerators and denominators; a table's records as one column
    per key zipped between constant key prefixes (``_rows``); lists as one
    column of all their items, regrouped by length (``_grouped``), or
    ``[]`` each when all are empty.  Mixed types become one column per type,
    read back in the items' order.  The builders hand over every list of
    records as a table, so the Python work grows with the number of shapes
    and the nesting depth, not with the number of terms and gates.  A plain
    list of dicts or of tables, as ``family_info`` may hold, is written one
    item at a time.
    Texts stay lazy iterators until a list joins its items, once, with its
    brackets folded into the first and last item, so the peak memory stays
    about twice the text.

    For the one call, a memo keeps the text of each tuple a dict holds and
    of each table with a source (:func:`polynomial_to_json`'s polynomial),
    keyed by the object's identity and the indentation; a second occurrence
    reuses it.  The memo holds the object, so no identity is reused, and
    the ``str`` the dict's parts hold, so it copies no text.  Lists and
    dicts, which may be the encoder's own temporaries, are never keyed.
    The memo also keeps, by value, the record text of each term of a
    source's table, keyed by its ``(support, coefficient)`` pair, and the
    indentation of those texts under ``_Terms``: only the objectives'
    tables have a source, and they are written at one indentation.  A
    schedule's gate terms (a ``_Terms`` column) whose pairs were all kept
    are written from those texts, each re-indented by one ``str.replace``
    of that newline; any others are written column by column.  The memo is
    emptied before the outermost dict's join, the call's peak.

    A value nested too deeply for the recursion limit, such as a
    ``family_info`` built in code, raises ``InvalidInputError``; nothing is
    walked ahead of the encoding to find that out.
    """
    try:
        return _encode(data, "\n", {}) + "\n"
    except RecursionError:
        raise InvalidInputError("value nested too deeply to write as JSON") from None


def _encode(value, newline: str, memo: dict) -> str:
    """JSON text of ``value`` whose lines after the first start with ``newline``;
    ``memo`` maps (identity, indentation) to (object, text), a written term to
    its record text and ``_Terms`` to those texts' indentation, as :func:`dumps` says."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        parts = []  # key prefixes and value texts, joined once
        prefix = "{" + inner
        # Sorted by the raw key, as json does: escaping changes the order.
        # _quote raises TypeError on a key that is not a str.
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            if kind is str:
                item = _quote(item)
            elif kind is int:
                item = int.__repr__(item)
            elif item is None:
                item = "null"
            else:
                # A names tuple, or a polynomial's table, may recur in another section.
                source = item if kind is tuple else item.source if kind is _Table else None
                if source is None:
                    item = _encode(item, inner, memo)
                else:
                    entry = memo.get((id(source), inner))
                    if entry is None:
                        entry = memo[id(source), inner] = (source, _encode(item, inner, memo))
                    item = entry[1]
            parts += (prefix, _quote(key), ": ", item)
            prefix = "," + inner
        parts.append(newline + "}")
        if newline == "\n":  # the outermost dict: nothing recurs, so its join runs without the memo
            memo.clear()
        return "".join(parts)
    if kind is list or kind is tuple or kind is _Table or kind is _Runs:
        inner = newline + "  "
        parts = list(_texts(value, inner, memo))
        if not parts:
            return "[]"
        if kind is _Table and value.source is not None and memo.setdefault(_Terms, inner) == inner:
            memo.update(zip(value.source.terms(), parts))  # a polynomial's term records
        parts[0] = "[" + inner + parts[0]
        parts[-1] += newline + "]"
        return ("," + inner).join(parts)
    if kind is Fraction:
        return _encode(rational_to_json(value), newline, memo)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _texts(items, newline: str, memo: dict):
    """An iterator over ``_encode(item, newline, memo)`` for each of ``items``, in order."""
    if type(items) is _Terms:  # each kept record re-indented, or all of them written anew
        texts = list(map(memo.get, items))
        if all(texts):
            return map(str.replace, texts, repeat(memo.get(_Terms)), repeat(newline))
        items = _records(items, "vars", "coeff")
    if type(items) is _Table:
        return _rows(items, newline, memo)
    if type(items) is _Runs:
        return chain.from_iterable(map(_rows, items, repeat(newline), repeat(memo)))
    if len(items) == 1:  # a single value takes the direct path
        return iter((_encode(items[0], newline, memo),))
    kinds = set(map(type, items))
    if len(kinds) != 1:  # one column per type, read back in the items' order
        order = list(map(type, items))
        columns = {kind: _texts(list(compress(items, map(is_, order, repeat(kind)))), newline, memo)
                   for kind in kinds}
        return map(next, map(columns.__getitem__, order))
    kind = kinds.pop()
    if kind is str:
        return map(_quote, items)
    if kind is int:
        return map(int.__repr__, items)
    if kind is Fraction:
        if 1 in map(attrgetter("denominator"), items):  # the whole ones join the ints
            return _texts(list(map(canonical, items)), newline, memo)
        table = _Table({"num": _column(items, "numerator"), "den": _column(items, "denominator")})
        return _rows(table, newline, memo)
    if kind is bool:
        return map(("false", "true").__getitem__, items)
    if kind is list or kind is tuple:  # every item's items in one column
        flat = _texts(list(chain.from_iterable(items)), newline + "  ", memo)
        return _grouped(list(map(len, items)), flat, newline)
    return map(_encode, items, repeat(newline), repeat(memo))  # None, dicts, tables, or TypeError


def _rows(table: _Table, newline: str, memo: dict):
    """An iterator over the texts of ``table``'s records: its columns zipped between key prefixes."""
    inner = newline + "  "
    texts = []
    for i, (key, column) in enumerate(zip(table.keys, table.columns)):
        texts.append(repeat(("," if i else "{") + inner + _quote(key) + ": "))
        texts.append(_grouped(column[0], _texts(column[1], inner + "  ", memo), inner)
                     if type(column) is tuple else _texts(column, inner, memo))
    texts.append(repeat(newline + "}"))
    return map("".join, zip(*texts))


def _grouped(lengths: list, flat, newline: str):
    """Texts of lists, list i holding the next ``lengths[i]`` of the item texts ``flat``."""
    # body.join((open, close)) is open + body + close; an empty list is "[]".
    inner = newline + "  "
    brackets = (("[", "]"), ("[" + inner, newline + "]"))
    if not any(lengths):  # all empty: no item to read
        return repeat("[]", len(lengths))
    if lengths[0] and lengths.count(lengths[0]) == len(lengths):  # equal: zip, no islice
        return map(str.join, map(("," + inner).join, zip(*[flat] * lengths[0])), repeat(brackets[1]))
    return map(str.join, map(("," + inner).join, map(islice, repeat(flat), lengths)),
               map(brackets.__getitem__, map(bool, lengths)))


# -- text rendering ----------------------------------------------------------

_ANSI_COLORS = (31, 32, 33, 34, 35, 36, 91, 92, 93, 94, 95, 96)


def render_schedule_text(sched: CircuitSchedule, color: bool = False) -> str:
    """Column-per-layer circuit sketch; qubits are rows, gates repeat per qubit."""
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

    columns = []  # one label per qubit for each layer: the first gate on it, else "."
    for layer in sched.layers:
        prefix = "B" if layer.kind == "mixer" else "C"
        labels: dict[str, str] = {}
        for gate in layer.gates:
            label = f"{prefix}({','.join(gate.support)})"
            for name in gate.support:
                labels.setdefault(name, label)
        columns.append([labels.get(name, ".") for name in sched.variables])

    name_width = max((len(n) for n in sched.variables), default=0)
    widths = [max(len(header), max(map(len, column), default=1))
              for header, column in zip(headers, columns)]

    def paint(text: str, layer_index: int) -> str:
        if not color or text == ".":
            return text
        code = _ANSI_COLORS[layer_index % len(_ANSI_COLORS)]
        return f"\x1b[{code}m{text}\x1b[0m"

    lines = [
        " ".join([" " * name_width] + [headers[i].ljust(widths[i]) for i in range(len(headers))])
    ]
    for v, name in enumerate(sched.variables):
        cells = []
        for i in range(len(sched.layers)):
            text = columns[i][v].ljust(widths[i])
            cells.append(paint(text, i) if columns[i][v] != "." else text)
        lines.append(" ".join([name.ljust(name_width)] + cells))
    if sched.iterations > 1:
        lines.append(f"(repeated {sched.iterations} times; angles gamma_k, beta_k per iteration)")
    return "\n".join(lines) + "\n"
