"""Exact multilinear polynomial algebra over named binary variables.

A polynomial is a map from monomial supports to rational coefficients:

    support = tuple of distinct variable names, sorted   (() = constant term)
    coefficient = int when whole, else a Fraction with denominator > 1;
                  never zero, a bool or Fraction(n, 1) for stored terms

Because every variable only takes values in {0, 1}, x**2 = x and products
of monomials reduce to the union of their supports.  Coefficients are kept
as exact rationals throughout (a Python int is one, and far cheaper to add
and multiply than a Fraction); floats are rejected so that identities such
as "the penalty vanishes exactly on feasible points" can be asserted with
equality rather than tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MissingAssignmentError

Support = tuple[str, ...]

#: Exhaustive enumeration over the binary cube is used for a nonlinear
#: polynomial of at most this many variables; 2**20 evaluations complete in
#: well under a second.
EXACT_ENUMERATION_LIMIT = 20


Scalar = int | Fraction


def canonical(value: Scalar) -> Scalar:
    """An exact value in canonical form: the int when it is whole, else the Fraction."""
    if type(value) is int or value.denominator != 1:
        return value
    return value.numerator


def ratio(numerator: int, denominator: int) -> Scalar:
    """``numerator / denominator`` in canonical form, without a float."""
    quotient, remainder = divmod(numerator, denominator)
    return Fraction(numerator, denominator) if remainder else quotient


def _coerce(value) -> Scalar:
    """An exact number in canonical form; a bool, a float or a str raises TypeError.

    Coefficients, constraint data, edge weights and knapsack data all pass
    through here.
    """
    if type(value) is int or type(value) is Fraction:
        return canonical(value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return canonical(Fraction(value))
    raise TypeError(
        f"exact numbers must be int or Fraction, not {type(value).__name__}; "
        "exact arithmetic is required"
    )


def _canonical_support(variables: Iterable[str]) -> Support:
    names = sorted(set(variables))
    for name in names:
        if not isinstance(name, str) or not name:
            raise TypeError(f"variable names must be non-empty strings, got {name!r}")
    return tuple(names)


class Polynomial:
    """Immutable multilinear polynomial over binary variables."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Iterable[str], object] | None = None):
        self._terms = Polynomial.from_terms(terms.items() if terms else ())._terms
        self._hash: int | None = None

    @classmethod
    def _from_canonical(cls, terms: dict[Support, Scalar]) -> "Polynomial":
        """Wrap a dict already keyed by canonical supports with int or Fraction values.

        Sorts the keys, drops zero terms and turns a whole Fraction into its
        int; the terms are not re-validated.
        """
        poly = cls.__new__(cls)
        poly._terms = {
            k: c if type(c) is int or c.denominator != 1 else c.numerator
            for k in sorted(terms)
            if (c := terms[k])
        }
        poly._hash = None
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls({(): value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({(name,): 1})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Iterable[str], object]]) -> "Polynomial":
        """Build from (variables, coefficient) pairs; repeated supports add up."""
        acc: dict[Support, Scalar] = {}
        for variables, coeff in pairs:
            key = _canonical_support(variables)
            acc[key] = acc.get(key, 0) + _coerce(coeff)
        return cls._from_canonical(acc)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Support, Scalar]]:
        """Iterate (support, coefficient) pairs in canonical (lex) order."""
        return iter(self._terms.items())

    def coefficient(self, variables: Iterable[str]) -> Scalar:
        return self._terms.get(_canonical_support(variables), 0)

    @property
    def constant_term(self) -> Scalar:
        return self._terms.get((), 0)

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for support in self._terms:
            seen.update(support)
        return tuple(sorted(seen))

    def supports(self) -> tuple[Support, ...]:
        return tuple(self._terms)

    def degree(self) -> int:
        return max((len(s) for s in self._terms), default=0)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- algebra -----------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for support, coeff in other._terms.items():
            acc[support] = acc.get(support, 0) + coeff
        return Polynomial._from_canonical(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_canonical({s: -c for s, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 1:
                return self  # immutable, so no copy is needed
            scalar = _coerce(other)
            if scalar == 0:
                return Polynomial()
            return Polynomial._from_canonical({s: c * scalar for s, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc: dict[Support, Scalar] = {}
        for sa, ca in self._terms.items():
            set_a = set(sa)
            for sb, cb in other._terms.items():
                # x*x = x on {0,1}: the product support is the union.
                key = tuple(sorted(set_a.union(sb)))
                acc[key] = acc.get(key, 0) + ca * cb
        return Polynomial._from_canonical(acc)

    __rmul__ = __mul__

    def square(self) -> "Polynomial":
        """``self * self``, with each cross term computed once and doubled."""
        items = list(self._terms.items())
        acc: dict[Support, Scalar] = {}
        for i, (sa, ca) in enumerate(items):
            acc[sa] = acc.get(sa, 0) + ca * ca
            set_a = set(sa)
            twice = 2 * ca
            for sb, cb in items[i + 1:]:
                key = tuple(sorted(set_a.union(sb)))
                acc[key] = acc.get(key, 0) + twice * cb
        return Polynomial._from_canonical(acc)

    # -- evaluation and bounds ----------------------------------------------

    def evaluate(self, assignment: Mapping[str, int]) -> Scalar:
        """Evaluate at a {0,1} assignment covering every variable used."""
        total = 0
        for support, coeff in self._terms.items():
            active = True
            for name in support:
                try:
                    bit = assignment[name]
                except KeyError:
                    raise MissingAssignmentError(name) from None
                if bit not in (0, 1):
                    raise ValueError(f"assignment for {name!r} must be 0 or 1, got {bit!r}")
                if bit == 0:
                    active = False
                    break
            if active:
                total += coeff
        return canonical(total)

    def common_denominator(self) -> int:
        """Least common multiple of the coefficients' denominators (1 when all are integers)."""
        return math.lcm(*(c.denominator for c in self._terms.values()))

    def values_over_cube(self, order: Sequence[str] | None = None) -> list:
        """Values at every binary assignment, as a list indexed by bitmask.

        Assignment ``z`` sets variable ``order[i]`` to bit i of ``z``.  Uses
        the subset-sum (zeta) transform, so the cost is O(2**n * n) additions
        rather than one full evaluation per point.  The additions are on ints
        only: rational coefficients are first scaled by their common
        denominator, and each bit's pass adds whole slices at a time.
        Entries are exact: int when every coefficient is an integer,
        otherwise Fraction (the sums divided back by the common denominator).
        """
        variables = self.variables()
        names = list(variables if order is None else order)
        position = {name: i for i, name in enumerate(names)}
        if order is not None:
            missing = set(variables) - set(names)
            if missing:
                raise ValueError(f"order does not cover variables: {sorted(missing)}")
        scale = self.common_denominator()
        size = 1 << len(names)
        values = [0] * size
        for support, coeff in self._scaled_terms(scale).items():
            mask = 0
            for name in support:
                mask |= 1 << position[name]
            values[mask] += coeff
        bit = 1
        while bit < size:
            step = 2 * bit
            if bit * step <= size:
                # No more offsets than blocks: the points with this bit clear
                # are offset + k*step for offset < bit.
                for offset in range(bit):
                    high = slice(offset + bit, size, step)
                    values[high] = map(add, values[high], values[offset:size:step])
            else:
                # Few blocks, each a contiguous run of ``bit`` points.
                for start in range(bit, size, step):
                    high = slice(start, start + bit)
                    values[high] = map(add, values[high], values[start - bit:start])
            bit = step
        if scale != 1:
            return [Fraction(v, scale) for v in values]
        return values

    def minimum_over_cube(self) -> tuple[Scalar, bool]:
        """Minimum over all binary assignments, and whether it is exact.

        Exact in closed form for degree <= 1: the constant plus
        sum(min(0, coeff)) over the variables, each set on its own.  A
        nonlinear polynomial is enumerated when at most
        ``EXACT_ENUMERATION_LIMIT`` variables occur; otherwise the interval
        lower bound sum(min(0, coeff)) is returned, which never exceeds the
        true minimum.
        """
        return self._cube_extreme(min)

    def maximum_over_cube(self) -> tuple[Scalar, bool]:
        """Maximum over all binary assignments; mirrors :meth:`minimum_over_cube`."""
        return self._cube_extreme(max)

    def _cube_extreme(self, pick) -> tuple[Scalar, bool]:
        # Every branch works on ints, the coefficients times their common
        # denominator, and divides back once.
        scale = self.common_denominator()
        if self.degree() <= 1:
            scaled = self._scaled_terms(scale)
            value = scaled.get((), 0) + sum([pick(0, c) for s, c in scaled.items() if s])
            return ratio(value, scale), True
        if len(self.variables()) <= EXACT_ENUMERATION_LIMIT:
            return ratio(pick((self * scale).values_over_cube()), scale), True
        return ratio(sum([pick(0, c) for c in self._scaled_terms(scale).values()]), scale), False

    def _scaled_terms(self, scale: int) -> dict[Support, int]:
        """The terms times ``scale``, a multiple of every denominator, as ints."""
        if scale == 1:
            return self._terms
        return {s: c.numerator * (scale // c.denominator) for s, c in self._terms.items()}

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for support, coeff in self._terms.items():
            body = "*".join(support)
            if not support:
                chunk = str(abs(coeff))
            elif abs(coeff) == 1:
                chunk = body
            else:
                chunk = f"{abs(coeff)}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign} {chunk}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self._terms!r})"


def _as_polynomial(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Polynomial.constant(value)
    return NotImplemented
