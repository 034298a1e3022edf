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
import sys
from array import array
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MissingAssignmentError

Support = tuple[str, ...]

#: Exhaustive enumeration over the binary cube is used for a nonlinear
#: polynomial of at most this many variables; 2**20 evaluations complete in
#: well under a second.
EXACT_ENUMERATION_LIMIT = 20


Scalar = int | Fraction


#: A one-field table of zeros, as a signed one-item array, for each field
#: width w that an ``array`` typecode holds; see :class:`CubeLayout`.
_BLANK_FIELDS = {
    8 * item.itemsize: array(item.typecode, [1 << (8 * item.itemsize - 2)])
    for item in map(array, "bhiq")
}
_ORDER = sys.byteorder
_DENOMINATOR = attrgetter("denominator")


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

    __slots__ = ("_terms", "_hash", "_range")

    def __init__(self, terms: Mapping[Iterable[str], object] | None = None):
        self._terms = Polynomial.from_terms(terms.items() if terms else ())._terms
        self._hash: int | None = None
        self._range: tuple[Scalar, Scalar, bool] | None = None

    @classmethod
    def _from_canonical(cls, terms: dict[Support, Scalar]) -> "Polynomial":
        """Wrap a dict already keyed by canonical supports with int or Fraction values.

        Sorts the keys, drops zero terms and turns a whole Fraction into its
        int; the terms are not re-validated.
        """
        return cls._from_sorted({
            k: c if type(c) is int or c.denominator != 1 else c.numerator
            for k in sorted(terms)
            if (c := terms[k])
        })

    @classmethod
    def _from_sorted(cls, terms: dict[Support, Scalar]) -> "Polynomial":
        """Wrap, as it is, a dict of stored terms (see the module docstring) in lex order."""
        poly = cls.__new__(cls)
        poly._terms = terms
        poly._hash = None
        poly._range = None
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
        return Polynomial._from_sorted({s: -c for s, c in self._terms.items()})

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
            # Same supports, so the same order; a product of nonzero
            # coefficients is nonzero, but two Fractions' may be whole.
            return Polynomial._from_sorted({
                s: p if type(p := c * scalar) is int or p.denominator != 1 else p.numerator
                for s, c in self._terms.items()
            })
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
        """``self * self``, with each cross term computed once and doubled.

        Two shapes skip the general product, whose every key is a sorted
        union and whose result is sorted once more:

        * One term c*x_S squares to c**2 * x_S, as x_S * x_S = x_S on the
          cube; with c = 1 that is ``self``.
        * A polynomial of degree at most 1, c0 + sum c_i * x_i, squares to
          c0**2 + sum c_i * (c_i + 2*c0) * x_i + sum 2*c_i*c_j * x_i*x_j over
          i < j.  Its terms are in lex order, so x_i's name sorts before
          x_j's, and the pair key is (x_i, x_j) as it stands.  Written x_i,
          then each x_i*x_j, in turn, the keys come out in lex order, so
          nothing is sorted or summed twice.
        """
        terms = self._terms
        if len(terms) == 1:
            ((support, coeff),) = terms.items()
            if coeff == 1:
                return self
            # The square of a Fraction that is not whole is not whole either.
            return Polynomial._from_sorted({support: coeff * coeff})
        if max(map(len, terms), default=0) <= 1:
            return self._linear_square()
        items = list(terms.items())
        acc: dict[Support, Scalar] = {}
        for i, (sa, ca) in enumerate(items):
            acc[sa] = acc.get(sa, 0) + ca * ca
            set_a = set(sa)
            twice = 2 * ca
            for sb, cb in items[i + 1:]:
                key = tuple(sorted(set_a.union(sb)))
                acc[key] = acc.get(key, 0) + twice * cb
        return Polynomial._from_canonical(acc)

    def _linear_square(self) -> "Polynomial":
        """:meth:`square` of a polynomial of degree at most 1."""
        items = list(self._terms.items())
        constant = self._terms.get((), 0)
        acc: dict[Support, Scalar] = {}
        if constant:
            acc[()] = constant * constant
            del items[0]  # () sorts first
        twice_constant = 2 * constant
        for i, (sa, ca) in enumerate(items, start=1):
            if own := ca * (ca + twice_constant):
                acc[sa] = own
            twice = 2 * ca
            name = sa[0]
            for sb, cb in items[i:]:
                acc[name, sb[0]] = twice * cb
        if type(sum(self._terms.values())) is not int:  # a Fraction among them
            acc = {
                s: c if type(c) is int or c.denominator != 1 else c.numerator
                for s, c in acc.items()
            }
        return Polynomial._from_sorted(acc)

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
        return math.lcm(*map(_DENOMINATOR, self._terms.values()))

    def values_over_cube(self, order: Sequence[str] | None = None) -> list:
        """Values at every binary assignment, as a list indexed by bitmask.

        Assignment ``z`` sets variable ``order[i]`` to bit i of ``z``.  This
        is the table :func:`pack_cube` builds, read out field by field.
        Entries are exact: int when every coefficient is an integer,
        otherwise Fraction (the integer table of the coefficients times their
        common denominator, divided back once).
        """
        layout, [(table, scale)] = pack_cube([self], self.variables() if order is None else order)
        values = layout.values(table)
        if scale != 1:
            return [Fraction(v, scale) for v in values]
        return values

    def minimum_over_cube(self) -> tuple[Scalar, bool]:
        """Minimum over all binary assignments, and whether it is exact.

        When no two terms share a variable (degree <= 1, or one term), each
        term reaches ``min(0, coeff)`` on its own variables, so the constant
        plus those minima is exact in closed form.  Otherwise the polynomial
        is enumerated when at most ``EXACT_ENUMERATION_LIMIT`` variables
        occur; above that the same closed form is returned, flagged inexact:
        an interval lower bound that never exceeds the true minimum.

        The minimum and the maximum come from one pass, which is kept: the
        first of this method and :meth:`maximum_over_cube` computes both,
        and the other reads the one it asks for.
        """
        low, _, exact = self._cube_range()
        return low, exact

    def maximum_over_cube(self) -> tuple[Scalar, bool]:
        """Maximum over all binary assignments; mirrors :meth:`minimum_over_cube`."""
        _, high, exact = self._cube_range()
        return high, exact

    def _cube_range(self) -> tuple[Scalar, Scalar, bool]:
        """(minimum, maximum, exact) over the cube, as the methods above describe them.

        The closed form is one scan of the coefficients: the constant plus
        the negative ones, and the constant plus the positive ones.  It works
        on the coefficients as they are when all are ints, else on them times
        their common denominator, dividing back once.  One term c*x_S ranges
        over 0 and c, or is c when S is empty.  The enumeration reads both
        extremes off one integer table.
        """
        found = self._range
        if found is not None:
            return found
        terms = self._terms
        if len(terms) == 1:
            ((support, coeff),) = terms.items()
            found = self._range = (min(coeff, 0), max(coeff, 0), True) if support else (coeff, coeff, True)
            return found
        width = sum(map(len, terms))
        disjoint = width == len(variables := set().union(*terms))
        if not disjoint and len(variables) <= EXACT_ENUMERATION_LIMIT:
            scale = self.common_denominator()
            values = (self * scale).values_over_cube()
            found = ratio(min(values), scale), ratio(max(values), scale), True
        else:
            scale, scaled, total = 1, terms, sum(terms.values())
            if type(total) is not int:  # a Fraction among them
                scale = self.common_denominator()
                scaled = self._scaled_terms(scale)
                total = sum(scaled.values())
            positive = sum([c for c in scaled.values() if c > 0])
            constant = scaled.get((), 0)
            # The constant, when positive, is in ``positive`` and is kept in
            # both extremes; the non-constant coefficients split by sign.
            low, high = total - positive + max(constant, 0), positive + min(constant, 0)
            if scale != 1:
                low, high = ratio(low, scale), ratio(high, scale)
            found = low, high, disjoint
        self._range = found
        return found

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


class CubeLayout:
    """Tables over the binary cube, each packed into one Python int.

    A table over n variables, in the order given to :func:`pack_cube`, holds
    one value per assignment z, where z sets variable i to bit i of z.  It is
    one int of 2**n fields of w bits, field z at bits z*w to z*w + w - 1, and
    a field holds its value v as v + 2**(w-2).  Every value of every table in
    a layout has |v| < 2**(w-2), so each field lies in [0, 2**(w-1)) and its
    top bit, the guard bit, is clear; :func:`pack_cube` picks w from the
    range its polynomials' values can span, not from their sizes.
    ``offsets`` is the table of zeros, ``ones`` holds 1 in every field and
    ``guards`` every guard bit.

    A set of fields is a mask of their guard bits.  ``((a | guards) - b) &
    guards`` is the set where a >= b: each field subtracts on its own, from
    at least 2**(w-1), so no borrow crosses a field boundary.  ``(g << 1) -
    (g >> (w-1))`` widens a set g to all-ones fields, which select fields
    from one table or another.  This is broadword computing on packed fields
    (Knuth, TAOCP 4A, section 7.1.3): every method below is a few integer
    operations on the whole table, or on its halves, never a loop over
    fields.
    """

    __slots__ = ("variables", "size", "width", "quarter", "offsets", "ones", "guards")

    def __init__(self, variables: int, width: int):
        self.variables = variables
        self.size = 1 << variables
        self.width = width
        self.quarter = 1 << (width - 2)
        self.offsets = int.from_bytes(
            self.quarter.to_bytes(width >> 3, _ORDER) * self.size, _ORDER
        )
        self.ones = self.offsets >> (width - 2)
        self.guards = self.offsets << 1

    def values(self, table: int) -> list[int]:
        """The values of a table as a list indexed by assignment, one int per field."""
        # Flipping bit w-2 and copying it into bit w-1 turns v + 2**(w-2)
        # into v in w-bit two's complement.
        signed = table ^ self.offsets
        signed |= (signed & self.offsets) << 1
        field_bytes = self.width >> 3
        data = signed.to_bytes(self.size * field_bytes, _ORDER)
        blank = _BLANK_FIELDS.get(self.width)
        if blank:
            return array(blank.typecode, data).tolist()
        return [
            int.from_bytes(data[start:start + field_bytes], _ORDER, signed=True)
            for start in range(0, len(data), field_bytes)
        ]

    def at_most(self, table: int, value: int) -> int:
        """The set of fields of ``table`` that hold at most ``value``."""
        # Every value lies strictly inside (-2**(w-2), 2**(w-2)), so moving
        # ``value`` into [-2**(w-2), 2**(w-2)) changes no outcome, and its
        # broadcast field then lies in [0, 2**(w-1)) like every other.
        quarter = self.quarter
        field = min(max(value, -quarter), quarter - 1) + quarter
        return ((field * self.ones | self.guards) - table) & self.guards

    def fold(self, table: int, bits: int) -> int:
        """The fieldwise minimum over the top ``bits`` bits of the assignment.

        Each step takes the minimum of the table's two halves, field by
        field, so the result is a table of 2**(n - bits) fields in which field
        z holds the least value over the assignments that agree with z on the
        low n - bits bits.
        """
        width = self.width
        guards = self.guards
        shift = self.size * width
        for _ in range(bits):
            shift >>= 1
            guards >>= shift
            low = table & ((1 << shift) - 1)
            high = table >> shift
            higher = ((low | guards) - high) & guards
            table = low ^ ((low ^ high) & ((higher << 1) - (higher >> (width - 1))))
        return table

    def minimum(self, table: int, where: int) -> int:
        """The least value of ``table`` over the set of fields ``where``.

        Fields outside ``where`` read as the largest field, 2**(w-1) - 1, so
        over an empty set the result is 2**(w-2) - 1, the largest value.
        """
        fill = self.guards - self.ones
        table = fill ^ ((table ^ fill) & ((where << 1) - (where >> (self.width - 1))))
        return self.fold(table, self.variables) - self.quarter

    def indices(self, fields: int) -> list[int]:
        """The assignments in the set ``fields``, in increasing order."""
        field_bytes = self.width >> 3
        # One byte per field: the top one, which holds the guard bit.
        flags = fields.to_bytes(self.size * field_bytes, _ORDER)[field_bytes - 1::field_bytes]
        found, z = [], flags.find(0x80)
        while z >= 0:
            found.append(z)
            z = flags.find(0x80, z + 1)
        return found


def pack_cube(
    polys: Sequence[Polynomial], order: Sequence[str]
) -> tuple[CubeLayout, Iterator[tuple[int, int]]]:
    """Each polynomial times its common denominator d over the cube, as (table, d).

    The tables share one :class:`CubeLayout` over the variables ``order``,
    whose width w is the smallest of 8, 16, 32, 64, 128, ... with both the
    sum of the positive scaled coefficients and the sum of the negative
    ones' magnitudes below 2**(w-2), over every polynomial, its constant
    included.  Every value, and every field of every partial sum below, is
    a sum of some of a polynomial's coefficients, so it lies between minus
    the one sum and the other, in range.  Raises ValueError when ``order``
    misses a variable; both are settled before any table is built.

    The tables come from an iterator that builds each one when it is
    reached, so a caller that drops each table before taking the next holds
    one at a time.  Each table is built one of two ways, whichever the
    operation count :func:`_direct_is_cheaper` estimates from the number of
    terms, their support sizes and the number of variables n is lower:

    * The subset-sum (zeta) transform: O(2**n * n) additions rather than
      one full evaluation per point.  Each coefficient is written into the
      field of its support's bitmask, and the pass for bit i adds each
      field z with bit i clear, less its offset, to field z + 2**i.  With
      ``low`` the all-ones fields at those z, that is ``packed += ((packed &
      low) - (offsets & low)) << (2**i * w)``, a few whole-table integer
      operations.  Fields of at most 64 bits are filled through an
      ``array``, wider ones byte by byte.
    * Directly, for a polynomial with few terms: ``offsets + sum(c_S *
      (ones & bits[i] & bits[j] ...))`` over its terms c_S, where
      ``bits[i]`` holds 1 in every field whose assignment has bit i set.
      The iterator builds each bit field the first time a term needs it and
      keeps it until it is exhausted, so a layout builds each at most once.

    Either way this is exact integer arithmetic, whatever borrows cross the
    field boundaries on the way; every field of the result is in range, so
    the result has one field decomposition, and it is the table.
    """
    bit = {name: 1 << i for i, name in enumerate(order)}
    scaled = []
    bound = 0
    for poly in polys:
        scale = poly.common_denominator()
        try:
            terms = {
                sum(map(bit.__getitem__, support)): coeff
                for support, coeff in poly._scaled_terms(scale).items()
            }
        except KeyError:
            missing = set().union(*(poly.variables() for poly in polys)) - set(order)
            raise ValueError(f"order does not cover variables: {sorted(missing)}") from None
        positive = sum([c for c in terms.values() if c > 0])
        bound = max(bound, positive, positive - sum(terms.values()))
        scaled.append((terms, scale))
    width = 8
    while bound >> (width - 2):
        width *= 2
    layout = CubeLayout(len(order), width)
    return layout, _tables(layout, scaled)


def _tables(
    layout: CubeLayout, scaled: list[tuple[dict[int, int], int]]
) -> Iterator[tuple[int, int]]:
    """The (table, scale) of each of ``scaled``'s bitmask-keyed terms; see :func:`pack_cube`."""
    bits: dict[int, int] = {}  # bit i's field of ones, by i, once a term has needed it

    def bit_field(i: int) -> int:
        field = bits.get(i)
        if field is None:
            # Runs of 2**i fields, alternately 0 and 1.
            field_bytes = layout.width >> 3
            run = (1).to_bytes(field_bytes, _ORDER) * (1 << i)
            period = bytes(len(run)) + run
            field = bits[i] = int.from_bytes(period * (layout.size >> (i + 1)), _ORDER)
        return field

    for terms, scale in scaled:
        if _direct_is_cheaper(terms, layout.variables):
            table = layout.offsets
            for mask, coeff in terms.items():
                field = layout.ones
                while mask:
                    low = mask & -mask
                    field &= bit_field(low.bit_length() - 1)
                    mask ^= low
                table += coeff * field
        else:
            table = _zeta(layout, terms)
        yield table, scale


def _direct_is_cheaper(terms: Mapping[int, int], variables: int) -> bool:
    """Whether the bitmask-keyed ``terms`` take fewer operations directly than by the transform.

    The counts are in whole-table ANDs, from timings on 2**12 and 2**20
    fields of 8 bits: a zeta pass costs about 11, a term about 4 plus one
    per variable in its support, and a bit field about 10.  Every bit field
    the terms use is counted, built or not, so a term is never taken
    directly on the strength of another's fields.
    """
    used = 0
    operations = 0
    for mask in terms:
        used |= mask
        operations += 4 + mask.bit_count()
    return operations + 10 * used.bit_count() < 11 * variables


def _zeta(layout: CubeLayout, terms: Mapping[int, int]) -> int:
    """The packed table of the integer ``terms``, keyed by bitmask; see :func:`pack_cube`."""
    width, size, quarter = layout.width, layout.size, layout.quarter
    field_bytes = width >> 3
    blank = _BLANK_FIELDS.get(width)
    if blank:
        cells = blank * size
        for mask, coeff in terms.items():
            cells[mask] = coeff + quarter
    else:
        cells = bytearray(quarter.to_bytes(field_bytes, _ORDER) * size)
        for mask, coeff in terms.items():
            start = mask * field_bytes
            cells[start:start + field_bytes] = (coeff + quarter).to_bytes(field_bytes, _ORDER)
    packed = int.from_bytes(cells, _ORDER)
    offsets = layout.offsets
    # The passes commute, so they run from the top bit down.
    shift = size * width >> 1  # bit n-1 moves a field up this many bits
    low = (1 << shift) - 1  # all-ones fields where bit n-1 is clear
    for _ in range(layout.variables):
        packed += ((packed & low) - (offsets & low)) << shift
        # Down one bit: the runs of ones halve, and each run's upper
        # half moves up into the gap after it.
        shift >>= 1
        low ^= low << shift
    return packed
