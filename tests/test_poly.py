import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoadepth import MissingAssignmentError, Polynomial
from qaoadepth import poly as poly_mod

from bruteforce import (
    assignments,
    evaluate_terms,
    exhaustive_minimum,
    is_canonical,
    random_polynomial,
    values_over_cube_reference,
)


def var(name):
    return Polynomial.variable(name)


def test_add_cancellation():
    assert var("x1") + (-var("x1")) == Polynomial.zero()


def test_add_disjoint_merge():
    left = Polynomial({("x1", "x2"): 2, ("x1",): -1})
    assert left + Polynomial({("x2",): -1}) == Polynomial(
        {("x1", "x2"): 2, ("x1",): -1, ("x2",): -1}
    )


def test_multiply_idempotence():
    assert var("x1") * var("x1") == var("x1")


def test_multiply_binomial_square():
    total = var("x1") + var("x2")
    assert total * total == Polynomial({("x1",): 1, ("x2",): 1, ("x1", "x2"): 2})


def test_multiply_quadratic_square_has_cubic_cross_term():
    p = Polynomial({("x1", "x2"): 1, ("x2", "x3"): 1, ("x1", "x3"): 2})
    expected = Polynomial(
        {("x1", "x2"): 1, ("x2", "x3"): 1, ("x1", "x3"): 4, ("x1", "x2", "x3"): 10}
    )
    assert p.square() == expected
    # cross-check by value on all 8 assignments
    for assignment in assignments(("x1", "x2", "x3")):
        assert p.square().evaluate(assignment) == p.evaluate(assignment) ** 2


def test_square_zero():
    assert Polynomial.zero().square() == Polynomial.zero()


def test_square_shifted_variable():
    p = var("x1") - Polynomial.constant(1)
    assert p.square() == Polynomial({("x1",): -1, (): 1})


def test_square_affine():
    p = var("x1") + 2 * var("x2") - Polynomial.constant(3)
    expected = Polynomial({("x1",): -5, ("x2",): -8, ("x1", "x2"): 4, (): 9})
    assert p.square() == expected
    for assignment in assignments(("x1", "x2")):
        assert expected.evaluate(assignment) == p.evaluate(assignment) ** 2


def test_square_matches_self_times_self():
    rng = random.Random(23)
    names = ["x1", "x2", "x3", "x4", "x5"]
    for _ in range(300):
        terms = [((), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))]
        for _ in range(rng.randint(0, 8)):
            support = rng.sample(names, rng.randint(1, 3))
            terms.append((support, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
        p = Polynomial.from_terms(terms)
        assert list(p.square().terms()) == list((p * p).terms())


def test_evaluate_cut_indicator():
    p = Polynomial({("x1", "x2"): 2, ("x1",): -1, ("x2",): -1})
    assert p.evaluate({"x1": 1, "x2": 1}) == 0
    assert p.evaluate({"x1": 1, "x2": 0}) == -1
    assert p.evaluate({"x1": 0, "x2": 0}) == 0


def test_evaluate_missing_variable():
    p = Polynomial({("x1", "x2"): 1})
    with pytest.raises(MissingAssignmentError, match="x2"):
        p.evaluate({"x1": 1})


def test_evaluate_rejects_non_binary():
    with pytest.raises(ValueError):
        Polynomial({("x1",): 1}).evaluate({"x1": 2})


def test_minimum_over_cube_quadratic():
    p = Polynomial({("x1", "x2"): 1, ("x2", "x3"): 1, ("x1", "x3"): 2})
    assert p.minimum_over_cube() == (Fraction(0), True)


def test_minimum_over_cube_cut_polynomial():
    p = Polynomial({("x1", "x2"): 2, ("x1",): -1, ("x2",): -1})
    assert p.minimum_over_cube() == (Fraction(-1), True)


def test_minimum_over_cube_constant():
    assert Polynomial.constant(5).minimum_over_cube() == (Fraction(5), True)


def test_minimum_over_cube_interval_fallback_is_lower_bound(monkeypatch):
    monkeypatch.setattr(poly_mod, "EXACT_ENUMERATION_LIMIT", 0)
    rng = random.Random(7)
    seen = set()
    for _ in range(50):
        names = [f"x{i}" for i in range(1, rng.randint(2, 7))]
        p = random_polynomial(rng, names)
        bound, exact = p.minimum_over_cube()
        assert exact == (sum(map(len, p.supports())) == len(p.variables()))
        if exact:
            assert bound == exhaustive_minimum(p)
        else:
            assert bound <= exhaustive_minimum(p)
        seen.add(exact)
    assert seen == {True, False}


def random_linear(rng, n):
    """Nonzero constant plus n signed, sometimes rational, variable terms."""
    terms = [((), Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))]
    for i in range(1, n + 1):
        terms.append(((f"x{i}",), Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
    return Polynomial.from_terms(terms)


def test_linear_cube_extremes_are_exact_in_closed_form(monkeypatch):
    rng = random.Random(23)
    for _ in range(100):
        p = random_linear(rng, rng.randint(0, 8))
        assert p.degree() <= 1 and p.constant_term != 0
        low = (exhaustive_minimum(p), True)
        assert p.minimum_over_cube() == low
        assert p.maximum_over_cube() == (-exhaustive_minimum(-p), True)
        with monkeypatch.context() as m:
            m.setattr(poly_mod, "EXACT_ENUMERATION_LIMIT", 0)
            assert p.minimum_over_cube() == low


def test_wide_linear_lhs_is_bounded_without_enumeration(monkeypatch):
    def no_enumeration(self, order=None):
        raise AssertionError("values_over_cube called for a linear polynomial")

    monkeypatch.setattr(Polynomial, "values_over_cube", no_enumeration)
    p = Polynomial.from_terms(
        [((), 3)] + [((f"x{i}",), Fraction(2 * i - 27, 4)) for i in range(1, 26)]
    )
    assert len(p.variables()) == 25
    low = 3 + sum(Fraction(2 * i - 27, 4) for i in range(1, 14))
    high = 3 + sum(Fraction(2 * i - 27, 4) for i in range(14, 26))
    assert p.minimum_over_cube() == (low, True)
    assert p.maximum_over_cube() == (high, True)


def test_disjoint_supports_are_bounded_without_enumeration(monkeypatch):
    def no_enumeration(self, order=None):
        raise AssertionError("values_over_cube called for terms sharing no variable")

    rng = random.Random(29)
    cases = []
    for _ in range(60):
        names = [f"x{i}" for i in range(1, rng.randint(2, 10))]
        rng.shuffle(names)
        terms = [((), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))]
        while names:  # consecutive groups of 1-4 names, one term each
            size = rng.randint(1, 4)
            group, names = names[:size], names[size:]
            coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            terms.append((group, coeff))
        p = Polynomial.from_terms(terms)
        cases.append((p, exhaustive_minimum(p), -exhaustive_minimum(-p)))
    assert any(p.degree() > 1 for p, _, _ in cases)
    monkeypatch.setattr(Polynomial, "values_over_cube", no_enumeration)
    for p, low, high in cases:
        assert p.minimum_over_cube() == (low, True)
        assert p.maximum_over_cube() == (high, True)
    # 25 disjoint pairs: past the enumeration limit, still exact.
    coeffs = [Fraction(2 * i - 25, 3) for i in range(25)]  # negative for i < 13
    wide = Polynomial.from_terms([((), 2)] + [((f"a{i}", f"b{i}"), c) for i, c in enumerate(coeffs)])
    assert len(wide.variables()) > poly_mod.EXACT_ENUMERATION_LIMIT
    assert wide.minimum_over_cube() == (2 + sum(coeffs[:13]), True)
    assert wide.maximum_over_cube() == (2 + sum(coeffs[13:]), True)


def test_interval_bound_keeps_the_constant(monkeypatch):
    # x1*x2 and x2*x3 share x2, so above the limit both extremes are interval bounds.
    monkeypatch.setattr(poly_mod, "EXACT_ENUMERATION_LIMIT", 0)
    terms = {("x1", "x2"): 1, ("x2", "x3"): -2, ("x1", "x3", "x4"): 3}
    low, exact = Polynomial({(): 5, **terms}).minimum_over_cube()
    assert (low, exact) == (3, False)
    assert low <= exhaustive_minimum(Polynomial({(): 5, **terms}))
    high, exact = Polynomial({(): -5, **terms}).maximum_over_cube()
    assert (high, exact) == (-1, False)
    assert high >= -exhaustive_minimum(-Polynomial({(): -5, **terms}))


def test_maximum_over_cube_interval_fallback_is_upper_bound(monkeypatch):
    monkeypatch.setattr(poly_mod, "EXACT_ENUMERATION_LIMIT", 0)
    rng = random.Random(8)
    for _ in range(50):
        names = [f"x{i}" for i in range(1, rng.randint(2, 7))]
        p = random_polynomial(rng, names)
        bound, _ = p.maximum_over_cube()
        assert bound >= -exhaustive_minimum(-p)


def test_canonical_form_is_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        p = random_polynomial(rng, ["x1", "x2", "x3", "x4"])
        assert Polynomial(dict(p.terms())) == p
        assert all(coeff != 0 for _, coeff in p.terms())
        assert all(list(support) == sorted(set(support)) for support, _ in p.terms())


def test_ring_axioms_by_evaluation():
    rng = random.Random(13)
    names = ["x1", "x2", "x3", "x4", "x5"]
    for _ in range(25):
        a = random_polynomial(rng, names, max_terms=5)
        b = random_polynomial(rng, names, max_terms=5)
        c = random_polynomial(rng, names, max_terms=5)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_multiply_respects_evaluation():
    rng = random.Random(17)
    names = ["x1", "x2", "x3", "x4"]
    for _ in range(25):
        a = random_polynomial(rng, names, max_terms=5)
        b = random_polynomial(rng, names, max_terms=5)
        product = a * b
        for assignment in assignments(names):
            assert product.evaluate(assignment) == a.evaluate(assignment) * b.evaluate(assignment)


def test_values_over_cube_matches_direct_evaluation():
    rng = random.Random(19)
    for _ in range(20):
        names = ["x1", "x2", "x3"]
        p = random_polynomial(rng, names)
        values = p.values_over_cube(names)
        for z in range(8):
            assignment = {names[i]: (z >> i) & 1 for i in range(3)}
            assert values[z] == evaluate_terms(p, assignment)


def random_rational_polynomial(rng, names, max_terms=10):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        support = rng.sample(names, rng.randint(0, min(4, len(names))))
        terms.append((support, Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
    return Polynomial.from_terms(terms)


def test_values_over_cube_matches_the_reference_transform():
    rng = random.Random(41)
    checked = {"int": 0, "rational": 0}
    for n in range(13):
        order = [f"v{i}" for i in range(n)]
        rng.shuffle(order)
        # Some polynomials use only part of the order: the rest are absent.
        used = order[: rng.randint(0, n)]
        cases = [
            Polynomial.zero(),
            Polynomial.constant(rng.randint(-9, 9) or 1),
            Polynomial.constant(Fraction(rng.randint(1, 9), rng.randint(2, 7))),
            random_polynomial(rng, order, max_terms=12, max_width=4),
            random_polynomial(rng, used, max_terms=12, max_width=4),
            random_rational_polynomial(rng, order) if order else Polynomial.constant(Fraction(-1, 3)),
            random_rational_polynomial(rng, used) if used else Polynomial.constant(Fraction(5, 2)),
        ]
        for p in cases:
            values = p.values_over_cube(order)
            assert values == values_over_cube_reference(p, order)
            integral = p.common_denominator() == 1
            assert all(type(v) is (int if integral else Fraction) for v in values)
            checked["int" if integral else "rational"] += 1
            for z, assignment in enumerate(assignments(reversed(order))):
                assert values[z] == p.evaluate(assignment)
    assert min(checked.values()) >= 30


def split_total(total, signs):
    """Integers with these signs whose absolute values sum to ``total``, none zero."""
    parts = [total // len(signs)] * len(signs)
    parts[-1] += total - sum(parts)
    return [sign * part for sign, part in zip(signs, parts)]


FIELD_WIDTHS = (8, 16, 32, 64, 128)


def expected_width(positive, negative):
    """The narrowest of 8, 16, 32, ... bits whose guard-bit range holds every value in [-negative, positive]."""
    width = 8
    while max(positive, negative) >= 2**(width - 2):
        width *= 2
    return width


@pytest.mark.parametrize(
    "total",
    [
        *(2**(w - 2) + step for w in FIELD_WIDTHS for step in (-1, 0)),
        *(2**(w - 1) + step for w in (8, 16, 32, 64) for step in (-1, 0)),
        10**30,
    ],
)
def test_values_over_cube_is_exact_at_every_field_width_boundary(total):
    # Every value is a sum of some of the coefficients, so it lies between
    # minus the sum of the negative ones' magnitudes and the sum of the
    # positive ones.  Fields of w bits hold that range with a clear guard
    # bit while each sum is below 2**(w-2), and a sum of exactly 2**(w-2)
    # needs the next width: with every sign positive the all-ones point
    # reaches +total, with every sign negative -total.  The mixed signs
    # split the total about in half between the two sums.  The totals at
    # 2**(w-1) were the boundaries before the guard bit.
    order = ["a", "b", "c", "d"]
    supports = [(), ("a",), ("b", "c"), ("a", "c", "d"), ("a", "b", "c", "d")]
    sign_sets = {
        "positive": [1] * 5,
        "negative": [-1] * 5,
        "mixed": [1, -1, 1, -1, 1],
    }
    for kind, signs in sign_sets.items():
        coefficients = split_total(total, signs)
        p = Polynomial(dict(zip(supports, coefficients)))
        layout, [(table, scale)] = poly_mod.pack_cube([p], order)
        positive = sum(c for c in coefficients if c > 0)
        assert layout.width == expected_width(positive, positive - sum(coefficients)), kind
        values = p.values_over_cube(order)
        assert layout.values(table) == values and scale == 1
        assert values == values_over_cube_reference(p, order), kind
        assert all(type(v) is int for v in values)
        if kind != "mixed":
            assert values[-1] == signs[0] * total
        # A rational version of the same table, scaled back by 3.
        q = p * Fraction(1, 3)
        assert q.values_over_cube(order) == [Fraction(v, 3) for v in values]


@pytest.mark.parametrize("width", FIELD_WIDTHS)
def test_the_larger_signed_sum_sets_the_field_width(width):
    # The positive part sits on the constant and a*b, the negative part on
    # c and a*c*d, and either one at 2**(w-2) - 1 or 2**(w-2).  The sum of
    # all magnitudes, the rule before, reaches 2**(w-2) in every case but
    # the last, and the width follows the larger part alone.
    limit = 2 ** (width - 2)
    order = ["a", "b", "c", "d"]
    cases = [
        (limit - 1, limit - 1),
        (limit, limit - 1),
        (limit - 1, limit),
        (limit, 1),
        (1, limit),
        (limit - 1, 1),
    ]
    for positive, negative in cases:
        p = Polynomial({
            (): positive - positive // 2,
            ("a", "b"): positive // 2,
            ("c",): -(negative - negative // 2),
            ("a", "c", "d"): -(negative // 2),
        })
        layout, [(table, scale)] = poly_mod.pack_cube([p], order)
        assert layout.width == (width if max(positive, negative) < limit else 2 * width)
        assert layout.width == expected_width(positive, negative)
        values = layout.values(table)
        assert values == values_over_cube_reference(p, order) and scale == 1
        # a = b = 1, c = 0 reaches the positive part; the constant always counts.
        assert max(values) == positive
        assert min(values) == positive - positive // 2 - negative


def draw_cube_polynomial(rng, names):
    """A polynomial of 0-12 distinct supports, with a constant, either sign and rational or wide coefficients."""
    width = rng.choice(FIELD_WIDTHS)
    rational = rng.random() < 0.3
    terms = []
    for _ in range(rng.randint(0, 12)):
        support = rng.sample(names, rng.randint(0, min(4, len(names))))
        magnitude = rng.randint(1, 2 ** (width - 4))
        coefficient = Fraction(magnitude, rng.randint(1, 6)) if rational else magnitude
        terms.append((support, coefficient * rng.choice((-1, 1))))
    return Polynomial.from_terms(terms)


def test_bit_fields_and_the_transform_tabulate_alike(monkeypatch):
    real = poly_mod._direct_is_cheaper
    chosen = {True: 0, False: 0}

    def recording(terms, variables):
        choice = real(terms, variables)
        chosen[choice] += 1
        return choice

    rng = random.Random(53)
    widths = set()
    for _ in range(300):
        order = [f"v{i}" for i in range(rng.randint(0, 10))]
        rng.shuffle(order)
        p = draw_cube_polynomial(rng, order)
        monkeypatch.setattr(poly_mod, "_direct_is_cheaper", recording)
        layout, [(table, scale)] = poly_mod.pack_cube([p], order)
        for forced in (True, False):
            monkeypatch.setattr(poly_mod, "_direct_is_cheaper", lambda terms, variables: forced)
            assert next(poly_mod.pack_cube([p], order)[1]) == (table, scale)
        assert [Fraction(v, scale) for v in layout.values(table)] == values_over_cube_reference(p, order)
        widths.add(layout.width)
    assert widths >= set(FIELD_WIDTHS)
    assert min(chosen.values()) >= 50, chosen


def test_nonlinear_cube_extremes_enumerate_integer_tables(monkeypatch):
    enumerated = []
    original = Polynomial.values_over_cube

    def recording(self, order=None):
        enumerated.append(self.common_denominator())
        return original(self, order)

    monkeypatch.setattr(Polynomial, "values_over_cube", recording)
    rng = random.Random(43)
    for _ in range(40):
        names = [f"x{i}" for i in range(1, rng.randint(3, 7))]
        # x1*x2 and x2 (or x2*x3) share x2, so no closed form applies.
        overlap = Polynomial({tuple(names[:2]): Fraction(1, 5),
                              tuple(names[1:3]): Fraction(1, 7)})
        p = random_rational_polynomial(rng, names) + overlap
        low, high = p.minimum_over_cube(), p.maximum_over_cube()
        assert low == (exhaustive_minimum(p), True)
        assert high == (-exhaustive_minimum(-p), True)
        assert is_canonical(low[0]) and is_canonical(high[0])
    # One integer table per polynomial serves both extremes.
    assert len(enumerated) == 40 and set(enumerated) == {1}


def test_values_over_cube_requires_covering_order():
    p = Polynomial({("x1", "x2"): 1})
    with pytest.raises(ValueError):
        p.values_over_cube(["x1"])


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Polynomial({("x1",): 0.5})
    with pytest.raises(TypeError):
        Polynomial.variable("x1") * 0.5


def test_fraction_coefficients_survive():
    p = Polynomial({("x1",): Fraction(1, 3)})
    assert p + p == Polynomial({("x1",): Fraction(2, 3)})


def test_scalar_multiplication_and_subtraction():
    p = 3 * var("x1") - 2
    assert p == Polynomial({("x1",): 3, (): -2})
    assert 2 - var("x1") == Polynomial({(): 2, ("x1",): -1})


def test_string_rendering():
    p = Polynomial({("x1", "x2"): 2, ("x1",): -1, (): 3})
    assert str(p) == "3 - x1 + 2*x1*x2"
    assert str(Polynomial.zero()) == "0"


def test_hash_and_equality():
    a = Polynomial({("x1",): 1, ("x2",): 1})
    b = var("x2") + var("x1")
    assert a == b and hash(a) == hash(b)
    assert Polynomial.constant(3) == 3


# -- the fast paths of square, scalar multiplication and the cube bounds -----

FAST_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FAST_NAMES = ("a", "b", "c", "x1", "x10", "x2")  # "x10" sorts before "x2"
fast_coefficients = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 5)),
)


def _term_polynomial(pairs) -> Polynomial:
    return Polynomial.from_terms(pairs)


linear_polynomials = st.builds(
    _term_polynomial,
    st.lists(st.tuples(st.sets(st.sampled_from(FAST_NAMES), max_size=1), fast_coefficients), max_size=7),
)
one_term_polynomials = st.builds(
    lambda support, coeff: Polynomial.from_terms([(support, coeff)]),
    st.sets(st.sampled_from(FAST_NAMES), max_size=3),
    st.one_of(st.sampled_from((1, -1, 2, -3)), fast_coefficients),
)
general_polynomials = st.builds(
    _term_polynomial,
    st.lists(st.tuples(st.sets(st.sampled_from(FAST_NAMES), max_size=3), fast_coefficients), max_size=6),
)
any_polynomial = st.one_of(linear_polynomials, one_term_polynomials, general_polynomials)


def _is_stored_form(p: Polynomial) -> bool:
    """Sorted supports in lex order, each a sorted tuple, with nonzero canonical coefficients."""
    supports = p.supports()
    return (
        list(supports) == sorted(supports)
        and all(list(s) == sorted(set(s)) for s in supports)
        and all(c and is_canonical(c) for _, c in p.terms())
    )


@FAST_SETTINGS
@given(any_polynomial)
def test_square_equals_the_product_and_the_squared_values(p):
    square = p.square()
    assert _is_stored_form(square)
    assert square == p * p
    for assignment in assignments(p.variables()):
        assert square.evaluate(assignment) == p.evaluate(assignment) ** 2


@FAST_SETTINGS
@given(one_term_polynomials)
def test_a_one_term_square_keeps_its_support(p):
    ((support, coeff),) = p.terms()
    square = p.square()
    assert list(square.terms()) == [(support, coeff * coeff)]
    assert (square is p) == (coeff == 1)


@FAST_SETTINGS
@given(any_polynomial, st.one_of(fast_coefficients, st.sampled_from((2, 3, 4, 5, 6))))
def test_scalar_products_keep_the_order_and_whole_fractions_become_ints(p, scalar):
    product = p * scalar
    assert _is_stored_form(product)
    assert product.supports() == p.supports()
    assert dict(product.terms()) == {s: c * scalar for s, c in p.terms()}
    assert product * Fraction(1, 1) is product


def test_scalar_products_turn_whole_fractions_into_ints():
    p = Polynomial({("a",): Fraction(1, 2), ("a", "b"): Fraction(-3, 4), (): Fraction(5, 6)})
    product = p * 12
    assert list(product.terms()) == [((), 10), (("a",), 6), (("a", "b"), -9)]
    assert all(type(c) is int for _, c in product.terms())
    assert [type(c) for _, c in (p * Fraction(6, 5)).terms()] == [int, Fraction, Fraction]


@FAST_SETTINGS
@given(any_polynomial)
def test_cube_extremes_equal_enumeration(p):
    low, high = exhaustive_minimum(p), -exhaustive_minimum(-p)
    assert p.minimum_over_cube() == (low, True)
    assert p.maximum_over_cube() == (high, True)
    assert is_canonical(p.minimum_over_cube()[0]) and is_canonical(p.maximum_over_cube()[0])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23), fast_coefficients), min_size=1, max_size=8),
    fast_coefficients,
    st.lists(st.lists(st.integers(0, 1), min_size=24, max_size=24), min_size=1, max_size=4),
)
def test_cube_bounds_above_the_limit_are_sound_and_flagged_inexact(pairs, constant, points):
    # A path over all 24 names, so more than EXACT_ENUMERATION_LIMIT variables
    # occur and x1 is shared, plus drawn pairs and a constant.
    names = [f"v{i:02d}" for i in range(24)]
    terms = [((u, v), 1) for u, v in zip(names, names[1:])]
    terms += [((names[i], names[j]), c) for i, j, c in pairs] + [((), constant)]
    p = Polynomial.from_terms(terms)
    assert len(p.variables()) > poly_mod.EXACT_ENUMERATION_LIMIT
    (low, low_exact), (high, high_exact) = p.minimum_over_cube(), p.maximum_over_cube()
    assert not low_exact and not high_exact
    coeffs = [c for s, c in p.terms() if s]
    assert low == p.constant_term + sum(c for c in coeffs if c < 0)
    assert high == p.constant_term + sum(c for c in coeffs if c > 0)
    for bits in points:
        assert low <= p.evaluate(dict(zip(names, bits))) <= high
