"""From a constrained problem to an unconstrained penalty form.

Walks through  max x1+x2+x3  subject to  x1*x2 + x2*x3 + 2*x1*x3 <= 3:
the constraint admits slack up to 3, so two slack bits (coefficients 1 and 2)
absorb it inside a squared penalty.  The example also demonstrates the
reference-expansion diff: we hand the dualizer an expansion published in an
external derivation, and the report pinpoints where that derivation slipped
(a dropped cross term and a flipped sign).
"""

from fractions import Fraction

from qaoadepth import (
    Constraint,
    Polynomial,
    Problem,
    absorb_subsets,
    build,
    color_exact,
    dualize,
    verify_penalty,
)

budget = Polynomial({("x1", "x2"): 1, ("x2", "x3"): 1, ("x1", "x3"): 2})

# Expansion as printed in the external derivation (minus-sign slack
# convention); two terms of it are wrong, as the diff below will show.
reference = Polynomial(
    {
        ("x1", "x2"): -5, ("x2", "x3"): -5, ("x1", "x3"): -8,
        ("x1", "x2", "x3"): 10,
        ("s1_1", "x1", "x2"): -2, ("s1_1", "x2", "x3"): -2, ("s1_1", "x1", "x3"): -4,
        ("s1_2", "x1", "x2"): -4, ("s1_2", "x2", "x3"): -4,
        ("s1_1",): -7, ("s1_2",): 16, ("s1_1", "s1_2"): 4, (): 9,
    }
)

problem = Problem(
    sense="max",
    objective=Polynomial.from_terms(((f"x{i}",), 1) for i in (1, 2, 3)),
    constraints=(
        Constraint(lhs=budget, rhs=Fraction(3), label="budget", reference_expansion=reference),
    ),
    variables=("x1", "x2", "x3"),
)

pubo = dualize(problem)
record = pubo.dualizations[0]
print(f"slack range: {record.slack_range}  ->  {record.bit_count} slack bits {record.slack_vars}")
print(f"penalty weight (auto): {record.weight}")
print("squared penalty (before weighting):")
print(" ", record.square)
print()

diff = record.expansion_diff
print("diff against the reference expansion:")
for support, coeff in diff.missing_in_reference:
    print(f"  reference is missing the term {coeff}*{'*'.join(support)}")
for support, ours, theirs in diff.coefficient_mismatches:
    print(f"  {'*'.join(support) or '1'}: computed {ours}, reference says {theirs}")
print("(the cross-term signs differ wholesale because the reference puts the")
print(" slack inside the square with a minus; only the +slack form can reach")
print(" penalty zero at strictly feasible points, which the oracle confirms)")
print()

check = verify_penalty(pubo, problem)
print(f"penalty oracle: {'pass' if check.passed else 'FAIL'}")
print("optimal assignments (x1,x2,x3):", [bits for bits in check.constrained_argmin])
print()

h = absorb_subsets(build(pubo), 3)
print(f"three-qubit gate budget absorbs the two-variable monomials: {len(h.edges)} gates")
for edge in h.edges:
    print("  {" + ",".join(edge.support) + "}", f"covering {len(edge.monomials)} monomial(s)")
coloring = color_exact(h)
print(f"\nexact coloring needs {coloring.num_colors} layers; only the slack pair")
print("gate and the all-x gate are disjoint, so they share one layer.")
