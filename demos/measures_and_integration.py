"""Tour of finite measure structures, audits, and integration.

Run with:  python3 demos/measures_and_integration.py
"""

from fractions import Fraction as F

from metastable import (
    LInfFunction,
    MeasureStructure,
    audit_integration,
    audit_preloeb,
    check_measurability,
    integrate,
    total_variation,
)

# ---------------------------------------------------------------------------
# A measure structure is a finite sample space with atom weights; the set
# function it induces is finitely additive by construction, so the audit
# checks only the clauses that can fail.  On a powerset those reduce to the
# atom weights: mu(A) >= 0 for every A exactly when every weight is.

M = MeasureStructure(
    omega=("w1", "w2", "w3"),
    weights={"w1": F(1, 6), "w2": F(1, 3), "w3": F(1, 2)},
    kind="probability",
)
report = audit_preloeb(M)
for entry in report.entries:
    mark = "PASS" if entry.ok else "FAIL"
    print(f"  {mark} {entry.clause}")
print("all clauses hold:", report.ok)

# Total variation: the sup over pairs of sets of |mu(A)| + |mu(B)| - |mu(A & B)|
# is the sum of |mu(atom)| on any algebra, so both modes sum |weights| on a
# powerset; on an explicit algebra the audit mode sums over its atoms.
signed = MeasureStructure(("w1", "w2"), {"w1": 1, "w2": -1}, "signed")
print("signed measure: fast TV =", total_variation(signed),
      " audited TV =", total_variation(signed, audit=True))

# ---------------------------------------------------------------------------
# Constructed violations are reported with a witness, not raised.

no_complement = MeasureStructure(
    ("w1", "w2"), {"w1": F(1, 2), "w2": F(1, 2)}, "finite",
    algebra=(frozenset(), frozenset({"w1", "w2"}), frozenset({"w1"})),
)
for entry in audit_preloeb(no_complement).failures():
    print("violation:", entry.clause, "|", entry.witness)

# ---------------------------------------------------------------------------
# Integration is the exact weighted sum; on a finite space that IS the
# representation of the functional by the measure, and I(chi_A) = mu(A)
# holds by construction, so the integration audit checks only the bounds
# and the Lipschitz estimate.

f = LInfFunction({"w1": 3, "w2": 0, "w3": -1})
print("If =", integrate(M, f))
A = frozenset({"w1", "w3"})
print("I(chi_A) =", integrate(M, LInfFunction.chi(M.omega, A)),
      " mu(A) =", M.mu(A))

probes = [f, f.abs(), f.pos_part(), LInfFunction.constant(M.omega, F(2, 3))]
print("integration audit:", "all pass" if audit_integration(M, probes).ok
      else "FAILED")

# Positive and negative parts decompose f and its absolute value.
print("f = f+ - f-:", f.pos_part() - f.neg_part() == f,
      "  |f| = f+ + f-:", f.pos_part() + f.neg_part() == f.abs())

# ---------------------------------------------------------------------------
# Approximate measurability: a set A with f <= v on A and f >= u off A.
# The powerset always has one; the trivial algebra usually does not.

print("witness on powerset:", sorted(check_measurability(M, f, 0, 1)))
trivial = MeasureStructure(
    ("w1", "w2"), {"w1": F(1, 2), "w2": F(1, 2)}, "probability",
    algebra=(frozenset(), frozenset({"w1", "w2"})),
)
g = LInfFunction({"w1": 0, "w2": 1})
print("witness on trivial algebra:",
      check_measurability(trivial, g, F(1, 4), F(3, 4)))
