"""Tour of positive bounded formulas and their two satisfaction relations.

Run with:  python3 demos/formulas_and_satisfaction.py
"""

from fractions import Fraction as F

import metastable.henson as h
from metastable import SequenceSpec, affine_sampling, check_rate

# ---------------------------------------------------------------------------
# A signature declares sorts and symbols; a finite structure interprets them
# with exact rational metrics.  Here: one sort X with two points at distance
# exactly 1, anchored at pa, with constants a (the anchor) and b.

sig = h.Signature(sorts=("X",), constants={"b": "X"}, anchors={"X": "a"})
space = h.line_sort({"pa": 0, "pb": 1}, anchor="pa")
M = h.FiniteStructure(sig, {"X": space}, {"a": "pa", "b": "pb"})

# Formulas are negation-free, with rational bounds in atoms and bounded
# quantifiers: E r ranges over the closed ball of radius r around the
# anchor, A r over the open ball.

phi = h.parse_formula("E 1 x. d(x, a) >= 1", sig)
print(h.format_formula(phi), "->", h.satisfies(M, phi))   # pb is in B[1]

psi = h.parse_formula("A 1 x. d(x, a) <= 0", sig)
print(h.format_formula(psi), "->", h.satisfies(M, psi))   # B(1) = {pa} only

# ---------------------------------------------------------------------------
# Approximations relax every estimate strictly; approximate satisfaction
# asks for truth of all of them.  On finite structures it is discrete
# satisfaction: only finitely many rationals are ever compared, so below the
# minimal gap between them every relaxation decides as the formula does.

tight = h.parse_formula("d(b, a) <= 1", sig)
print("discrete:", h.satisfies(M, tight),
      " approximate:", h.approx_satisfies(M, tight))

relaxed = h.relax(tight, F(1, 4))
print("a relaxation:", h.format_formula(relaxed),
      "| is an approximation:", h.is_approximation(tight, relaxed))

# Push b just past distance 1 and both relations flip together: the gap
# between the critical values 1 and 1001/1000 is 1/1000, and no relaxation
# below it reaches b.
space2 = h.line_sort({"pa": 0, "pb": F(1001, 1000)}, anchor="pa")
M2 = h.FiniteStructure(sig, {"X": space2}, {"a": "pa", "b": "pb"})
print("just past 1 -> discrete:", h.satisfies(M2, tight),
      " approximate:", h.approx_satisfies(M2, tight))

# Weak negation dualizes the syntax; exactly one of phi, wneg(relaxation)
# is approximately satisfied.
wn = h.weak_negation(h.relax(tight, h.satisfaction_gap(M2, tight) / 2))
print("weak negation of a relaxation:", h.format_formula(wn),
      "->", h.approx_satisfies(M2, wn))

# ---------------------------------------------------------------------------
# Window formulas connect the logic back to metastability: the formula for
# window eta_i says all pairwise gaps of the net values inside it are <= t,
# and the rate formula for E is their disjunction.

eta = affine_sampling(1)
xi = h.xi_formula(eta, 3, F(1, 2))
print("window formula at 3:", h.format_formula(xi))
print("its weak negation:  ", h.format_formula(h.weak_negation(xi)))

# Encode a concrete sequence window as a structure and read the rate
# formula in it; the verdict matches the numeric rate check.
seq = SequenceSpec(prefix=(0, F(3, 10), F(1, 2), F(3, 5)))
E = {0, 1, 2}
cap = max(eta.max_index(i) for i in E)
_, window_structure = h.encode_sequence_window(seq, cap)
rate_formula = h.xi_E(eta, E, F(2, 5))
print("rate formula:", h.format_formula(rate_formula))
print("approximately satisfied:",
      h.approx_satisfies(window_structure, rate_formula),
      "| numeric check_rate:", check_rate(seq, F(2, 5), eta, E))
