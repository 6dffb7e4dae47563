"""Tour of sequences, samplings, oscillation, and metastability rates.

Run with:  python3 demos/metastability_rates.py
"""

from fractions import Fraction as F

from metastable import (
    Constant,
    Periodic,
    SequenceSpec,
    affine_sampling,
    brute_min_uniform_rate,
    check_rate,
    eps_cauchy_exact,
    metastable_witness,
    monotone_uniform_rate,
    osc_eta_exact,
    osc_segment,
    osc_total_exact,
    parse_f_expression,
    rate_witness,
    sampling_to_json,
    uniform_rate_audit,
)
from metastable.generators import (
    alternating_sequence,
    random_monotone_sequence,
    step_sequence,
)

# ---------------------------------------------------------------------------
# A sequence is a finite prefix plus a declared tail.  The declaration is
# what makes limit quantities computable exactly: the values 3/5, 1/2, ...
# below repeat the final entry forever.

climb = SequenceSpec(
    prefix=(0, F(3, 10), F(1, 2), F(3, 5), F(13, 20)), tail=Constant()
)
print("climbing sequence:", [str(climb.value(n)) for n in range(8)])

# A sampling chops the index set into finite windows [N, F(N)].  Over the
# naturals it is linear, F(n) = kn + c with k, c >= 1, and plain data.
eta = affine_sampling(1)            # F(n) = n + 1
eta2 = parse_f_expression("2n+1")   # F(n) = 2n + 1
print("windows of n+1 at 3:", eta.eta(3))
print("windows of 2n+1 at 2:", eta2.eta(2), "as JSON:", sampling_to_json(eta2))

# The oscillation of a window is its max pairwise spread.
print("osc over window {2,3}:", osc_segment(climb, eta.eta(2)))

# A witness for [eps, eta]-metastability is a window with spread <= eps.
print("witness for eps=2/5:", metastable_witness(climb, F(2, 5), eta, 10))

# ---------------------------------------------------------------------------
# A rate is a finite set E guaranteed to contain a witness.  Checking a rate
# only ever reads the sequence up to max over E of max(eta_i): that
# finiteness is the whole point.

E = {0, 1, 2}
print("rate E =", sorted(E), "holds:", check_rate(climb, F(2, 5), eta, E),
      "witness:", rate_witness(climb, F(2, 5), eta, E))

# The alternating sequence 1, -1, 1, ... has every window at spread 2,
# so it has no witness for any eps < 2 under any window choice.
alt = alternating_sequence()
print("alternating witness for eps=1:",
      metastable_witness(alt, 1, eta, 100))
print("alternating exact eta-oscillation:", osc_eta_exact(alt, eta))

# ---------------------------------------------------------------------------
# Oscillation quantities.  With a declared tail the infimum over all windows
# collapses to a finite minimum and is exact, for every sampling.

hybrid = SequenceSpec(prefix=(0, 10, 0, 1), tail=Periodic(2))
print("hybrid sequence:", [str(hybrid.value(n)) for n in range(8)])
print("exact eta-oscillation:", osc_eta_exact(hybrid, eta))
print("total oscillation:", osc_total_exact(hybrid))
print("is it 1-Cauchy?", eps_cauchy_exact(hybrid, 1),
      " 9/10-Cauchy?", eps_cauchy_exact(hybrid, F(9, 10)))

# ---------------------------------------------------------------------------
# Uniform rates.  No single cutoff M works for every monotone sequence in
# [0,1]: a step placed past M defeats it.  But the set {0..F^k(0)} with
# k = ceil(1/eps) contains a witness for all of them simultaneously.

eps = F(1, 2)
E_uniform = monotone_uniform_rate(eps, eta)
print("uniform rate for eps=1/2, F=n+1:", sorted(E_uniform))

import random

family = [random_monotone_sequence(random.Random(seed)) for seed in range(100)]
print("audit over 100 random monotone sequences:",
      "all pass" if uniform_rate_audit(family, eps, eta, E_uniform)
      else "counterexample!")

# The step sequence shows why singletons fail: its window at the step has
# spread exactly 1.
M = 3
step = step_sequence(M)
print(f"step at {M}: osc over window {eta.eta(M)} =",
      osc_segment(step, eta.eta(M)),
      f"| rate {{{M}}} holds:", check_rate(step, eps, eta, {M}))

# The brute-force minimum is often smaller than the guaranteed rate.
E_min = brute_min_uniform_rate(family, eps, eta, horizon=10)
print("brute-force minimal prefix rate:", sorted(E_min),
      "(guaranteed rate:", sorted(E_uniform), ")")
