"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an equality or subset assertion on rationals; there are no
numeric tolerances to tune.  Each test prints a single line on success, so
`pytest tests/test_acceptance.py -v -s` gives one pass/fail line per
criterion together with the elapsed time.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import product

import metastable.henson as h
from metastable import (
    Constant,
    LInfFunction,
    MeasureStructure,
    RateSpec,
    SequenceSpec,
    affine_sampling,
    audit_preloeb,
    check_rate,
    dct_inequality_check,
    eps_cauchy_exact,
    integral_sequence,
    integrate,
    metastable_dct_search,
    metastable_witness,
    monotone_uniform_rate,
    osc_eta_exact,
    osc_segment,
    osc_total_exact,
    total_variation,
    uniform_rate_audit,
)
from metastable.directed import parse_f_expression
from metastable.generators import (
    monotone_slice_class,
    random_coherent_family,
    random_finite_structure,
    random_formula,
    random_monotone_sequence,
    random_rational,
    random_tail_sequence,
    step_sequence,
)

ETA1 = affine_sampling(1)


def _report(number, message, started):
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {message} ({elapsed:.1f}s)")


def test_criterion_1_monotone_uniform_rate():
    started = time.perf_counter()
    rng = random.Random(20260811)
    eps_grid = [F(1), F(1, 2), F(2, 5), F(1, 4), F(1, 10)]
    samplings = [parse_f_expression(s) for s in ("n+1", "n+2", "2n+1")]
    rates = {
        (eps, eta.key): monotone_uniform_rate(eps, eta)
        for eps in eps_grid for eta in samplings
    }
    sequences = [random_monotone_sequence(rng) for _ in range(1000)]
    for seq in sequences:
        for eps in eps_grid:
            for eta in samplings:
                assert check_rate(seq, eps, eta, rates[(eps, eta.key)])
    _report(1, "monotone uniform rate valid on 1000 sequences x 15 grids",
            started)


def test_criterion_2_step_sequence_counterexample():
    started = time.perf_counter()
    eps_grid = [F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10)]
    samplings = [parse_f_expression(s) for s in ("n+1", "2n+1")]
    for M in range(9):
        seq = step_sequence(M)
        for eta in samplings:
            # every window at M reaches past the step
            assert eta.max_index(M) > M
            assert osc_segment(seq, eta.eta(M)) == 1
            for eps in eps_grid:
                assert 1 > eps
                assert not check_rate(seq, eps, eta, {M})
    _report(2, "singleton rates straddling a step always fail with osc = 1",
            started)


def test_criterion_3_oscillation_equivalences():
    started = time.perf_counter()
    rng = random.Random(31)
    eps_probe = [F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2)]
    for _ in range(500):
        dim = 2 if rng.random() < 0.2 else 1
        seq = random_tail_sequence(rng, max_prefix=6, max_period=4, dim=dim)
        eta = parse_f_expression(f"{rng.randint(1, 3)}n+{rng.randint(1, 3)}")
        B = seq.tail_start + seq.period - 1
        exact = osc_eta_exact(seq, eta)

        # the literal minimum over a long budget equals the exact value,
        # and over a short one bounds it from above
        assert min(osc_segment(seq, eta.eta(i)) for i in range(4 * B + 8)) \
            == exact
        assert min(osc_segment(seq, eta.eta(i))
                   for i in range(B // 2 + 1)) >= exact

        # exact eta-oscillation <= eps iff every larger eps' has a witness
        assert metastable_witness(seq, exact, eta, B) is not None
        if exact > 0:
            assert metastable_witness(seq, exact * F(6, 7), eta, B) is None

        total = osc_total_exact(seq)
        for eps in eps_probe:
            assert eps_cauchy_exact(seq, eps) == (total <= eps)
        assert (total == 0) == seq.is_constant_tail()
        assert total <= seq.bound

        # a window as wide as prefix + period realizes the total oscillation
        wide = affine_sampling(seq.tail_start + seq.period)
        assert osc_eta_exact(seq, wide) == total
        assert osc_eta_exact(seq, eta) <= total
    _report(3, "oscillation equivalence suite on 500 sequences", started)


def test_criterion_4_logic_numeric_agreement():
    started = time.perf_counter()
    rng = random.Random(44)
    for _ in range(200):
        seq = random_tail_sequence(rng, max_prefix=4, max_period=3, dim=1)
        eta = affine_sampling(rng.randint(1, 2))
        E = frozenset(rng.sample(range(6), rng.randint(1, 3)))
        eps = random_rational(rng, 0, 2, 8)
        cap = max(eta.max_index(i) for i in E)
        _, M = h.encode_sequence_window(seq, cap)
        m_star = min(osc_segment(seq, eta.eta(i)) for i in E)
        grid = [eps + F(1, 7), eps + F(1, 2)]
        if m_star > eps:
            grid.append((eps + m_star) / 2)
        for eps_prime in grid:
            assert h.approx_satisfies(M, h.xi_E(eta, E, eps_prime)) == \
                (m_star <= eps_prime)
        agrees = all(h.approx_satisfies(M, h.xi_E(eta, E, e)) for e in grid)
        assert agrees == check_rate(seq, eps, eta, E)
    _report(4, "window-formula satisfaction matches check_rate on 200 instances",
            started)


def test_criterion_5_approximation_calculus():
    started = time.perf_counter()
    rng = random.Random(55)
    instances = 0
    while instances < 1000:
        M = random_finite_structure(rng)
        for _ in range(3):
            phi = random_formula(rng, M.signature)
            instances += 1

            # duality of the approximation relation under weak negation
            if rng.random() < 0.7:
                psi = h.relax(phi, random_rational(rng, 0, 1, 8) + F(1, 16))
            else:
                psi = random_formula(rng, M.signature)
            assert h.is_approximation(phi, psi) == \
                h.is_approximation(h.weak_negation(psi), h.weak_negation(phi))

            # discrete satisfaction implies approximate satisfaction
            if h.satisfies(M, phi):
                assert h.approx_satisfies(M, phi)

            # satisfaction of the relaxation is delta-stable below the gap
            g = h.satisfaction_gap(M, phi)
            d1 = g * F(rng.randint(1, 7), 8)
            d2 = g * F(rng.randint(1, 7), 8)
            assert h.satisfies(M, h.relax(phi, d1)) == \
                h.satisfies(M, h.relax(phi, d2))

            # failure of approximate satisfaction is witnessed by the weak
            # negation of an approximation, and only then
            counter = h.weak_negation(h.relax(phi, g / 2))
            assert h.approx_satisfies(M, phi) != h.approx_satisfies(M, counter)
    _report(5, f"approximation calculus properties on {instances} instances",
            started)


def _positive_weight_vectors(n):
    grid = [F(0), F(1, 3), F(1), F(3, 2)]
    if n <= 3:
        yield from product(grid, repeat=n)
        return
    base = [F(0), F(1, 3), F(1), F(3, 2), F(2, 5), F(5, 4), F(1, 2), F(3)]
    for offset in range(8):
        yield tuple(base[(offset + i) % len(base)] for i in range(n))


def _signed_weight_vectors(n):
    grid = [F(-1), F(1, 2), F(3, 2)]
    if n <= 3:
        yield from product(grid, repeat=n)
        return
    base = [F(-1), F(1, 2), F(3, 2), F(-1, 3), F(2), F(-3, 4)]
    for offset in range(6):
        yield tuple(base[(offset + i) % len(base)] for i in range(n))


def test_criterion_6_measure_axioms():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        omega = tuple(f"w{i}" for i in range(n))
        probes = [
            LInfFunction({w: F((-1) ** i * (i + 1), i + 2)
                          for i, w in enumerate(omega)}),
            LInfFunction.constant(omega, F(1)),
            LInfFunction({w: F(i - 1, 3) for i, w in enumerate(omega)}),
        ]
        for weights in _positive_weight_vectors(n):
            M = MeasureStructure(omega, dict(zip(omega, weights)), "finite")
            assert audit_preloeb(M).ok
            assert total_variation(M) == total_variation(M, audit=True)
            norm = M.norm()
            for A in M.sets():
                assert integrate(M, LInfFunction.chi(omega, A)) == M.mu(A)
            for f in probes:
                value = integrate(M, f)
                assert norm * f.inf() <= value <= norm * f.sup()
            checked += 1
        for weights in _signed_weight_vectors(n):
            M = MeasureStructure(omega, dict(zip(omega, weights)), "signed")
            assert audit_preloeb(M).ok
            assert total_variation(M) == total_variation(M, audit=True)
            tv = total_variation(M)
            for f in probes:
                assert abs(integrate(M, f)) <= tv * f.norm()
            checked += 1
    _report(6, f"measure axioms exhaustively audited on {checked} structures",
            started)


def test_criterion_7_dct_inequality():
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(1000):
        fam = random_coherent_family(rng, max_omega=5, max_period=4,
                                     max_prefix=8)
        result = dct_inequality_check(fam)
        assert result.holds
        if all(s.is_constant_tail() for s in fam.slices.values()):
            assert result.lhs == 0
    for _ in range(100):
        n = rng.randint(1, 5)
        measure = MeasureStructure(
            tuple(f"w{i}" for i in range(n)),
            {f"w{i}": random_rational(rng, 0, 1, 8) for i in range(n)},
            "finite",
        )
        slices = {
            w: SequenceSpec(
                prefix=tuple(random_rational(rng, -1, 1, 8)
                             for _ in range(rng.randint(1, 4))),
                tail=Constant(),
            )
            for w in measure.omega
        }
        from metastable import DirectedFamily

        result = dct_inequality_check(
            DirectedFamily(measure=measure, slices=slices)
        )
        assert result.holds and result.lhs == 0
    _report(7, "oscillation inequality holds on 1000 random + 100 convergent "
               "families", started)


def test_criterion_8_metastable_dct_surrogate():
    started = time.perf_counter()
    grid = [F(1), F(1, 2), F(2, 5), F(1, 4)]
    slice_rate = RateSpec(per_epsilon={
        eps: monotone_uniform_rate(eps, ETA1) for eps in grid
    })
    families = monotone_slice_class(ETA1, grid, n_random=100, seed=8001)
    result = metastable_dct_search(
        families, r=0, s=1, eta=ETA1, slice_rate=slice_rate, horizon=32,
    )
    assert result.feasible

    for eps in grid:
        k = math.ceil(1 / eps)
        top = 0
        for _ in range(k):
            top = ETA1.f(top)
        assert set(result.rate.per_epsilon[eps]) <= set(range(top + 1))

    held_out = monotone_slice_class(ETA1, grid, n_random=200, seed=8002)
    integrals = [integral_sequence(fam) for fam in held_out]
    for eps in grid:
        assert uniform_rate_audit(integrals, eps, ETA1,
                                  result.rate.per_epsilon[eps])
    _report(8, "metastable DCT rate validates on 200 held-out families and "
               "stays inside the chained bound", started)
