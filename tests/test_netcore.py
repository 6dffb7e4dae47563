import json
import random
import time
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastable import netcore
from metastable import (
    Constant,
    EmptyRate,
    MalformedInput,
    NonpositiveEpsilon,
    Periodic,
    RateSpec,
    RateTooLarge,
    SequenceSpec,
    UnsupportedSampling,
    affine_sampling,
    brute_min_uniform_rate,
    check_rate,
    eps_cauchy_exact,
    explicit_sampling,
    metastable_witness,
    monotone_uniform_rate,
    osc_eta_exact,
    osc_segment,
    osc_total_exact,
    parse_f_expression,
    rate_witness,
    sequence_from_csv,
    sequence_from_json,
    sequence_to_json,
    uniform_rate_audit,
)
from metastable.generators import (
    alternating_sequence,
    random_monotone_sequence,
    random_tail_sequence,
    step_sequence,
)

ETA1 = affine_sampling(1)


def harmonic_prefix(n):
    return SequenceSpec(prefix=tuple(F(1, k + 1) for k in range(n)),
                        tail=Constant())


class TestSequenceSpec:
    def test_constant_tail_values(self):
        s = SequenceSpec(prefix=(1, 2, 3), tail=Constant())
        assert [s.value(i) for i in range(6)] == [1, 2, 3, 3, 3, 3]

    def test_periodic_tail_values(self):
        s = SequenceSpec(prefix=(9, 0, 1), tail=Periodic(2))
        assert [s.value(i) for i in range(7)] == [9, 0, 1, 0, 1, 0, 1]

    def test_bound_validation(self):
        SequenceSpec(prefix=(0, 1), tail=Constant(), bound=1)
        with pytest.raises(ValueError):
            SequenceSpec(prefix=(0, 2), tail=Constant(), bound=1)

    def test_prefix_must_cover_period(self):
        with pytest.raises(ValueError):
            SequenceSpec(prefix=(1,), tail=Periodic(2))

    def test_decimal_values_exact(self):
        # decimal text is read exactly, so nothing loosens the comparison:
        # the window [0, 1] oscillates by exactly 1/2
        s = SequenceSpec(prefix=("0.0", "0.5"), tail=Constant())
        assert s.prefix == (0, F(1, 2))
        assert eps_cauchy_exact(s, 0)
        assert metastable_witness(s, F(1, 2), ETA1, 3) == 0
        assert metastable_witness(s, F(1, 2) - F(1, 10**15), ETA1, 3) == 1
        with pytest.raises(ValueError):
            SequenceSpec(prefix=(0.5,))

    def test_tuple_values_sup_metric(self):
        s = SequenceSpec(prefix=((0, 0), (1, F(1, 2))), tail=Constant())
        assert osc_segment(s, {0, 1}) == 1


class TestOscSegment:
    def test_constant(self):
        s = SequenceSpec(prefix=(F(1, 3),), tail=Constant())
        assert osc_segment(s, range(10)) == 0

    def test_alternating_pair(self):
        assert osc_segment(alternating_sequence(), {3, 4}) == 2

    def test_monotone_extremes(self):
        assert osc_segment(harmonic_prefix(5), range(5)) == F(4, 5)

    def test_singleton(self):
        assert osc_segment(alternating_sequence(), {7}) == 0


class TestWitness:
    def test_constant_witness_zero(self):
        s = SequenceSpec(prefix=(5,), tail=Constant())
        assert metastable_witness(s, 0, ETA1, 10) == 0

    def test_alternating_never(self):
        assert metastable_witness(alternating_sequence(), 1, ETA1, 100) is None

    def test_step_window_before_step(self):
        assert metastable_witness(step_sequence(5), F(1, 2), ETA1, 10) == 0


class TestNegativeEpsilon:
    """Every rate entry point refuses eps < 0 with one message; eps = 0
    stays a valid question."""

    @pytest.mark.parametrize("run", [
        lambda seq, eps: metastable_witness(seq, eps, ETA1, 3),
        lambda seq, eps: rate_witness(seq, eps, ETA1, {0, 1}),
        lambda seq, eps: check_rate(seq, eps, ETA1, {0, 1}),
        lambda seq, eps: uniform_rate_audit([seq], eps, ETA1, {0, 1}),
        lambda seq, eps: brute_min_uniform_rate([seq], eps, ETA1, 3),
    ], ids=["metastable_witness", "rate_witness", "check_rate",
            "uniform_rate_audit", "brute_min_uniform_rate"])
    def test_refused_below_zero(self, run):
        seq = SequenceSpec(prefix=(5,), tail=Constant())
        for eps in (-1, F(-1, 10 ** 30), "-1/2"):
            with pytest.raises(ValueError, match="epsilon must be >= 0"):
                run(seq, eps)
        answer = run(seq, 0)
        assert answer is not None and answer is not False


class TestCheckRate:
    def test_step_straddle_fails(self):
        for M in (0, 1, 4):
            seq = step_sequence(M)
            for eps in (F(1, 10), F(1, 2), F(9, 10)):
                assert osc_segment(seq, ETA1.eta(M)) == 1
                assert not check_rate(seq, eps, ETA1, {M})

    def test_constant_trivial(self):
        s = SequenceSpec(prefix=(2,), tail=Constant())
        assert check_rate(s, 0, ETA1, {0})

    def test_monotone_example(self):
        s = SequenceSpec(
            prefix=(0, F(3, 10), F(1, 2), F(3, 5), F(13, 20)), tail=Constant()
        )
        assert check_rate(s, F(2, 5), ETA1, {0, 1, 2})
        assert osc_segment(s, ETA1.eta(2)) == F(1, 10)

    def test_empty_rate(self):
        with pytest.raises(EmptyRate):
            check_rate(alternating_sequence(), 1, ETA1, set())

    def test_rate_witness_reports_first(self):
        assert rate_witness(step_sequence(0), F(1, 2), ETA1, {0, 1, 2}) == 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_witness_monotonicity(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        seq = random_tail_sequence(rng)
        eps = F(data.draw(st.integers(0, 8)), 4)
        E = frozenset(data.draw(st.sets(st.integers(0, 8), min_size=1)))
        if check_rate(seq, eps, ETA1, E):
            eps2 = eps + F(data.draw(st.integers(0, 4)), 3)
            extra = frozenset(data.draw(st.sets(st.integers(0, 12))))
            assert check_rate(seq, eps2, ETA1, E | extra)


class TestMonotoneUniformRate:
    def test_eps_one(self):
        assert monotone_uniform_rate(1, ETA1) == range(2)

    def test_doubling(self):
        eta = parse_f_expression("2n+1")
        assert monotone_uniform_rate(F(2, 5), eta) == range(8)

    def test_half(self):
        assert monotone_uniform_rate(F(1, 2), ETA1) == range(3)

    def test_nonpositive(self):
        with pytest.raises(NonpositiveEpsilon):
            monotone_uniform_rate(0, ETA1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6),
           eps=st.sampled_from([F(1), F(1, 2), F(2, 5), F(1, 4), F(1, 10)]),
           w=st.integers(1, 3))
    def test_rate_validates_on_random_monotone(self, seed, eps, w):
        rng = random.Random(seed)
        seq = random_monotone_sequence(rng)
        eta = affine_sampling(w)
        assert check_rate(seq, eps, eta, monotone_uniform_rate(eps, eta))


class TestOscEta:
    def test_constant_zero(self):
        s = SequenceSpec(prefix=(1, 2, 7), tail=Constant())
        assert osc_eta_exact(s, ETA1) == 0

    def test_alternating_two(self):
        assert osc_eta_exact(alternating_sequence(), ETA1) == 2

    def test_prefix_then_period(self):
        s = SequenceSpec(prefix=(0, 10, 0, 1), tail=Periodic(2))
        assert osc_eta_exact(s, ETA1) == 1

    def test_doubling_sampling_exact(self):
        s = SequenceSpec(prefix=(0, 10, 0, 1), tail=Periodic(2))
        for F_text in ("2n+1", "3n+2"):
            assert osc_eta_exact(s, parse_f_expression(F_text)) == 1
        assert osc_eta_exact(alternating_sequence(),
                             parse_f_expression("2n+1")) == 2

    def test_table_minimum_over_domain(self):
        s = SequenceSpec(prefix=(0, 1, 5), tail=Constant())
        eta = explicit_sampling({0: (0, 1), 1: (1, 2), 4: (4, 9)})
        assert osc_eta_exact(s, eta) == 0

    def test_empty_table_has_no_minimum(self):
        s = SequenceSpec(prefix=(0, 1), tail=Constant())
        with pytest.raises(ValueError, match="empty table"):
            osc_eta_exact(s, explicit_sampling({}))

    def test_harmonic_prefix_exact(self):
        # a search over i <= 10 only bounds the infimum from above; the
        # constant tail from index 11 on attains it
        seq = harmonic_prefix(12)
        assert min(osc_segment(seq, ETA1.eta(i)) for i in range(11)) == \
            F(1, 11) - F(1, 12)
        assert osc_eta_exact(seq, ETA1) == 0

    def test_upper_matches_exact_on_alternating(self):
        alt = alternating_sequence()
        assert min(osc_segment(alt, ETA1.eta(i)) for i in range(51)) == 2 \
            == osc_eta_exact(alt, ETA1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 3), c=st.integers(1, 3))
    def test_exact_threshold_brackets_witnesses(self, seed, k, c):
        # the exact eta-oscillation is the sharp witness threshold within
        # the horizon T + p: witnesses exist at or above it, never below
        rng = random.Random(seed)
        seq = random_tail_sequence(rng, max_prefix=5, max_period=3)
        eta = parse_f_expression(f"{k}n+{c}")
        B = seq.tail_start + seq.period - 1
        exact = osc_eta_exact(seq, eta)
        for above in (exact, exact + F(1, 9), exact + 1):
            assert metastable_witness(seq, above, eta, B) is not None
        if exact > 0:
            for below in (exact * F(1, 2), exact * F(8, 9)):
                assert metastable_witness(seq, below, eta, 5 * B + 20) is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 3), c=st.integers(1, 3))
    def test_upper_nonincreasing_reaches_exact(self, seed, k, c):
        # the literal minimum over i <= budget only falls as the budget
        # grows, and equals the exact value from budget T + p - 1 on
        rng = random.Random(seed)
        seq = random_tail_sequence(rng, max_prefix=5, max_period=3)
        eta = parse_f_expression(f"{k}n+{c}")
        horizon = seq.tail_start + seq.period - 1
        running = list(accumulate(
            (osc_segment(seq, eta.eta(i)) for i in range(3 * horizon + 10)),
            min))
        assert running[horizon] == running[-1] == osc_eta_exact(seq, eta)


class TestPeriodicityBound:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 3), c=st.integers(1, 4))
    def test_no_smaller_window_beyond_bound(self, seed, k, c):
        # the infimum over all window positions is attained below T + p;
        # a literal scan five times farther finds nothing smaller
        rng = random.Random(seed)
        seq = random_tail_sequence(rng, max_prefix=5, max_period=4)
        eta = parse_f_expression(f"{k}n+{c}")
        budget = 5 * (seq.tail_start + seq.period + c)
        assert osc_eta_exact(seq, eta) == min(
            osc_segment(seq, eta.eta(i)) for i in range(budget + 1))


class TestOscTotal:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_deep_tail_window(self, seed):
        # oracle: the diameter of any full-period window deep in the tail
        rng = random.Random(seed)
        seq = random_tail_sequence(rng)
        start = seq.tail_start + 7 * seq.period
        window = [seq.value(n) for n in range(start, start + seq.period)]
        from metastable.netcore import osc_points

        assert osc_total_exact(seq) == osc_points(window)

    def test_constant_tail(self):
        s = SequenceSpec(prefix=(4, 4, 9, 2), tail=Constant())
        assert osc_total_exact(s) == 0

    def test_periodic(self):
        s = SequenceSpec(prefix=(0, 1, F(1, 2)), tail=Periodic(3))
        assert osc_total_exact(s) == 1

    def test_constant_valued_period(self):
        s = SequenceSpec(prefix=(3, 3), tail=Periodic(2))
        assert osc_total_exact(s) == 0

    def test_eps_cauchy(self):
        s = SequenceSpec(prefix=(0, 1), tail=Periodic(2))
        assert eps_cauchy_exact(s, 1)
        assert not eps_cauchy_exact(s, F(9, 10))
        thirds = SequenceSpec(prefix=(0, F(1, 3), F(2, 3)), tail=Periodic(3))
        assert eps_cauchy_exact(thirds, F(2, 3))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_zero_iff_constant_valued_tail(self, seed):
        rng = random.Random(seed)
        seq = random_tail_sequence(rng)
        assert (osc_total_exact(seq) == 0) == seq.is_constant_tail()
        assert osc_total_exact(seq) <= seq.bound


class TestUniformRateAudit:
    def test_empty_family_vacuous(self):
        assert uniform_rate_audit([], F(1, 2), ETA1, {0})

    def test_counterexample_reported(self):
        fam = [SequenceSpec(prefix=(0,), tail=Constant()), step_sequence(1)]
        result = uniform_rate_audit(fam, F(1, 2), ETA1, {1})
        assert not result
        assert result.index == 1

    def test_brute_min_constants(self):
        fam = [SequenceSpec(prefix=(c,), tail=Constant()) for c in range(3)]
        assert brute_min_uniform_rate(fam, F(1, 2), ETA1, 5) == range(1)

    def test_brute_min_infeasible(self):
        fam = [alternating_sequence()]
        assert brute_min_uniform_rate(fam, 1, ETA1, 20) is None

    def test_brute_min_within_monotone_rate(self):
        rng = random.Random(11)
        fam = [random_monotone_sequence(rng) for _ in range(40)]
        eps = F(1, 2)
        E = brute_min_uniform_rate(fam, eps, ETA1, 10)
        assert E is not None
        assert set(E) <= set(monotone_uniform_rate(eps, ETA1))


class Spy(SequenceSpec):
    """A sequence that records every index read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "calls", [])

    def pairs(self, lo, hi, cap):
        self.calls.extend(range(lo, hi + 1))
        return super().pairs(lo, hi, cap)


class TestFinitarity:
    def test_check_rate_never_reads_past_cap(self):
        seq = Spy(prefix=(0, 1, 2), tail=Constant())
        E = {0, 2}
        check_rate(seq, 0, ETA1, E)
        assert max(seq.calls) <= max(ETA1.max_index(i) for i in E)

    @pytest.mark.parametrize("F_text", ["n+1", "n+5", "2n+1", "3n+4"])
    @pytest.mark.parametrize("lo", [0, 3, 10 ** 6])
    def test_huge_range_answers_fast(self, F_text, lo):
        # failures past T cover every residue mod p within p windows, so
        # reads stop at max(min E, T) + 2p - 2 however long E is
        seq = Spy(prefix=(0, 5, 0, 1, F(1, 2)), tail=Periodic(3))
        eta = parse_f_expression(F_text)
        T, p = seq.tail_start, seq.period
        E = range(lo, 2 ** 40)
        start = time.perf_counter()
        assert not check_rate(seq, F(1, 4), eta, E)
        assert time.perf_counter() - start < 0.01
        assert max(seq.calls) <= max(lo, T) + 2 * p - 2
        assert check_rate(seq, 1, eta, E)
        assert max(seq.calls) <= eta.f(E[-1])

    def test_stepped_range_stops_on_its_coset(self):
        # a range of step 2 over period 4 reaches only two residues mod 4
        seq = Spy(prefix=(0, 1, 0, 1), tail=Periodic(4))
        start = time.perf_counter()
        assert rate_witness(seq, F(1, 2), ETA1, range(0, 2 ** 40, 2)) is None
        assert time.perf_counter() - start < 0.01
        assert max(seq.calls) <= 2 + 4 - 1


class TestWindowCap:
    """No window is capped: past the tail start a window reads at most one
    period, so any window length answers exactly."""

    def test_long_window_answers_without_over_read(self):
        seq = Spy(prefix=(0, 1, 0), tail=Periodic(2))
        eta = parse_f_expression("1000000n+1")
        start = time.perf_counter()
        # window 9 holds both 0 and 1, and is read only up to index 10
        assert rate_witness(seq, F(1, 2), eta, {0, 9}) is None
        assert rate_witness(seq, 1, eta, {9}) == 9
        assert time.perf_counter() - start < 1
        assert max(seq.calls) <= 9 + seq.period - 1 < eta.f(9)

    def test_witness_before_long_window_answers(self):
        seq = SequenceSpec(prefix=(0,), tail=Constant())
        eta = parse_f_expression("1000000n+1")
        assert rate_witness(seq, 0, eta, {0, 9}) == 0

    def test_longest_allowed_window_is_read(self, monkeypatch):
        # MAX_RATE_SIZE caps only rates built on request, not windows
        monkeypatch.setattr(netcore, "MAX_RATE_SIZE", 8)
        seq = SequenceSpec(prefix=(0,), tail=Constant())
        assert rate_witness(seq, 0, affine_sampling(8), {0}) == 0
        assert rate_witness(seq, 0, parse_f_expression("2n+1"), {7}) == 7
        with pytest.raises(RateTooLarge):
            netcore.rate_interval(0, 8)

    def test_explicit_sampling_has_no_f(self):
        eta = explicit_sampling({0: (0, 1)})
        with pytest.raises(UnsupportedSampling):
            monotone_uniform_rate(F(1, 2), eta)
        with pytest.raises(UnsupportedSampling):
            eta.f(0)


class TestRateSpec:
    def test_single(self):
        r = RateSpec(per_epsilon={1: {0, 1}, F(1, 2): range(2 ** 40)})
        assert r.rate_for(1) == frozenset({0, 1})
        assert r.rate_for(F(1, 2)) == range(2 ** 40)

    def test_per_epsilon_keys_above_r(self):
        with pytest.raises(ValueError):
            RateSpec(r=F(1, 2), per_epsilon={F(1, 4): {0}})

    def test_empty_set_rejected(self):
        for E in (set(), range(0)):
            with pytest.raises(EmptyRate):
                RateSpec(per_epsilon={1: E})

    def test_cauchy_modulus_encoding(self):
        # a Cauchy modulus M_eps is the family of singleton rates {M_eps}
        r = RateSpec(per_epsilon={F(1, 2): {7}})
        assert r.rate_for(F(1, 2)) == frozenset({7})


class TestSerialization:
    def test_json_roundtrip(self):
        s = SequenceSpec(prefix=(0, F(1, 3), 1), tail=Periodic(2), bound=2)
        data = sequence_to_json(s)
        assert data["prefix"] == ["0", "1/3", "1"]
        assert sequence_from_json(data) == s

    def test_csv(self):
        s = sequence_from_csv("0\n1/2\n3/4\n")
        assert s.prefix == (0, F(1, 2), F(3, 4))
        assert isinstance(s.tail, Constant)

    def test_decimal_json_and_csv_exact(self):
        data = json.loads('{"prefix": [0.25, 0.1], "bound": 0.5, '
                          '"mode": "float"}', parse_float=F)
        s = sequence_from_json(data)
        assert s.prefix == (F(1, 4), F(1, 10)) and s.bound == F(1, 2)
        assert "mode" not in sequence_to_json(s)
        assert sequence_from_json(sequence_to_json(s)) == s
        assert sequence_from_csv("0.1\n").prefix == (F(1, 10),)
        with pytest.raises(MalformedInput):
            sequence_from_json({"prefix": [0.25]})
