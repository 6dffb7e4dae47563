import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metastable.dct as dct_module
import metastable.generators as generators
from metastable import (
    Constant,
    DirectedFamily,
    IncoherentTails,
    MeasureStructure,
    Periodic,
    PreconditionViolated,
    RateSpec,
    SequenceSpec,
    affine_sampling,
    brute_min_uniform_rate,
    check_rate,
    dct_inequality_check,
    family_from_json,
    family_to_json,
    integral_sequence,
    metastable_dct_search,
    format_rational,
    monotone_uniform_rate,
    osc_total_exact,
    parse_f_expression,
    uniform_rate_audit,
)
from metastable.errors import RateTooLarge
from metastable.generators import (
    monotone_slice_class,
    random_coherent_family,
    random_monotone_family,
    staircase_family,
    staircase_sequence,
)

ETA1 = affine_sampling(1)


def half_half(sl1, sl2):
    measure = MeasureStructure(("w1", "w2"),
                               {"w1": F(1, 2), "w2": F(1, 2)}, "probability")
    return DirectedFamily(measure=measure, slices={"w1": sl1, "w2": sl2})


class TestDirectedFamily:
    def test_slice_keys_must_match(self):
        measure = MeasureStructure(("w1",), {"w1": 1}, "probability")
        with pytest.raises(IncoherentTails):
            DirectedFamily(measure=measure, slices={
                "w1": SequenceSpec(prefix=(0,), tail=Constant()),
                "w2": SequenceSpec(prefix=(0,), tail=Constant()),
            })

    def test_decimal_slices_exact(self):
        text = ('{"measure": {"omega": ["w1", "w2"], "kind": "probability", '
                '"weights": {"w1": 0.75, "w2": 0.25}}, "slices": {'
                '"w1": {"prefix": [0.1, 0.2]}, "w2": {"prefix": [0.5]}}}')
        fam = family_from_json(json.loads(text, parse_float=F))
        assert fam.measure.weights == {"w1": F(3, 4), "w2": F(1, 4)}
        assert fam.slices["w1"].prefix == (F(1, 10), F(1, 5))
        assert fam.norm_phi == F(1, 2)
        with pytest.raises(ValueError):
            DirectedFamily(measure=fam.measure, slices={
                "w1": SequenceSpec(prefix=(0.5,)), "w2": fam.slices["w2"]})

    def test_norm_phi_validated(self):
        measure = MeasureStructure(("w1",), {"w1": 1}, "probability")
        with pytest.raises(ValueError):
            DirectedFamily(
                measure=measure,
                slices={"w1": SequenceSpec(prefix=(2,), tail=Constant())},
                norm_phi=1,
            )

    def test_tail_data_lcm(self):
        fam = half_half(
            SequenceSpec(prefix=(0, 1), tail=Periodic(2)),
            SequenceSpec(prefix=(0, 1, 2), tail=Periodic(3)),
        )
        T, p = fam.tail_data()
        assert T == 0 and p == 6


class TestIntegralSequence:
    def test_constant_slices(self):
        fam = half_half(
            SequenceSpec(prefix=(1,), tail=Constant()),
            SequenceSpec(prefix=(3,), tail=Constant()),
        )
        iseq = integral_sequence(fam)
        assert osc_total_exact(iseq) == 0
        assert iseq.value(5) == 2

    def test_cancellation(self):
        fam = half_half(
            SequenceSpec(prefix=(1, -1), tail=Periodic(2)),
            SequenceSpec(prefix=(-1, 1), tail=Periodic(2)),
        )
        iseq = integral_sequence(fam)
        assert all(iseq.value(j) == 0 for j in range(6))

    def test_single_atom_scales(self):
        measure = MeasureStructure(("w1",), {"w1": F(1, 3)}, "finite")
        slice_ = SequenceSpec(prefix=(0, 3), tail=Periodic(2))
        fam = DirectedFamily(measure=measure, slices={"w1": slice_})
        iseq = integral_sequence(fam)
        assert [iseq.value(j) for j in range(4)] == [0, 1, 0, 1]


def literal_integral(fam):
    """j -> sum over omega of weight times slice value, over Fractions."""
    T, p = fam.tail_data()
    return [sum((fam.slices[w].value(j) * fam.measure.weights[w]
                 for w in fam.measure.omega), F(0)) for j in range(T + p)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), repeat=st.booleans())
def test_integral_matches_literal_sum(seed, repeat):
    fam = random_coherent_family(random.Random(seed))
    if repeat:
        # equal slices, as in the staircase core, have their weights added
        first = fam.slices[fam.measure.omega[0]]
        fam = DirectedFamily(measure=fam.measure,
                             slices={w: first for w in fam.measure.omega})
    iseq = integral_sequence(fam)
    assert list(iseq.prefix) == literal_integral(fam)
    assert iseq.period == fam.tail_data()[1]


class TestInequality:
    def test_convergent_slices(self):
        fam = half_half(
            SequenceSpec(prefix=(0, F(1, 2)), tail=Constant()),
            SequenceSpec(prefix=(1,), tail=Constant()),
        )
        result = dct_inequality_check(fam)
        assert result.holds and result.lhs == 0 == result.rhs

    def test_cancellation_instance(self):
        fam = half_half(
            SequenceSpec(prefix=(1, -1), tail=Periodic(2)),
            SequenceSpec(prefix=(-1, 1), tail=Periodic(2)),
        )
        result = dct_inequality_check(fam)
        assert result.holds and result.lhs == 0 and result.rhs == 2

    def test_weighted_spread(self):
        measure = MeasureStructure(
            ("w1", "w2"), {"w1": F(1, 3), "w2": F(2, 3)}, "probability"
        )
        fam = DirectedFamily(measure=measure, slices={
            "w1": SequenceSpec(prefix=(0, 1), tail=Periodic(2)),
            "w2": SequenceSpec(prefix=(F(1, 2),), tail=Constant()),
        })
        result = dct_inequality_check(fam)
        assert result.lhs == F(1, 3) and result.rhs == 1 and result.holds

    def test_scaling_covariance(self):
        rng = random.Random(17)
        fam = random_coherent_family(rng)
        lam = F(5, 3)
        scaled = DirectedFamily(
            measure=MeasureStructure(
                fam.measure.omega,
                {w: lam * v for w, v in fam.measure.weights.items()},
                fam.measure.kind if fam.measure.kind != "probability"
                else "finite",
            ),
            slices=fam.slices,
        )
        base = dct_inequality_check(fam)
        big = dct_inequality_check(scaled)
        assert big.lhs == lam * base.lhs and big.rhs == lam * base.rhs

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_holds_on_random_families(self, seed):
        fam = random_coherent_family(random.Random(seed))
        assert dct_inequality_check(fam).holds


class TestStaircase:
    def test_defeats_shorter_prefixes(self):
        for eps in (F(1, 2), F(1, 4), F(2, 5)):
            stair = staircase_sequence(eps, ETA1)
            k = math.ceil(1 / eps)
            m_star = 0
            for _ in range(k - 1):
                m_star = ETA1.f(m_star)
            for i in range(m_star):
                window = ETA1.eta(i)
                spread = max(stair.value(j) for j in window) - \
                    min(stair.value(j) for j in window)
                assert spread > eps
            window = ETA1.eta(m_star)
            spread = max(stair.value(j) for j in window) - \
                min(stair.value(j) for j in window)
            assert spread <= eps

    def test_oversized_staircase_refused_before_it_is_built(self):
        eta = parse_f_expression("2n+1")
        with pytest.raises(RateTooLarge, match="staircase at epsilon 1/22"):
            staircase_sequence(F(1, 22), eta)
        with pytest.raises(RateTooLarge):
            staircase_sequence(F(1, 10 ** 9), ETA1)
        # F^(k-1)(0) = 2**6 - 1 builds under a limit of 2**6, 2**7 - 1 not
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "MAX_RATE_SIZE", 2 ** 6)
            assert len(staircase_sequence(F(1, 7), eta).prefix) == 2 ** 6
            with pytest.raises(RateTooLarge):
                staircase_sequence(F(1, 8), eta)

    def test_values_stay_in_unit_interval(self):
        for eps in (F(1, 10), F(1, 3), F(3, 4)):
            stair = staircase_sequence(eps, ETA1)
            assert all(0 <= v <= 1 for v in stair.prefix)


class TestSearch:
    def grid(self):
        return [F(1), F(1, 2), F(1, 4)]

    def slice_rate(self, grid, eta=ETA1):
        return RateSpec(per_epsilon={
            eps: monotone_uniform_rate(eps, eta) for eps in grid
        })

    def test_all_constant_class(self):
        fams = [
            half_half(
                SequenceSpec(prefix=(F(c, 4),), tail=Constant()),
                SequenceSpec(prefix=(F(c, 8),), tail=Constant()),
            )
            for c in range(4)
        ]
        grid = self.grid()
        result = metastable_dct_search(
            fams, r=0, s=1, eta=ETA1, slice_rate=self.slice_rate(grid),
            horizon=8, eps_grid=grid,
        )
        assert result.feasible
        for eps in grid:
            assert result.rate.per_epsilon[eps] == range(1)

    def test_monotone_class_within_paper_rate(self):
        grid = self.grid()
        fams = monotone_slice_class(ETA1, grid, n_random=40, seed=5)
        result = metastable_dct_search(
            fams, r=0, s=1, eta=ETA1, slice_rate=self.slice_rate(grid),
            horizon=16,
        )
        assert result.feasible
        for eps in grid:
            assert set(result.rate.per_epsilon[eps]) <= \
                set(monotone_uniform_rate(eps, ETA1))

    def test_held_out_validation(self):
        grid = self.grid()
        fams = monotone_slice_class(ETA1, grid, n_random=40, seed=5)
        result = metastable_dct_search(
            fams, r=0, s=1, eta=ETA1, slice_rate=self.slice_rate(grid),
            horizon=16,
        )
        fresh = monotone_slice_class(ETA1, grid, n_random=60, seed=813)
        integrals = [integral_sequence(f) for f in fresh]
        for eps in grid:
            assert uniform_rate_audit(integrals, eps, ETA1,
                                      result.rate.per_epsilon[eps])

    def test_precondition_violation_named(self):
        grid = [F(1, 2)]
        bad = half_half(
            SequenceSpec(prefix=(1, -1), tail=Periodic(2)),
            SequenceSpec(prefix=(0,), tail=Constant()),
        )
        with pytest.raises(PreconditionViolated) as err:
            metastable_dct_search(
                [bad], r=0, s=1, eta=ETA1, slice_rate=self.slice_rate(grid),
                horizon=8,
            )
        assert "w1" in str(err.value)

    def test_infeasible_reported(self):
        fams = [staircase_family(F(1, 10), ETA1)]
        grid = [F(1, 10)]
        result = metastable_dct_search(
            fams, r=0, s=1, eta=ETA1, slice_rate=self.slice_rate(grid),
            horizon=2, eps_grid=grid,
        )
        assert not result.feasible
        assert result.infeasible == (F(1, 10),)

    def test_uncapped_search_is_exact(self):
        # horizon 96 is below the staircase's 127: capped, the search gives
        # up; without a horizon it finds the rate
        eta = parse_f_expression("2n+1")
        grid = [F(1, 8)]
        fams = monotone_slice_class(eta, grid, 2, 1)
        capped = metastable_dct_search(fams, 0, 1, eta,
                                       self.slice_rate(grid, eta), 96)
        assert capped.infeasible == (F(1, 8),) and capped.horizon == 96
        exact = metastable_dct_search(fams, 0, 1, eta,
                                      self.slice_rate(grid, eta))
        assert exact.rate.per_epsilon == {F(1, 8): range(128)}
        assert exact.horizon is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), F_text=st.sampled_from(
        ["n+1", "n+2", "2n+1", "3n+1"]), finest=st.integers(1, 6),
        horizon=st.one_of(st.none(), st.integers(0, 40)))
    def test_rates_equal_the_per_epsilon_search(self, seed, F_text, finest,
                                                horizon):
        eta = parse_f_expression(F_text)
        rng = random.Random(seed)
        grid = [F(rng.randint(1, 2), d) for d in range(1, finest + 1)]
        fams = monotone_slice_class(eta, grid, 6, seed)
        result = metastable_dct_search(fams, 0, 1, eta,
                                       self.slice_rate(grid, eta), horizon)
        integrals = [integral_sequence(fam) for fam in fams]
        expected = {eps: brute_min_uniform_rate(integrals, eps, eta, horizon)
                    for eps in sorted(set(grid))}
        if None in expected.values():
            assert result.infeasible == tuple(
                eps for eps, E in expected.items() if E is None)
        else:
            assert result.rate.per_epsilon == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), F_text=st.sampled_from(
        ["n+1", "n+3", "2n+1", "3n+2"]))
    def test_precheck_reports_the_first_failure(self, seed, F_text):
        # the first failing (family, sorted slice, ascending epsilon), as a
        # loop of one check_rate per slice and epsilon finds it
        eta = parse_f_expression(F_text)
        rng = random.Random(seed)
        grid = sorted({F(rng.randint(1, 3), rng.randint(1, 6))
                       for _ in range(3)})
        slice_rate = RateSpec(per_epsilon={
            eps: rng.choice([range(rng.randint(1, 30)),
                             range(rng.randint(0, 5), 2 ** 40, 2),
                             set(rng.sample(range(30), rng.randint(1, 5)))])
            for eps in grid})
        fams = [random_monotone_family(rng) if rng.random() < 0.5
                else random_coherent_family(rng, max_omega=3)
                for _ in range(rng.randint(1, 6))]
        expected = None
        for idx, fam in enumerate(fams):
            for w, sl in sorted(fam.slices.items()):
                for eps in grid:
                    if expected is None and not check_rate(
                            sl, eps, eta, slice_rate.rate_for(eps)):
                        expected = (f"family #{idx}, slice {w!r}: no witness "
                                    "in the slice rate at epsilon = "
                                    f"{format_rational(eps)}")
            if expected is not None:
                break
        if expected is None:
            metastable_dct_search(fams, 0, 20, eta, slice_rate)
        else:
            with pytest.raises(PreconditionViolated) as err:
                metastable_dct_search(fams, 0, 20, eta, slice_rate)
            assert str(err.value).startswith(expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), F_text=st.sampled_from(
        ["n+1", "n+3", "2n+1", "3n+2"]))
    def test_precheck_reads_within_the_slice_rates(self, seed, F_text):
        eta = parse_f_expression(F_text)
        rng = random.Random(seed)
        grid = [F(1), F(1, 2), F(1, 4)]
        slice_rate = RateSpec(per_epsilon={
            eps: rng.choice([range(rng.randint(1, 12)),
                             set(rng.sample(range(12), rng.randint(1, 4)))])
            for eps in grid})
        spies = []

        def spied(seq):
            spy = SpySlice(prefix=seq.prefix, tail=seq.tail)
            spies.append(spy)
            return spy

        fams = []
        for _ in range(4):
            fam = random_coherent_family(rng, max_omega=3)
            slices = {w: spied(s) for w, s in fam.slices.items()}
            slices["twin"] = spied(slices["w0"])
            weights = dict(fam.measure.weights, twin=0)
            measure = MeasureStructure(fam.measure.omega + ("twin",), weights,
                                       "finite")
            fams.append(DirectedFamily(measure=measure, slices=slices))
        with pytest.MonkeyPatch.context() as patch:
            # integrals read slices too; only the precheck is spied on here
            patch.setattr(dct_module, "integral_sequence",
                          lambda fam: SequenceSpec(prefix=(0,)))
            try:
                metastable_dct_search(fams, 0, 20, eta, slice_rate)
            except PreconditionViolated:
                pass
        bound = max(eta.f(max(E)) for E in slice_rate.per_epsilon.values())
        for fam in fams:
            # each distinct slice is read once, in one pass: its twin not at all
            assert not (fam.slices["w0"].calls and fam.slices["twin"].calls)
        for spy in spies:
            assert len(spy.calls) == len(set(spy.calls))
            assert all(j <= bound for j in spy.calls)

    def test_negative_horizon_refused(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            metastable_dct_search([], 0, 1, ETA1,
                                  self.slice_rate([F(1, 2)]), -1)

    def test_norm_precondition(self):
        measure = MeasureStructure(("w1",), {"w1": 2}, "finite")
        fam = DirectedFamily(
            measure=measure,
            slices={"w1": SequenceSpec(prefix=(0,), tail=Constant())},
        )
        with pytest.raises(PreconditionViolated):
            metastable_dct_search(
                [fam], r=0, s=1, eta=ETA1,
                slice_rate=self.slice_rate([F(1, 2)]), horizon=4,
            )


class SpySlice(SequenceSpec):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "calls", [])

    def pairs(self, lo, hi, cap):
        self.calls.extend(range(lo, hi + 1))
        return super().pairs(lo, hi, cap)


class TestSerialization:
    def test_family_roundtrip(self):
        fam = random_monotone_family(random.Random(2))
        again = family_from_json(family_to_json(fam))
        assert again.measure == fam.measure
        assert again.slices == fam.slices
        assert again.norm_phi == fam.norm_phi
