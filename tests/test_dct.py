import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dct_inequality_check,
    family_from_json,
    family_to_json,
    integral_sequence,
    metastable_dct_search,
    monotone_uniform_rate,
    osc_total_exact,
    uniform_rate_audit,
)
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

    def test_values_stay_in_unit_interval(self):
        for eps in (F(1, 10), F(1, 3), F(3, 4)):
            stair = staircase_sequence(eps, ETA1)
            assert all(0 <= v <= 1 for v in stair.prefix)


class TestSearch:
    def grid(self):
        return [F(1), F(1, 2), F(1, 4)]

    def slice_rate(self, grid):
        return RateSpec(per_epsilon={
            eps: monotone_uniform_rate(eps, ETA1) for eps in grid
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


class TestSerialization:
    def test_family_roundtrip(self):
        fam = random_monotone_family(random.Random(2))
        again = family_from_json(family_to_json(fam))
        assert again.measure == fam.measure
        assert again.slices == fam.slices
        assert again.norm_phi == fam.norm_phi
