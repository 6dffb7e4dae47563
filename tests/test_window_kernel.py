"""The window kernel against the literal definition.

Every rerouted function is compared with a loop over `osc_segment` on
generated sequences (scalar and tuple values, constant and periodic tails)
and samplings (n+c, kn+c, explicit tables), with rates that
have gaps.  A spy sequence shows what a rate check reads.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from metastable import (
    Constant,
    Periodic,
    SequenceSpec,
    brute_min_uniform_rate,
    check_rate,
    explicit_sampling,
    metastable_witness,
    osc_eta_exact,
    osc_eta_upper,
    osc_segment,
    parse_f_expression,
    periodicity_bound,
    rate_witness,
    uniform_rate_audit,
)

# explicit tables cover 0..TABLE_TOP; every generated index stays inside
TABLE_TOP = 14


@st.composite
def sequences(draw):
    dim = draw(st.sampled_from([0, 0, 2, 3]))
    scalar = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    value = scalar if dim == 0 else st.tuples(*[scalar] * dim)
    prefix = draw(st.lists(value, min_size=1, max_size=10))
    period = draw(st.integers(0, len(prefix)))
    tail = Periodic(period) if period else Constant()
    return SequenceSpec(prefix=tuple(prefix), tail=tail)


@st.composite
def samplings(draw):
    kind = draw(st.sampled_from(["affine", "linear", "explicit"]))
    if kind == "affine":
        return parse_f_expression(f"n+{draw(st.integers(1, 4))}")
    if kind == "linear":
        k, c = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        return parse_f_expression(f"{k}n+{c}")
    table = {
        i: draw(st.sets(st.integers(i, i + 4), min_size=1))
        for i in range(TABLE_TOP + 1)
    }
    return explicit_sampling(table)


epsilons = st.builds(F, st.integers(0, 8), st.integers(1, 4))
rates = st.sets(st.integers(0, TABLE_TOP), min_size=1, max_size=6)


def literal_witness(seq, eps, eta, indices):
    for i in indices:
        if osc_segment(seq, eta.eta(i)) <= eps:
            return i
    return None


def literal_brute_min(family, eps, eta, horizon):
    for m in range(horizon + 1):
        if all(literal_witness(s, eps, eta, range(m + 1)) is not None
               for s in family):
            return frozenset(range(m + 1))
    return None


@settings(max_examples=200, deadline=None)
@given(seq=sequences(), eta=samplings(), eps=epsilons, E=rates,
       bound=st.integers(-1, TABLE_TOP))
def test_witnesses_match_literal(seq, eta, eps, E, bound):
    expected = literal_witness(seq, eps, eta, sorted(E))
    assert rate_witness(seq, eps, eta, E) == expected
    assert check_rate(seq, eps, eta, E) == (expected is not None)
    assert metastable_witness(seq, eps, eta, bound) == \
        literal_witness(seq, eps, eta, range(bound + 1))


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), eta=samplings(), budget=st.integers(0, TABLE_TOP))
def test_osc_eta_upper_matches_literal(seq, eta, budget):
    assert osc_eta_upper(seq, eta, budget).value == min(
        osc_segment(seq, eta.eta(i)) for i in range(budget + 1))


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), w=st.integers(1, 4))
def test_osc_eta_exact_matches_literal(seq, w):
    eta = parse_f_expression(f"n+{w}")
    B = periodicity_bound(seq, eta)
    assert osc_eta_exact(seq, eta) == min(
        osc_segment(seq, eta.eta(i)) for i in range(B + 1))


@settings(max_examples=100, deadline=None)
@given(family=st.lists(sequences(), max_size=5),
       eta=samplings(), eps=epsilons, horizon=st.integers(0, TABLE_TOP - 4),
       E=rates)
def test_family_searches_match_literal(family, eta, eps, horizon, E):
    assert brute_min_uniform_rate(family, eps, eta, horizon) == \
        literal_brute_min(family, eps, eta, horizon)
    failing = [k for k, s in enumerate(family)
               if literal_witness(s, eps, eta, sorted(E)) is None]
    result = uniform_rate_audit(family, eps, eta, E)
    assert result.passed == (not failing)
    assert result.index == (failing[0] if failing else None)


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), F_text=st.sampled_from(
    ["n+1", "n+3", "2n+1", "3n+2"]), eps=epsilons,
    E=st.sets(st.integers(0, 40), min_size=1, max_size=8))
def test_rate_check_reads_each_needed_value_once(seq, F_text, eps, E):
    calls = []

    class Spy(SequenceSpec):
        def value(self, n):
            calls.append(n)
            return super().value(n)

    spy = Spy(prefix=seq.prefix, tail=seq.tail)
    eta = parse_f_expression(F_text)
    witness = rate_witness(spy, eps, eta, E)
    scanned = [i for i in sorted(E) if witness is None or i <= witness]
    assert max(calls) <= eta.f(max(E))
    assert max(calls) == eta.f(scanned[-1])
    # exactly the union of the scanned windows, each index once
    assert sorted(calls) == sorted(
        set().union(*(range(i, eta.f(i) + 1) for i in scanned)))
