"""The window kernel against the literal definition.

Every rerouted function is compared with a loop over `osc_segment` on
generated sequences (scalar and tuple values, constant and periodic tails)
and samplings (n+c, kn+c, explicit tables), with rates that
have gaps, sparse rates and rates given as huge ranges.  A spy sequence
shows what a rate check reads.  The grid driver, which decides a whole
epsilon grid from one pass, is held to one `rate_witness` per epsilon and
to evaluating each window once.
"""

import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metastable import (
    Constant,
    Periodic,
    SamplingDomainError,
    SequenceSpec,
    affine_sampling,
    brute_min_uniform_rate,
    check_rate,
    explicit_sampling,
    metastable_witness,
    osc_eta_exact,
    osc_segment,
    parse_f_expression,
    rate_witness,
    uniform_rate_audit,
)
import metastable.netcore as netcore
from metastable.netcore import (
    _eps_pair,
    _grid_witnesses,
    _sorted_rate,
    osc_points,
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
            return range(m + 1)
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
@given(seq=sequences(), eta=samplings())
def test_osc_eta_exact_matches_literal(seq, eta):
    # a table's own domain, or a literal scan far past T + p
    domain = range(TABLE_TOP + 1) if eta.table is not None \
        else range(4 * (len(seq.prefix) + 4))
    assert osc_eta_exact(seq, eta) == min(
        osc_segment(seq, eta.eta(i)) for i in domain)


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), eta=samplings(), budget=st.integers(0, TABLE_TOP))
def test_osc_eta_upper_matches_literal(seq, eta, budget):
    # every budgeted literal min is an upper bound on the exact value, and
    # meets it once the budget covers the table or the horizon T + p
    upper = min(osc_segment(seq, eta.eta(i)) for i in range(budget + 1))
    exact = osc_eta_exact(seq, eta)
    assert exact <= upper
    horizon = TABLE_TOP if eta.table is not None \
        else seq.tail_start + seq.period - 1
    if budget >= horizon:
        assert exact == upper


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(family=st.lists(sequences(), max_size=5), eta=samplings(),
       eps=epsilons)
def test_uncapped_search_is_exact(family, eta, eps):
    # the literal search over i < T+p (the table's domain), and over a far
    # longer prefix of ℕ for kn+c: a first witness, if any, lies below T+p
    ends = [s.tail_start + s.period - 1 for s in family]
    top = TABLE_TOP if eta.table is not None else max(ends, default=0)
    assert brute_min_uniform_rate(family, eps, eta) == \
        literal_brute_min(family, eps, eta, top)
    if eta.table is None:
        firsts = [literal_witness(s, eps, eta, range(3 * end + 10))
                  for s, end in zip(family, ends)]
        expected = None if None in firsts else range(max(firsts, default=0) + 1)
        assert brute_min_uniform_rate(family, eps, eta) == expected


def test_negative_horizon_refused():
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        brute_min_uniform_rate([], F(1, 2), affine_sampling(1), -1)


def test_uncapped_search_on_a_table_stops_at_its_largest_index():
    # a prefix rate must lie in the table: a gap below its largest index
    # raises, as a horizon reaching the gap does
    seq = SequenceSpec(prefix=(0, 1, 1))
    full = explicit_sampling({0: {0, 1}, 1: {1, 2}, 2: {2}})
    assert brute_min_uniform_rate([seq], 0, full) == range(2)
    gapped = explicit_sampling({0: {0, 1}, 2: {2}})
    with pytest.raises(SamplingDomainError, match="no window at 1"):
        brute_min_uniform_rate([seq], 0, gapped)
    with pytest.raises(SamplingDomainError, match="no window at 1"):
        brute_min_uniform_rate([seq], 0, gapped, 1)


prefix_rates = st.integers(1, TABLE_TOP + 1).map(range)
stepped_rates = st.builds(lambda a, n, s: range(a, a + n * s, s),
                          st.integers(0, 4), st.integers(1, 4),
                          st.integers(1, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seq=sequences(), eta=samplings(), grid=st.one_of(
    st.lists(st.tuples(epsilons, prefix_rates), min_size=1, max_size=5),
    st.lists(st.tuples(epsilons, st.one_of(prefix_rates, stepped_rates,
                                           rates)), min_size=1, max_size=5)))
def test_grid_matches_one_witness_per_epsilon(seq, eta, grid):
    pairs = [(_eps_pair(eps), _sorted_rate(E)) for eps, E in grid]
    assert _grid_witnesses(seq, eta, pairs) == [
        rate_witness(seq, eps, eta, E) for eps, E in grid]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seq=sequences(), F_text=st.sampled_from(["n+1", "n+4", "2n+1", "3n+2"]),
       grid=st.lists(st.tuples(epsilons, st.one_of(
           st.builds(lambda a, s: range(a, 2 ** 40, s),
                     st.integers(0, 12), st.integers(1, 6)),
           st.sets(st.integers(0, 40), min_size=1, max_size=8))),
           min_size=1, max_size=4))
def test_grid_over_huge_ranges_reads_a_bounded_prefix(seq, F_text, grid):
    eta = parse_f_expression(F_text)
    spy = Spy(prefix=seq.prefix, tail=seq.tail)
    pairs = [(_eps_pair(eps), _sorted_rate(E)) for eps, E in grid]
    assert _grid_witnesses(spy, eta, pairs) == [
        rate_witness(seq, eps, eta, E) for eps, E in grid]
    # each value once; a huge range is decided within p of its steps past T
    assert len(spy.calls) == len(set(spy.calls))
    assert max(spy.calls) <= max(
        max(E.start, seq.tail_start) + seq.period * (E.step + 1) - 2
        if isinstance(E, range) else eta.f(max(E)) for _, E in grid)


def counting_kernel(patch):
    """Wrap the window kernel; the list gets the index of each window that
    any kernel pass yields."""
    yielded, kernel = [], netcore._window_oscs

    def spy(*args):
        for window in kernel(*args):
            yielded.append(window[0])
            yield window

    patch.setattr(netcore, "_window_oscs", spy)
    return yielded


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seq=sequences(), F_text=st.sampled_from(["n+1", "n+4", "2n+1", "3n+2"]),
       grid=st.lists(st.tuples(epsilons, st.integers(1, 30)), min_size=2,
                     max_size=8))
def test_grid_evaluates_each_window_once(seq, F_text, grid):
    # nested prefix rates 0..m-1: one pass up to the furthest index any
    # epsilon stops at, however many epsilons there are
    eta = parse_f_expression(F_text)
    expected = [rate_witness(seq, eps, eta, range(m)) for eps, m in grid]
    stop = max(literal_scan(seq, eps, eta, range(m))[-1] for eps, m in grid)
    with pytest.MonkeyPatch.context() as patch:
        yielded = counting_kernel(patch)
        assert _grid_witnesses(seq, eta, [
            (_eps_pair(eps), range(m)) for eps, m in grid]) == expected
    assert len(yielded) == len(set(yielded)) <= stop + 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seq=sequences(), F_text=st.sampled_from(["n+1", "n+4", "2n+1", "3n+2"]),
       sparse=epsilons, dense=epsilons)
def test_grid_beside_a_sparse_set(seq, F_text, sparse, dense):
    # the windows of {0, 10**6} and of 0..5 share one pass: each window is
    # evaluated and each value read once, and nothing between is read
    eta = parse_f_expression(F_text)
    grid = [(sparse, [0, 10 ** 6]), (dense, range(6))]
    expected = [rate_witness(seq, eps, eta, E) for eps, E in grid]
    spy = Spy(prefix=seq.prefix, tail=seq.tail)
    with pytest.MonkeyPatch.context() as patch:
        yielded = counting_kernel(patch)
        assert _grid_witnesses(spy, eta, [
            (_eps_pair(eps), E) for eps, E in grid]) == expected
    assert len(yielded) == len(set(yielded)) <= 7
    assert len(spy.calls) == len(set(spy.calls))
    assert all(j <= eta.f(5) or 10 ** 6 <= j < 10 ** 6 + seq.period
               for j in spy.calls)


def literal_scan(seq, eps, eta, E):
    """Indices a rate check evaluates: up to the first witness, or until
    failures past T cover every residue mod p (all windows at i >= T with
    one residue fail alike)."""
    T, p = seq.tail_start, seq.period
    scanned, failed = [], set()
    for i in E:
        scanned.append(i)
        if osc_segment(seq, eta.eta(i)) <= eps:
            break
        if i >= T:
            failed.add((i - T) % p)
            if len(failed) == p:
                break
    return scanned


def clamped(seq, eta, i):
    """Window i up to max(i, T) + p - 1, where it holds a whole period."""
    return range(i, min(eta.f(i), max(i, seq.tail_start) + seq.period - 1) + 1)


class Spy(SequenceSpec):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "calls", [])

    def pairs(self, lo, hi, cap):
        self.calls.extend(range(lo, hi + 1))
        return super().pairs(lo, hi, cap)


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), F_text=st.sampled_from(
    ["n+1", "n+3", "2n+1", "3n+2"]), eps=epsilons,
    E=st.sets(st.integers(0, 40), min_size=1, max_size=8))
def test_rate_check_reads_each_needed_value_once(seq, F_text, eps, E):
    spy = Spy(prefix=seq.prefix, tail=seq.tail)
    eta = parse_f_expression(F_text)
    rate_witness(spy, eps, eta, E)
    scanned = literal_scan(seq, eps, eta, sorted(E))
    assert max(spy.calls) <= eta.f(max(E))
    # exactly the union of the scanned clamped windows, each index once
    assert sorted(spy.calls) == sorted(
        set().union(*(clamped(seq, eta, i) for i in scanned)))


@settings(max_examples=100, deadline=None)
@given(seq=sequences(), F_text=st.sampled_from(
    ["n+1", "n+4", "2n+1", "3n+2"]), eps=epsilons,
    E=st.sets(st.integers(0, 300), min_size=1, max_size=12))
def test_early_exit_on_sparse_rates_matches_literal(seq, F_text, eps, E):
    eta = parse_f_expression(F_text)
    E = sorted(E)
    assert rate_witness(seq, eps, eta, E) == literal_witness(seq, eps, eta, E)


@settings(max_examples=100, deadline=None)
@given(seq=sequences(), F_text=st.sampled_from(
    ["n+1", "n+4", "2n+1", "3n+2"]), eps=epsilons,
    start=st.integers(0, 12), step=st.integers(1, 6))
def test_huge_range_rate_matches_literal(seq, F_text, eps, start, step):
    # the literal scan covers the range's first 40 indices, far past where
    # every window repeats one already seen
    eta = parse_f_expression(F_text)
    spy = Spy(prefix=seq.prefix, tail=seq.tail)
    E = range(start, 2 ** 40, step)
    assert rate_witness(spy, eps, eta, E) == \
        literal_witness(seq, eps, eta, E[:40])
    # the first index past T, then p windows at most, each clamped
    assert max(spy.calls) <= max(start, seq.tail_start) + \
        seq.period * (step + 1) - 2


@st.composite
def runs_of_ties(draw):
    """Values from {-1, -1/2, 0, 1/2, 1} (or tuples of them) in runs of
    up to six equal values, so the deques meet ties at every push."""
    dim = draw(st.sampled_from([0, 0, 2, 3]))
    scalar = st.builds(F, st.integers(-2, 2), st.just(2))
    value = scalar if dim == 0 else st.tuples(*[scalar] * dim)
    runs = draw(st.lists(st.tuples(value, st.integers(1, 6)),
                         min_size=1, max_size=6))
    prefix = tuple(v for v, length in runs for _ in range(length))
    period = draw(st.integers(0, min(len(prefix), 5)))
    return SequenceSpec(prefix=prefix,
                        tail=Periodic(period) if period else Constant())


@settings(max_examples=200, deadline=None)
@given(seq=runs_of_ties(), F_text=st.sampled_from(
    ["n+1", "n+2", "n+5", "2n+1", "3n+2"]),
    E=st.sets(st.integers(0, 60), min_size=1, max_size=10))
def test_every_window_matches_osc_segment(seq, F_text, E):
    # sparse E: a window can start past everything read so far, and most
    # windows reach past the prefix into the tail
    eta, E = parse_f_expression(F_text), sorted(E)
    windows = list(netcore._window_oscs(seq, eta, E, E[-1]))
    assert [i for i, _, _ in windows] == E
    for i, n, d in windows:
        assert F(n, d) == osc_segment(seq, eta.eta(i))


@st.composite
def periodic_tails(draw):
    scalar = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    prefix = draw(st.lists(scalar, min_size=2, max_size=12))
    period = draw(st.integers(2, len(prefix)))
    return SequenceSpec(prefix=tuple(prefix), tail=Periodic(period))


@settings(max_examples=200, deadline=None)
@given(seq=periodic_tails(), F_text=st.sampled_from(["n+1", "n+2", "2n+1"]),
       eps=epsilons, start=st.integers(0, 14), step=st.integers(2, 6))
# tail (0, 0, 1) from T = 0 under n+1 at eps 0: window 1 fails past T,
# then window 3 is the witness; with step 3 window 1's residue is the
# only one the range reaches, so its failure ends the search
@example(seq=SequenceSpec(prefix=(F(0), F(0), F(1)), tail=Periodic(3)),
         F_text="n+1", eps=F(0), start=1, step=2)
@example(seq=SequenceSpec(prefix=(F(0), F(0), F(1)), tail=Periodic(3)),
         F_text="n+1", eps=F(0), start=1, step=3)
def test_first_witness_on_stepped_ranges_past_the_tail(seq, F_text, eps,
                                                       start, step):
    # E[:60] runs far past the first index at or past T, and then through
    # every residue mod p the range reaches
    eta, E = parse_f_expression(F_text), range(start, 2 ** 40, step)
    assert netcore._first_witness(seq, _eps_pair(eps), eta, E) == \
        literal_witness(seq, eps, eta, E[:60])


@settings(max_examples=150, deadline=None)
@given(seq=sequences())
def test_pairs_are_the_values(seq):
    # past the prefix too: two full periods of the tail
    top = len(seq.prefix) + 2 * seq.period
    for j, point in enumerate(seq.pairs(0, top, top)):
        value = seq.value(j)
        assert all(d > 0 for _, d in point)
        assert tuple(F(n, d) for n, d in point) == \
            (value if isinstance(value, tuple) else (value,))
    assert seq.diameter() == seq.bound == osc_points(seq.prefix)


@settings(max_examples=150, deadline=None)
@given(seq=sequences(), eta=samplings(), i=st.integers(0, TABLE_TOP))
def test_epsilon_at_an_oscillation_is_its_boundary(seq, eta, i):
    osc = osc_segment(seq, eta.eta(i))
    assert rate_witness(seq, osc, eta, {i}) == i
    below = osc - F(1, 10 ** 30)
    if below < 0:
        with pytest.raises(ValueError):
            rate_witness(seq, below, eta, {i})
    else:
        assert rate_witness(seq, below, eta, {i}) is None


def best_seconds(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_harmonic_prefix_costs_no_common_denominator():
    # the lcm of 1..10**4 has about 14 400 bits: scaling every value to it
    # costs ten literal diameters or more to build.  A path over Fractions
    # (the literal diameter, then a scan comparing Fractions) costs about
    # one to build and five to build and scan, so the bounds allow twice.
    harmonic = tuple(F(1, n) for n in range(1, 10 ** 4 + 1))
    reference = best_seconds(lambda: osc_points(harmonic))
    build = best_seconds(lambda: SequenceSpec(prefix=harmonic))
    seq = SequenceSpec(prefix=harmonic)
    # eps = 0: every window [i, i+1] before the constant tail fails
    scan = best_seconds(
        lambda: check_rate(seq, 0, affine_sampling(1), range(10 ** 4)))
    assert rate_witness(seq, 0, affine_sampling(1), range(10 ** 4)) == 9999
    assert build < 3 * reference
    assert build + scan < 10 * reference
