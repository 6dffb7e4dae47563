"""The closed-form measure audits against their literal pair loops."""

import time
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

import literal_measure as literal
from metastable.measure import (
    KINDS,
    LInfFunction,
    MeasureStructure,
    audit_integration,
    audit_preloeb,
    total_variation,
)

LABELS = st.permutations(list("abcdef"))
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
BOUNDS = st.none() | st.builds(Fraction, st.integers(0, 12), st.integers(1, 2))


def subsets(omega):
    return [frozenset(c) for k in range(len(omega) + 1)
            for c in combinations(omega, k)]


def closed(family, op):
    """The closure of a family under a binary set operation."""
    out = set(family)
    while True:
        more = {op(A, B) for A in out for B in out} - out
        if not more:
            return out
        out |= more


@st.composite
def omegas(draw, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    # labels in an order other than the alphabetical one in which witnesses
    # print them, so a witness found in the wrong order shows
    return tuple(draw(LABELS)[:n])


@st.composite
def measures(draw, explicit):
    omega = draw(omegas())
    weights = {w: draw(RATIONALS) for w in omega}
    algebra = draw(families(omega)) if explicit else None
    return MeasureStructure(omega, weights, draw(st.sampled_from(KINDS)),
                            algebra=algebra, bound=draw(BOUNDS))


@st.composite
def families(draw, omega):
    """An explicit family: an algebra of a random partition, with or without
    some sets added or removed; an arbitrary set of subsets; or such a set
    closed under union or intersection.  Every closure clause fails on
    some of them."""
    power = subsets(omega)
    style = draw(st.sampled_from(["algebra", "mutated", "arbitrary",
                                  "intersections", "unions"]))
    if style in ("algebra", "mutated"):
        block = [draw(st.integers(0, len(omega) - 1)) for _ in omega]
        parts = [frozenset(w for w, b in zip(omega, block) if b == k)
                 for k in set(block)]
        family = {frozenset().union(*chosen) for k in range(len(parts) + 1)
                  for chosen in combinations(parts, k)}
        if style == "mutated":
            family -= set(draw(st.lists(st.sampled_from(sorted(
                family, key=sorted)), max_size=2)))
            family |= set(draw(st.lists(st.sampled_from(power), max_size=2)))
    else:
        family = set(draw(st.lists(st.sampled_from(power), max_size=12)))
        if style == "intersections":
            family = closed(family, frozenset.intersection)
        elif style == "unions":
            family = closed(family, frozenset.union)
    return tuple(draw(st.permutations(sorted(family, key=sorted))))


@st.composite
def functions(draw, omega):
    count = draw(st.integers(0, 4))
    lo = draw(st.sampled_from([-4, 0]))
    return [LInfFunction({w: draw(st.builds(Fraction, st.integers(lo, 4),
                                            st.integers(1, 3)))
                          for w in omega}) for _ in range(count)]


class TestAuditPreloebOracle:
    @settings(max_examples=120, deadline=None)
    @given(M=measures(explicit=False))
    def test_powerset(self, M):
        oracle = literal.audit_preloeb(M)
        assert audit_preloeb(M).entries == literal.without_identities(oracle)
        assert total_variation(M, audit=True) == literal.literal_sup(M)

    @settings(max_examples=150, deadline=None)
    @given(M=measures(explicit=True))
    def test_explicit(self, M):
        oracle = literal.audit_preloeb(M)
        assert audit_preloeb(M).entries == literal.without_identities(oracle)
        assert (total_variation(M, audit=True)
                == literal.audit_total_variation(M))

    def test_negative_mass_first_witness(self):
        # mu(Omega) < 0: the empty set is already heavier
        M = MeasureStructure(("b", "a"), {"b": -1, "a": 0}, "finite")
        entries = {e.clause: e for e in audit_preloeb(M).entries}
        assert entries["0 <= mu(A)"].witness == "mu({b}) = -1"
        assert entries["mu(A) <= mu(Omega)"].witness == "mu({}) = 0"
        # the first pair in powerset order, not the heaviest set
        M = MeasureStructure(("c", "b", "a", "d"),
                             {"c": 1, "b": 3, "a": 2, "d": -2}, "finite")
        entries = {e.clause: e for e in audit_preloeb(M).entries}
        assert entries["mu(A) <= mu(Omega)"].witness == "mu({a, b}) = 5"


class TestAuditIntegrationOracle:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_kind_and_family(self, data):
        M = data.draw(measures(explicit=data.draw(st.booleans())))
        fs = data.draw(functions(M.omega))
        oracle = literal.audit_integration(M, fs)
        assert (audit_integration(M, fs).entries
                == literal.without_identities(oracle))


class TestAuditCost:
    def test_twenty_atom_powerset(self):
        omega = tuple(f"w{i:02d}" for i in range(20))
        M = MeasureStructure(omega, {w: Fraction(1, 20) for w in omega},
                             "probability")
        start = time.perf_counter()
        assert audit_preloeb(M).ok
        assert time.perf_counter() - start < 1

    def test_explicit_algebra_of_1024_sets(self):
        omega = tuple(f"w{i}" for i in range(10))
        M = MeasureStructure(omega, {w: Fraction(1, 10) for w in omega},
                             "probability", algebra=tuple(subsets(omega)))
        start = time.perf_counter()
        assert audit_preloeb(M).ok
        assert total_variation(M, audit=True) == 1
        assert time.perf_counter() - start < 2

    def test_intersection_closed_family_of_1023_sets(self):
        # every subset of 10 atoms but one 9-set: closed under intersection,
        # not under union, so the total variation is the literal pair sup
        omega = tuple(f"w{i}" for i in range(10))
        family = [A for A in subsets(omega) if A != frozenset(omega[:9])]
        weights = {w: Fraction(i + 1, 3 * i + 7) for i, w in enumerate(omega)}
        weights["w3"] = -weights["w3"]
        M = MeasureStructure(omega, weights, "signed", algebra=tuple(family))
        start = time.perf_counter()
        report = audit_preloeb(M)
        tv = total_variation(M, audit=True)
        assert time.perf_counter() - start < 2
        assert not report.ok
        assert tv == sum(map(abs, weights.values()))
