import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastable import (
    AnchorNotLeast,
    NotDirected,
    NotPartialOrder,
    NotStrictlyIncreasing,
    Sampling,
    affine_sampling,
    directed_set_from_json,
    directed_set_to_json,
    explicit_sampling,
    make_finite_directed,
    make_nat,
    parse_f_expression,
    sampling_from_json,
    sampling_to_json,
    validate_sampling,
)


def chain3():
    return make_finite_directed(
        ["0", "1", "2"], [("0", "1"), ("1", "2"), ("0", "2")], "0"
    )


class TestDirectedSet:
    def test_nat(self):
        nat = make_nat()
        assert nat.is_nat
        assert nat.anchor == 0
        assert nat.leq(3, 7)
        assert not nat.leq(7, 3)
        for n in (0, 5, 100):
            assert nat.leq(nat.anchor, n)

    def test_chain_is_directed(self):
        assert chain3().leq("0", "2")

    def test_antichain_rejected(self):
        with pytest.raises(NotDirected):
            make_finite_directed(["a", "b"], [], "a")

    def test_diamond_ok(self):
        d = make_finite_directed(
            ["bot", "x", "y", "top"],
            [("bot", "x"), ("bot", "y"), ("bot", "top"),
             ("x", "top"), ("y", "top")],
            "bot",
        )
        assert not d.leq("x", "y") and not d.leq("y", "x")
        assert d.leq("x", "top") and d.leq("y", "top")

    def test_antisymmetry(self):
        with pytest.raises(NotPartialOrder):
            make_finite_directed(["a", "b"], [("a", "b"), ("b", "a")], "a")

    def test_transitivity(self):
        with pytest.raises(NotPartialOrder):
            make_finite_directed(
                ["a", "b", "c"],
                [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")], "a",
            )

    def test_anchor_not_least(self):
        with pytest.raises(AnchorNotLeast):
            make_finite_directed(["0", "1"], [("0", "1")], "1")

    def test_json_roundtrip(self):
        d = chain3()
        assert directed_set_from_json(directed_set_to_json(d)) == d
        assert directed_set_from_json(directed_set_to_json(make_nat())).is_nat


class TestSampling:
    def test_interval_windows(self):
        eta = affine_sampling(1)
        assert eta.eta(3) == (3, 4)

    def test_doubling_windows(self):
        eta = parse_f_expression("2n+1")
        assert eta.eta(0) == (0, 1)
        assert eta.eta(2) == (2, 3, 4, 5)

    def test_identity_rejected(self):
        with pytest.raises(NotStrictlyIncreasing):
            parse_f_expression("n")

    @pytest.mark.parametrize("text", ["n", "2n", "0n+1", "n+0", "2n+0"])
    def test_non_increasing_refused(self, text):
        with pytest.raises((NotStrictlyIncreasing, ValueError)):
            parse_f_expression(text)

    def test_data_fields(self):
        eta = parse_f_expression(" 3n + 2 ")
        assert (eta.k, eta.c, eta.table) == (3, 2, None)
        assert eta == Sampling(k=3, c=2) and eta.key == "3n+2"
        assert eta.f(4) == 14
        assert affine_sampling(2).key == "n+2"
        with pytest.raises(ValueError):
            Sampling(k=1, c=1, table={0: (0,)})
        with pytest.raises(ValueError):
            Sampling()

    def test_validate_explicit_singletons(self):
        d = chain3()
        eta = explicit_sampling({e: {e} for e in d.elements})
        assert validate_sampling(eta, d)

    def test_validate_tail_violation(self):
        d = chain3()
        eta = explicit_sampling({"0": {"2"}, "1": {"0"}, "2": {"2"}})
        report = validate_sampling(eta, d)
        assert not report
        assert report.bad_index == "1"

    def test_validate_function_on_support(self):
        eta = affine_sampling(2)
        assert validate_sampling(eta, make_nat(), support=range(11))

    def test_empty_window_rejected(self):
        d = chain3()
        eta = explicit_sampling({"0": set(), "1": {"1"}, "2": {"2"}})
        report = validate_sampling(eta, d)
        assert not report and report.bad_index == "0"

    def test_json_roundtrip(self):
        eta = explicit_sampling({0: (0, 1), 1: (1, 3)})
        again = sampling_from_json(sampling_to_json(eta))
        assert again.eta(1) == (1, 3)
        aff = sampling_from_json({"F": {"affine": {"w": 2}}})
        assert aff.eta(4) == (4, 5, 6)
        assert sampling_from_json({"F": {"affine": {"w": 2, "from": 7}}}) == aff
        parsed = sampling_from_json({"F": "2n+1"})
        assert parsed.eta(2) == (2, 3, 4, 5)
        assert sampling_to_json(parsed) == {"F": "2n+1"}
        assert sampling_to_json(aff) == {"F": "n+2"}

    @settings(max_examples=60)
    @given(data=st.one_of(
        st.tuples(st.integers(1, 4), st.integers(1, 5)).map(
            lambda kc: parse_f_expression(f"{kc[0]}n+{kc[1]}")),
        st.dictionaries(st.integers(0, 12),
                        st.sets(st.integers(0, 20), max_size=4),
                        max_size=6).map(explicit_sampling),
    ))
    def test_json_roundtrip_is_identity(self, data):
        again = sampling_from_json(json.loads(json.dumps(sampling_to_json(data))))
        assert again == data and again.key == data.key

    @settings(max_examples=40)
    @given(w=st.integers(1, 5), c=st.integers(0, 4), sup=st.integers(0, 20))
    def test_function_samplings_always_validate(self, w, c, sup):
        eta = parse_f_expression(f"{w}n+{max(c, 1)}")
        report = validate_sampling(eta, make_nat(), support=range(sup + 1))
        assert report
        for i in range(sup + 1):
            window = eta.eta(i)
            assert min(window) >= i and len(window) >= 1
