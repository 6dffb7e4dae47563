import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastable import (
    MalformedInput,
    NotStrictlyIncreasing,
    Sampling,
    SamplingDomainError,
    affine_sampling,
    explicit_sampling,
    parse_f_expression,
    sampling_from_json,
    sampling_to_json,
)


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

    @pytest.mark.parametrize("key", ["a", "0", -1, True])
    def test_non_natural_key_refused(self, key):
        with pytest.raises(ValueError):
            explicit_sampling({key: (1,)})

    @pytest.mark.parametrize("entry", ["b", -1, True])
    def test_non_natural_entry_refused(self, entry):
        with pytest.raises(ValueError):
            explicit_sampling({0: (0, entry)})

    def test_empty_window_rejected(self):
        with pytest.raises(SamplingDomainError, match="empty window at 1"):
            explicit_sampling({0: (0, 1), 1: ()})

    def test_window_below_its_index_refused(self):
        with pytest.raises(SamplingDomainError,
                           match="window at 2 reads index 0"):
            explicit_sampling({0: (0,), 2: (0, 2)})

    def test_missing_index_is_a_lazy_error(self):
        eta = explicit_sampling({0: (0, 3), 1: (1,)})
        assert eta.eta(0) == (0, 3) and eta.max_index(0) == 3
        with pytest.raises(SamplingDomainError, match="no window at 5"):
            eta.eta(5)

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

    @pytest.mark.parametrize("table, key", [
        ({"1": [1], "01": [2]}, "'01'"),
        ({"\u0661": [1]}, "'\u0661'"),
    ])
    def test_non_canonical_key_refused(self, table, key):
        # "01" and "1" would name one window, and "\u0661" (Arabic-Indic
        # one) passes str.isdecimal: neither may stand for an index
        with pytest.raises(MalformedInput, match=key):
            sampling_from_json({"sampling": table})

    def test_canonical_keys_accepted(self):
        eta = sampling_from_json({"sampling": {"0": [0], "10": [10, 12]}})
        assert eta.table == {0: (0,), 10: (10, 12)}

    @settings(max_examples=60)
    @given(data=st.one_of(
        st.tuples(st.integers(1, 4), st.integers(1, 5)).map(
            lambda kc: parse_f_expression(f"{kc[0]}n+{kc[1]}")),
        st.sets(st.integers(0, 12), max_size=6).flatmap(
            lambda keys: st.fixed_dictionaries({
                i: st.sets(st.integers(i, i + 8), min_size=1, max_size=4)
                for i in keys})).map(explicit_sampling),
    ))
    def test_json_roundtrip_is_identity(self, data):
        again = sampling_from_json(json.loads(json.dumps(sampling_to_json(data))))
        assert again == data and again.key == data.key

    def test_validate_function_on_support(self):
        eta = affine_sampling(2)
        for i in range(11):
            assert eta.eta(i) == (i, i + 1, i + 2)
            assert eta.max_index(i) == i + 2

    @settings(max_examples=40)
    @given(k=st.integers(1, 5), c=st.integers(1, 5), sup=st.integers(0, 20))
    def test_function_samplings_always_validate(self, k, c, sup):
        eta = parse_f_expression(f"{k}n+{c}")
        for i in range(sup + 1):
            assert eta.eta(i) == tuple(range(i, k * i + c + 1))
            assert eta.max_index(i) > i
