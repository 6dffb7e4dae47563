import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metastable as ms
import metastable.henson as h
import metastable.cli as cli
import metastable.generators as generators
from metastable.cli import build_parser, main


@pytest.fixture
def workdir(tmp_path):
    seq = ms.SequenceSpec(
        prefix=(0, F(3, 10), F(1, 2), F(3, 5), F(13, 20)), tail=ms.Constant()
    )
    (tmp_path / "s.json").write_text(json.dumps(ms.sequence_to_json(seq)))

    sig = h.Signature(sorts=("X",), constants={"b": "X"}, anchors={"X": "a"})
    data = h.line_sort({"pa": 0, "pb": 1}, anchor="pa")
    M = h.FiniteStructure(sig, {"X": data}, {"a": "pa", "b": "pb"})
    (tmp_path / "m.json").write_text(json.dumps(h.structure_to_json(M)))

    mu = ms.MeasureStructure(("w1", "w2"), {"w1": "1/3", "w2": "2/3"},
                             "probability")
    (tmp_path / "mu.json").write_text(json.dumps(ms.measure_to_json(mu)))
    f = ms.LInfFunction({"w1": 3, "w2": 0})
    (tmp_path / "f.json").write_text(json.dumps(ms.linf_to_json(f)))

    fam = ms.DirectedFamily(
        measure=ms.MeasureStructure(("w1", "w2"),
                                    {"w1": "1/2", "w2": "1/2"}, "probability"),
        slices={
            "w1": ms.SequenceSpec(prefix=(1, -1), tail=ms.Periodic(2)),
            "w2": ms.SequenceSpec(prefix=(-1, 1), tail=ms.Periodic(2)),
        },
    )
    (tmp_path / "fam.json").write_text(json.dumps(ms.family_to_json(fam)))
    return tmp_path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_holds(self, workdir, capsys):
        code, out = run(["analyze", "--seq", str(workdir / "s.json"),
                         "--eps", "1/2", "--F", "n+1", "--E", "0..2"], capsys)
        assert code == 0
        assert "rate holds, witness i=0" in out

    def test_fails(self, workdir, capsys):
        code, out = run(["analyze", "--seq", str(workdir / "s.json"),
                         "--eps", "0", "--F", "n+1", "--E", "0,1"], capsys)
        assert code == 1
        assert "rate fails" in out

    def test_json_roundtrip_through_rate(self, workdir, capsys, tmp_path):
        code, out = run(["rate", "monotone", "--eps", "1/2", "--F", "n+1",
                         "--json"], capsys)
        assert code == 0
        rate_file = tmp_path / "rate.json"
        rate_file.write_text(out)
        code, out = run(["analyze", "--seq", str(workdir / "s.json"),
                         "--eps", "1/2", "--F", "n+1",
                         "--E", f"@{rate_file}", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True and report["E"] == [0, 1, 2]

    def test_missing_file_usage_error(self, workdir, capsys):
        code = main(["analyze", "--seq", str(workdir / "nope.json"),
                     "--eps", "1", "--F", "n+1", "--E", "0"])
        assert code == 2

    def test_inline_explicit_sampling(self, workdir, capsys):
        eta = json.dumps({"sampling": {"0": [0, 1], "1": [1, 2], "2": [2, 3]}})
        code, out = run(["analyze", "--seq", str(workdir / "s.json"),
                         "--eps", "1/2", "--F", eta, "--E", "0..2"], capsys)
        assert code == 0 and "witness i=0" in out

    def test_affine_json_sampling(self, workdir, capsys):
        code, _ = run(["analyze", "--seq", str(workdir / "s.json"),
                       "--eps", "1/2", "--F", '{"F": {"affine": {"w": 2}}}',
                       "--E", "0..3"], capsys)
        assert code == 0

    def test_csv_ingestion(self, tmp_path, capsys):
        csv_file = tmp_path / "seq.csv"
        csv_file.write_text("0\n1/3\n1/2\n1/2\n")
        code, out = run(["analyze", "--seq", str(csv_file),
                         "--eps", "1/3", "--F", "n+1", "--E", "0..3"], capsys)
        assert code == 0 and "rate holds" in out


class TestRate:
    def test_monotone_print(self, capsys):
        code, out = run(["rate", "monotone", "--eps", "2/5", "--F", "2n+1"],
                        capsys)
        assert code == 0
        assert "E={0..7}" in out
        code, out = run(["rate", "monotone", "--eps", "2/5", "--F", "2n+1",
                         "--json"], capsys)
        assert code == 0 and json.loads(out)["E"] == list(range(8))

    def test_bad_f_spec(self, capsys):
        code = main(["rate", "monotone", "--eps", "1/2", "--F", "n"])
        assert code == 2


class TestLogic:
    def test_check_approx(self, workdir, capsys):
        code, _ = run(["logic", "check", "--structure", str(workdir / "m.json"),
                       "--formula", "d(b,a) <= 1", "--mode", "approx"], capsys)
        assert code == 0

    def test_check_fails(self, workdir, capsys):
        code, _ = run(["logic", "check", "--structure", str(workdir / "m.json"),
                       "--formula", "d(b,a) <= 1/2", "--mode", "discrete"],
                      capsys)
        assert code == 1

    def test_assignment(self, workdir, capsys):
        code, _ = run(["logic", "check", "--structure", str(workdir / "m.json"),
                       "--formula", "d(x,a) >= 1", "--assign", "x=pb"], capsys)
        assert code == 0

    @pytest.mark.parametrize("mode", ["approx", "discrete"])
    def test_assignment_to_a_non_point(self, workdir, capsys, mode):
        code = main(["logic", "check", "--structure", str(workdir / "m.json"),
                     "--formula", "d(x, a) <= 1", "--assign", "x=zz",
                     "--mode", mode])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: variable 'x' = 'zz' is not a point of "
                       "sort 'X'\n")

    def test_assignment_to_a_real_variable(self, workdir, capsys):
        argv = ["logic", "check", "--structure", str(workdir / "m.json"),
                "--formula", "add(x, 1) <= 2", "--assign"]
        assert main(argv + ["x=1/2"]) == 0
        assert main(argv + ["x=3/2"]) == 1
        assert main(argv + ["x=zz"]) == 2
        assert capsys.readouterr().err == "error: not a rational: 'zz'\n"

    def test_parse_roundtrip(self, workdir, capsys):
        code, out = run(["logic", "parse", "--structure",
                         str(workdir / "m.json"),
                         "--formula", "(d(x,a)<=1 & d(x,a)>=1)"], capsys)
        assert code == 0
        assert out.strip() == "(d(x, a) <= 1 & d(x, a) >= 1)"

    def test_metric_arity_exit_2(self, workdir, capsys):
        code = main(["logic", "check", "--structure", str(workdir / "m.json"),
                     "--formula", "d(x) <= 1"])
        assert code == 2
        assert capsys.readouterr().err == "error: d takes two arguments\n"

    def test_parse_error_exit_2(self, workdir, capsys):
        code = main(["logic", "check", "--structure", str(workdir / "m.json"),
                     "--formula", "d(x, a) <="])
        assert code == 2


class TestMeasure:
    def test_audit(self, workdir, capsys):
        code, out = run(["measure", "audit", "--file", str(workdir / "mu.json")],
                        capsys)
        assert code == 0
        assert "PASS probability: total variation 1" in out

    def test_audit_of_family_not_closed_under_intersection(self, tmp_path,
                                                           capsys):
        # {a, b} & {b, c} = {b} is missing: the audit reports it and exits 1
        (tmp_path / "mu.json").write_text(json.dumps({
            "omega": ["a", "b", "c"], "weights": {"a": 1, "b": 1, "c": 1},
            "algebra": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]}))
        code, out = run(["measure", "audit", "--file",
                         str(tmp_path / "mu.json"), "--json"], capsys)
        assert code == 1
        report = json.loads(out)
        failed = {c["clause"]: c["witness"] for c in report["clauses"]
                  if not c["ok"]}
        assert failed["closed under intersection"] == "{a, b} ∩ {b, c}"
        assert report["total_variation_audit"] == "3"
        assert report["total_variation_fast"] == "3"

    def test_integrate(self, workdir, capsys):
        code, out = run(["measure", "integrate", "--file",
                         str(workdir / "mu.json"),
                         "--function", str(workdir / "f.json")], capsys)
        assert code == 0
        assert "I(f) = 1" in out

    def test_measurable(self, workdir, capsys):
        code, out = run(["measure", "measurable", "--file",
                         str(workdir / "mu.json"),
                         "--function", str(workdir / "f.json"),
                         "--u", "1", "--v", "2"], capsys)
        assert code == 0
        assert "w2" in out


class TestDct:
    def test_check(self, workdir, capsys):
        code, out = run(["dct", "check", "--family", str(workdir / "fam.json"),
                         "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["holds"] and report["lhs"] == "0" and report["rhs"] == "2"

    def test_search(self, capsys):
        code, out = run(["dct", "search", "--F", "n+1", "--eps", "1,1/2",
                         "--count", "10", "--horizon", "8", "--seed", "4",
                         "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["feasible"]
        assert report["rates"]["1/2"] == [0, 1]

    def test_search_infeasible(self, capsys):
        code, out = run(["dct", "search", "--F", "n+1", "--eps", "1/10",
                         "--count", "0", "--horizon", "2", "--seed", "4"],
                        capsys)
        assert code == 1
        assert "infeasible" in out

    def test_search_without_horizon_is_exact(self, capsys):
        search = ["dct", "search", "--F", "2n+1", "--eps", "1/8",
                  "--count", "2", "--seed", "1"]
        code, out = run(search, capsys)
        assert code == 0 and out == "eps=1/8: E={0..127}\n"
        code, out = run(search + ["--horizon", "96"], capsys)
        assert code == 1 and out.startswith("infeasible within horizon 96")

    def test_oversized_staircase_refused_unbuilt(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("staircase built")

        monkeypatch.setattr(generators, "staircase_sequence", build)
        err = usage_error(["dct", "search", "--F", "2n+1", "--eps", "1/22",
                           "--count", "0"], capsys)
        assert "MAX_RATE_SIZE" in err

    @pytest.mark.parametrize("flag", ["--count", "--horizon"])
    def test_negative_count_or_horizon_exit_2(self, flag, capsys):
        err = usage_error(["dct", "search", "--F", "n+1", "--eps", "1/2",
                           flag, "-1"], capsys)
        assert "must be >= 0, got -1" in err

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("METASTABLE_SEED", "4")
        code, from_env = run(["dct", "search", "--F", "n+1", "--eps", "1/2",
                              "--count", "10", "--horizon", "8", "--json"],
                             capsys)
        assert code == 0
        code, from_flag = run(["dct", "search", "--F", "n+1", "--eps", "1/2",
                               "--count", "10", "--horizon", "8",
                               "--seed", "4", "--json"], capsys)
        assert code == 0
        assert json.loads(from_env) == json.loads(from_flag)


class TestLazyHenson:
    def test_cli_import_leaves_henson_out(self):
        src = str(Path(ms.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys, metastable.cli\n"
                  "assert 'metastable.henson' not in sys.modules\n"
                  "from metastable import henson\n"
                  "assert henson.parse_formula\n"
                  "assert metastable.cli.satisfies is henson.satisfies\n")
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_logic_handlers_call_replaced_names(self, workdir, capsys):
        calls = []
        original = cli.satisfies

        def spy(*args):
            calls.append(args)
            return original(*args)

        cli.satisfies = spy
        try:
            code, _ = run(["logic", "check", "--structure",
                           str(workdir / "m.json"), "--formula", "d(b,a) <= 1",
                           "--mode", "discrete"], capsys)
        finally:
            cli.satisfies = original
        assert code == 0 and len(calls) == 1


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_leak_between_parses(self):
        parser = build_parser()
        first = parser.parse_args(["dct", "search", "--F", "n+1", "--eps", "1",
                                   "--seed", "4", "--json"])
        second = parser.parse_args(["dct", "search", "--F", "n+2",
                                    "--eps", "1/2"])
        assert (first.seed, first.json, first.F) == (4, True, "n+1")
        assert (second.seed, second.json, second.F) == (None, False, "n+2")
        assert not hasattr(second, "seq")

    def test_consecutive_commands(self, workdir, capsys):
        seq = str(workdir / "s.json")
        code, out = run(["analyze", "--seq", seq, "--eps", "1/2", "--F", "n+1",
                         "--E", "0..2", "--json"], capsys)
        assert code == 0 and json.loads(out)["witness"] == 0
        code, out = run(["rate", "monotone", "--eps", "2/5", "--F", "2n+1"],
                        capsys)
        assert code == 0 and out.strip() == "E={0..7}"
        code, out = run(["analyze", "--seq", seq, "--eps", "0", "--F", "n+1",
                         "--E", "1"], capsys)
        assert code == 1 and out.splitlines()[0] == "rate fails"
        code, out = run(["measure", "integrate", "--file",
                         str(workdir / "mu.json"), "--function",
                         str(workdir / "f.json")], capsys)
        assert code == 0 and out.strip() == "I(f) = 1"


def usage_error(args, capsys):
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


class TestMalformedInput:
    def analyze(self, seq_path, capsys, F="n+1", E="0..2"):
        return usage_error(["analyze", "--seq", str(seq_path), "--eps", "1/2",
                            "--F", F, "--E", E], capsys)

    def test_prefix_not_a_list(self, tmp_path, capsys):
        (tmp_path / "s.json").write_text('{"prefix": 5}')
        assert "prefix" in self.analyze(tmp_path / "s.json", capsys)

    def test_top_level_list(self, tmp_path, capsys):
        (tmp_path / "s.json").write_text('["0", "1"]')
        assert "JSON object" in self.analyze(tmp_path / "s.json", capsys)

    def test_bad_tail(self, tmp_path, capsys):
        (tmp_path / "s.json").write_text(
            '{"prefix": ["0", "1"], "tail": {"period": [2]}}')
        assert "tail" in self.analyze(tmp_path / "s.json", capsys)

    def test_csv_two_values_on_a_line(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("0\n1/2,3/4\n")
        assert "line 2" in self.analyze(tmp_path / "s.csv", capsys)

    def test_empty_explicit_window(self, workdir, capsys):
        eta = json.dumps({"sampling": {"0": [0, 1], "1": []}})
        err = self.analyze(workdir / "s.json", capsys, F=eta, E="0,1")
        assert "empty window at 1" in err

    def test_explicit_window_below_its_index(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("0\n1\n0\n")
        eta = json.dumps({"sampling": {"2": [0]}})
        err = self.analyze(tmp_path / "s.csv", capsys, F=eta, E="2")
        assert "window at 2 reads index 0" in err

    def test_rate_index_missing_from_table(self, workdir, capsys):
        eta = json.dumps({"sampling": {"0": [0, 1]}})
        err = self.analyze(workdir / "s.json", capsys, F=eta, E="0,5")
        assert "no window at 5" in err

    @pytest.mark.parametrize("table, message", [
        ({"0": [0, 1], "1": []}, "empty window at 1"),
        ({"0": [0, 1], "2": [0]}, "window at 2 reads index 0"),
    ])
    def test_malformed_table_outside_the_rate(self, workdir, capsys,
                                              table, message):
        eta = json.dumps({"sampling": table})
        err = self.analyze(workdir / "s.json", capsys, F=eta, E="0")
        assert message in err

    def test_rate_file_not_a_list(self, workdir, tmp_path, capsys):
        (tmp_path / "E.json").write_text("5")
        err = self.analyze(workdir / "s.json", capsys,
                           E=f"@{tmp_path / 'E.json'}")
        assert "list of integers" in err

    @pytest.mark.parametrize("F, field", [
        ('{"sampling": [1]}', '"sampling"'),
        ('{"sampling": {"0": 5}}', '"sampling"'),
        ('{"F": {"x": 1}}', '"F"'),
        ('{"F": {"affine": {"w": "a"}}}', '"F.affine.w"'),
    ])
    def test_malformed_sampling(self, workdir, capsys, F, field):
        assert field in self.analyze(workdir / "s.json", capsys, F=F)

    @pytest.mark.parametrize("F", ["n", "2n", "0n+1", '{"F": "2n"}',
                                   '{"F": {"affine": {"w": 0}}}'])
    def test_non_increasing_sampling(self, workdir, capsys, F):
        self.analyze(workdir / "s.json", capsys, F=F)

    @pytest.mark.parametrize("doc, field", [
        ('{"omega": 5, "weights": {}}', '"omega"'),
        ('{"weights": {}}', '"omega"'),
        ('{"omega": ["a"], "weights": [1]}', '"weights"'),
        ('{"omega": ["a"], "weights": {"a": 1}, "algebra": [[["a"]]]}',
         '"algebra"'),
        ("[1]", "JSON object"),
    ])
    def test_malformed_measure(self, tmp_path, capsys, doc, field):
        (tmp_path / "mu.json").write_text(doc)
        err = usage_error(["measure", "audit", "--file",
                           str(tmp_path / "mu.json")], capsys)
        assert field in err

    @pytest.mark.parametrize("doc, field", [
        ("[1]", "JSON object"),
        ('{"measure": 5, "slices": {}}', '"measure"'),
        ('{"measure": {"omega": ["a"], "weights": {"a": 1}}, "slices": [1]}',
         '"slices"'),
        ('{"measure": {"omega": 5}, "slices": {}}', '"omega"'),
    ])
    def test_malformed_family(self, tmp_path, capsys, doc, field):
        (tmp_path / "fam.json").write_text(doc)
        err = usage_error(["dct", "check", "--family",
                           str(tmp_path / "fam.json")], capsys)
        assert field in err

    @pytest.mark.parametrize("doc, field", [
        ("[1]", "JSON object"),
        ('{"sorts": {"X": {"points": 3}}}', '"sorts.X.points"'),
        ('{"sorts": {"X": {"points": ["p"], "metric": [[0, 1]], '
         '"anchor": "p"}}}', '"sorts.X.metric"'),
        ('{"sorts": {"X": {"points": ["p"], "metric": [[0]]}}}',
         '"sorts.X.anchor"'),
        ('{"sorts": {}, "functions": {"h": {"domain": "X"}}}',
         '"functions.h.domain"'),
        ('{"sorts": {}, "anchor_constants": {"X": ["a"]}}',
         '"anchor_constants.X"'),
        ('{"sorts": {}, "functions": {"k": {"domain": [], "range": "R"}}}',
         '"functions.k.value" is missing'),
        ('{"sorts": {"X": {"points": ["p"], "metric": [["0"]], "anchor": "p"}},'
         ' "functions": {"f": {"domain": ["X"], "range": "X", '
         '"table": {"p": "p", "p|p": "p"}}}}', "'f' table key ('p', 'p')"),
    ])
    def test_malformed_structure(self, tmp_path, capsys, doc, field):
        (tmp_path / "m.json").write_text(doc)
        err = usage_error(["logic", "check", "--structure",
                           str(tmp_path / "m.json"), "--formula", "1 <= 1"],
                          capsys)
        assert field in err

    @pytest.mark.parametrize("doc, field", [
        ("[1]", '"values"'),
        ("5", '"values"'),
        ('{"values": 5}', '"values"'),
    ])
    def test_malformed_function(self, workdir, tmp_path, capsys, doc, field):
        (tmp_path / "f.json").write_text(doc)
        err = usage_error(["measure", "integrate", "--file",
                           str(workdir / "mu.json"), "--function",
                           str(tmp_path / "f.json")], capsys)
        assert field in err

    @pytest.mark.parametrize("F, key", [
        ('{"sampling": {"1": [1], "01": [2]}}', "'01'"),
        ('{"sampling": {"\u0661": [1]}}', "'\u0661'"),
    ])
    def test_non_canonical_sampling_key(self, workdir, capsys, F, key):
        assert key in self.analyze(workdir / "s.json", capsys, F=F, E="1")

    def test_negative_epsilon(self, workdir, capsys):
        err = usage_error(["analyze", "--seq", str(workdir / "s.json"),
                           "--eps", "-1", "--F", "n+1", "--E", "0"], capsys)
        assert "epsilon must be >= 0, got -1" in err

    def test_negative_rate_index(self, workdir, capsys):
        err = usage_error(["analyze", "--seq", str(workdir / "s.json"),
                           "--eps", "1/2", "--F", "n+1", "--E=-3,1"], capsys)
        assert "index -3 not in" in err


def refusal(value) -> str:
    """The error line parse_rational's refusal of value prints."""
    with pytest.raises(ValueError) as info:
        ms.parse_rational(value)
    return f"error: {info.value}\n"


class TestMemoisedLoaders:
    """The loaders parse each distinct value string once per document; the
    values they return and the refusals they print are those of
    parse_rational on each entry."""

    TEXTS = st.sampled_from(["0", "1", "-2", "1/2", "2/4", "0.5", " 3/7 ",
                             "1e2", "-15e-1", "7"])
    # every value in [1, 2]: any such table is a metric
    DISTANCES = st.sampled_from(["1", "2", "3/2", "6/4", "1.5", " 2 ", "1e0",
                                 "15e-1", "7/5"])
    BAD = [True, [1], {}, "x/0", "1e9999"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(texts=st.lists(TEXTS | st.integers(-3, 3), min_size=2,
                          max_size=12), points=st.booleans())
    def test_sequence_values(self, texts, points):
        prefix = [texts[i:i + 2] for i in range(0, len(texts) - 1, 2)] \
            if points else texts
        expected = tuple(tuple(map(ms.parse_rational, v)) if points
                         else ms.parse_rational(v) for v in prefix)
        assert ms.sequence_from_json({"prefix": prefix}).prefix == expected
        if not points:
            csv = "\n".join(map(str, texts))
            assert ms.sequence_from_csv(csv).prefix == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), data=st.data())
    def test_structure_values(self, n, data):
        pts = [f"p{i}" for i in range(n)]
        matrix = [["0"] * n for _ in pts]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = data.draw(self.DISTANCES)
        table = {p: data.draw(self.TEXTS) for p in pts}
        value = data.draw(self.TEXTS | st.integers(-3, 3))
        M = h.structure_from_json({
            "sorts": {"X": {"points": pts, "metric": matrix, "anchor": "p0"}},
            "functions": {"s": {"domain": ["X"], "range": "R", "table": table},
                          "k": {"domain": [], "range": "R", "value": value}}})
        assert all(M.metric("X", a, b) == ms.parse_rational(matrix[i][j])
                   for i, a in enumerate(pts) for j, b in enumerate(pts))
        assert all(M.interp("s", (p,)) == ms.parse_rational(t)
                   for p, t in table.items())
        assert M.interp("k") == ms.parse_rational(value)

    @pytest.mark.parametrize("earlier", ["1", 1, "same"], ids=repr)
    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_bad_prefix_entry(self, tmp_path, capsys, bad, earlier):
        # the bad entry at 2; "1", 1 or the same entry read at 0
        prefix = [bad if earlier == "same" else earlier, "1/2", bad, "1"]
        k = 0 if earlier == "same" else 2
        (tmp_path / "s.json").write_text(json.dumps({"prefix": prefix}))
        err = usage_error(["analyze", "--seq", str(tmp_path / "s.json"),
                           "--eps", "1/2", "--F", "n+1", "--E", "0"], capsys)
        if isinstance(bad, (bool, dict)):
            assert err == (f"error: prefix entry {k} is neither a value nor "
                           f"a list of values: {bad!r}\n")
        elif isinstance(bad, list):
            assert err == "error: mixed scalar/tuple values, or an empty point\n"
        else:
            assert err == refusal(bad)
            (tmp_path / "s.csv").write_text("\n".join(map(str, prefix)))
            assert usage_error(["analyze", "--seq", str(tmp_path / "s.csv"),
                                "--eps", "1/2", "--F", "n+1", "--E", "0"],
                               capsys) == refusal(bad)

    @pytest.mark.parametrize("where", ["cell", "table", "constant"])
    @pytest.mark.parametrize("earlier", ["1", 1, "same"], ids=repr)
    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_bad_structure_value(self, tmp_path, capsys, bad, earlier, where):
        # "1" fills the matrix and the table before the bad value, and cell
        # (0, 1) holds "1", 1 or the same value
        matrix = [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]
        table = {"p": "1", "q": "1", "r": "1"}
        value = "1"
        matrix[0][1] = bad if earlier == "same" else earlier
        if where == "cell":
            matrix[1][2] = bad
        elif where == "table":
            table["r"] = bad
        else:
            value = bad
        (tmp_path / "m.json").write_text(json.dumps({
            "sorts": {"X": {"points": ["p", "q", "r"], "metric": matrix,
                            "anchor": "p"}},
            "functions": {"s": {"domain": ["X"], "range": "R", "table": table},
                          "k": {"domain": [], "range": "R", "value": value}}}))
        err = usage_error(["logic", "check", "--structure",
                           str(tmp_path / "m.json"), "--formula", "k <= 1"],
                          capsys)
        assert err == refusal(bad)


class TestExactIngestion:
    """Decimal literals in any file the CLI loads are read exactly."""

    def test_decimal_sequence(self, tmp_path, capsys):
        (tmp_path / "s.json").write_text(
            '{"prefix": [0.1, 0.5], "tail": {"period": 2}}')
        code, out = run(["analyze", "--seq", str(tmp_path / "s.json"),
                         "--eps", "1/2", "--F", "n+1", "--E", "0..3",
                         "--json"], capsys)
        assert code == 0 and json.loads(out)["osc_total"] == "2/5"

    def test_decimal_measure_and_function(self, tmp_path, capsys):
        (tmp_path / "mu.json").write_text(
            '{"omega": ["w1", "w2"], "weights": {"w1": 0.1, "w2": 0.9}, '
            '"kind": "probability"}')
        (tmp_path / "f.json").write_text('{"w1": 0.5, "w2": 0}')
        code, out = run(["measure", "integrate", "--file",
                         str(tmp_path / "mu.json"), "--function",
                         str(tmp_path / "f.json")], capsys)
        assert code == 0 and out.strip() == "I(f) = 1/20"

    def test_decimal_family(self, tmp_path, capsys):
        (tmp_path / "fam.json").write_text(
            '{"measure": {"omega": ["w1"], "weights": {"w1": 1.0}, '
            '"kind": "probability"}, "slices": {"w1": {"prefix": [0.3, 0.1], '
            '"tail": {"period": 2}}}}')
        code, out = run(["dct", "check", "--family",
                         str(tmp_path / "fam.json"), "--json"], capsys)
        assert code == 0 and json.loads(out)["lhs"] == "1/5"


VALID_SEQUENCES = [
    '{"prefix": [0.1, 0.5], "tail": {"period": 2}}',
    '{"prefix": ["0", "1/2", [1, 2]]}',
    '{"prefix": [[0, 1], [1, 0]], "bound": 1, "mode": "float"}',
    "0\n0.5\n1/3\n",
]
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
                | st.floats(width=16) | st.text(max_size=4))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["prefix", "tail", "bound", "period", "constant",
                         "mode"]), inner, max_size=3),
    max_leaves=8,
).map(json.dumps)


VALID_MEASURES = [
    '{"omega": ["w1", "w2"], "weights": {"w1": 0.5, "w2": "1/2"}, '
    '"kind": "probability"}',
    '{"omega": ["w1", "w2"], "weights": {"w1": -1, "w2": 2}, '
    '"algebra": [[], ["w1", "w2"]], "kind": "signed"}',
]
VALID_FAMILIES = [
    '{"measure": {"omega": ["w1"], "weights": {"w1": 1}}, '
    '"slices": {"w1": {"prefix": [0.3, 0.1], "tail": {"period": 2}}}}',
]
MEASURE_SCALARS = JSON_SCALARS | st.sampled_from(
    ["w1", "w2", "powerset", "probability", "finite", "signed"])
MEASURE_KEYS = ["omega", "weights", "algebra", "kind", "anchor", "bound",
                "w1", "w2", "measure", "slices", "norm_phi", "prefix", "tail"]
MEASURE_DOCS = st.recursive(
    MEASURE_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(MEASURE_KEYS), inner, max_size=4),
    max_leaves=12,
).map(json.dumps)


VALID_STRUCTURES = [json.dumps(h.structure_to_json(h.FiniteStructure(
    h.Signature(sorts=("X",), constants={"b": "X"}, anchors={"X": "a"}),
    {"X": h.line_sort({"pa": 0, "pb": 1}, anchor="pa")},
    {"a": "pa", "b": "pb"})))]
STRUCTURE_KEYS = ["sorts", "functions", "anchor_constants", "X", "points",
                  "metric", "anchor", "domain", "range", "value", "table",
                  "a", "b"]
STRUCTURE_DOCS = st.recursive(
    JSON_SCALARS | st.sampled_from(["X", "pa", "pb", "a", "b", "real"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(STRUCTURE_KEYS), inner, max_size=4),
    max_leaves=12,
).map(json.dumps)
VALID_FUNCTIONS = ['{"values": {"w1": 3, "w2": 0}}', '{"w1": 0.5, "w2": "1/2"}']


def near(valid, max_size):
    """Either a well-formed argument or arbitrary short text."""
    return st.sampled_from(valid) | st.text(max_size=max_size)


def exit_code(args, content, name):
    """Exit code and stderr of the CLI on `args` plus a file holding
    `content`, whose path is appended to the arguments."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(args + [path])
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


class TestFuzz:
    # derandomized so that tier-1 runs the same examples every time; short
    # texts keep any index or coefficient they spell small enough to check
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        content=st.sampled_from(VALID_SEQUENCES) | JSON_DOCS
        | st.text(max_size=12),
        csv=st.booleans(),
        F=near(["n+1", "2n+1", '{"sampling": {"0": [0, 1], "1": [1]}}',
                '{"F": {"affine": {"w": 2}}}', '{"F": "3n+2"}'], 8),
        E=near(["0..3", "0,2", "1"], 5),
        eps=near(["1/2", "0", "1/3", "0.25"], 8),
    )
    def test_analyze_exits_0_1_or_2(self, content, csv, F, E, eps):
        code, err = exit_code(
            ["analyze", f"--F={F}", f"--E={E}", f"--eps={eps}", "--seq"],
            content, "s.csv" if csv else "s.json")
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(content=st.sampled_from(VALID_MEASURES) | MEASURE_DOCS
           | st.text(max_size=12))
    def test_measure_audit_exits_0_1_or_2(self, content):
        code, err = exit_code(["measure", "audit", "--file"], content,
                              "mu.json")
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(content=st.sampled_from(VALID_FAMILIES) | MEASURE_DOCS
           | st.text(max_size=12))
    def test_dct_check_exits_0_1_or_2(self, content):
        code, err = exit_code(["dct", "check", "--family"], content,
                              "fam.json")
        assert code in (0, 1, 2)
        assert "Traceback" not in err


    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(content=st.sampled_from(VALID_STRUCTURES) | STRUCTURE_DOCS
           | st.text(max_size=12),
           formula=near(["d(b,a) <= 1", "1 <= 1"], 8))
    def test_logic_check_exits_0_1_or_2(self, content, formula):
        code, err = exit_code(["logic", "check", f"--formula={formula}",
                               "--structure"], content, "m.json")
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(content=st.sampled_from(VALID_FUNCTIONS) | MEASURE_DOCS
           | st.text(max_size=12))
    def test_measure_integrate_exits_0_1_or_2(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            mu = os.path.join(tmp, "mu.json")
            with open(mu, "w", encoding="utf-8") as fh:
                fh.write(VALID_MEASURES[0])
            code, err = exit_code(["measure", "integrate", "--file", mu,
                                   "--function"], content, "f.json")
        assert code in (0, 1, 2)
        assert "Traceback" not in err


class TestRateCeiling:
    def test_monotone_rate_refused(self, capsys):
        err = usage_error(["rate", "monotone", "--eps", "1/40", "--F", "2n+1"],
                          capsys)
        assert str(ms.netcore.MAX_RATE_SIZE) in err

    def test_rate_range_refused(self, workdir, capsys):
        err = usage_error(["analyze", "--seq", str(workdir / "s.json"),
                           "--eps", "1/2", "--F", "n+1",
                           "--E", f"0..{2 ** 40}"], capsys)
        assert str(2 ** 40 + 1) in err

    def test_library_raises_before_building(self):
        with pytest.raises(ms.RateTooLarge):
            ms.monotone_uniform_rate(F(1, 40), ms.parse_f_expression("2n+1"))
        with pytest.raises(ms.RateTooLarge):
            ms.netcore.rate_interval(3, 3 + ms.netcore.MAX_RATE_SIZE)
        assert ms.netcore.rate_interval(3, 5) == range(3, 6)

    def test_benchmark_sized_rate_still_built(self):
        # eps = 1/16 under 2n+1 is the largest rate the benchmark asks for
        E = ms.monotone_uniform_rate(F(1, 16), ms.parse_f_expression("2n+1"))
        assert len(E) == 2 ** 16 < ms.netcore.MAX_RATE_SIZE


class TestInputCaps:
    def test_long_window_answers_fast(self, tmp_path, capsys):
        # window 9 of 1000000n+1 is read only up to where the tail repeats
        (tmp_path / "s.csv").write_text("0\n1\n")
        start = time.perf_counter()
        code, out = run(["analyze", "--seq", str(tmp_path / "s.csv"),
                         "--eps", "1/2", "--F", "1000000n+1", "--E", "9"],
                        capsys)
        assert time.perf_counter() - start < 1
        assert code == 0 and out.startswith("rate holds, witness i=9\n")

    def test_huge_decimal_exponent_refused_fast(self):
        for text in ("1e9999999", "1e-9999999", "1E" + "9" * 5000):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="MAX_DECIMAL_EXPONENT"):
                ms.parse_rational(text)
            assert time.perf_counter() - start < 0.1
        assert ms.parse_rational("2.5e2") == 250
        assert ms.parse_rational("1e-3") == F(1, 1000)
        assert ms.parse_rational("1e4300") == 10 ** 4300

    def test_huge_exponent_exits_2(self, workdir, tmp_path, capsys):
        usage_error(["analyze", "--seq", str(workdir / "s.json"),
                     "--eps", "1e9999999", "--F", "n+1", "--E", "0"], capsys)
        (tmp_path / "s.json").write_text('{"prefix": [0, 1e9999999]}')
        err = usage_error(["analyze", "--seq", str(tmp_path / "s.json"),
                           "--eps", "1/2", "--F", "n+1", "--E", "0"], capsys)
        assert "MAX_DECIMAL_EXPONENT" in err
