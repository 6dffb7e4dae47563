"""The rate layer's answers on a fixed corpus of cases, pinned by digest.

`rate_corpus.json` holds one row per line: ["lib", call, digest] for a
library call, or ["cli", argv, files, digest] for a command.  A call is a
Python expression over the names in `NAMESPACE` (generators, samplings,
`Fraction` as F and `random.Random` as Random); `files` maps each file name
in argv to an expression for its content, a JSON value or, for a .csv
name, the text.  The rows were drawn by `draw_rows()` from a fixed seed and
written once from the code at commit 2d606b1.  A row that no longer matches
is a change in what the program answers.

The digest is the first 16 hex digits of the sha-256 of `repr` of the
result ((passed, index) for an audit), of "class|message" for a refusal,
or of (exit code, stdout, stderr) for a command.

    PYTHONPATH=src python tests/test_rate_corpus.py --full

checks every row.  `--write` draws the rows again and overwrites the file;
run it only for a deliberate behaviour change, and list each changed case
family in CHANGES.md.  Never regenerate the file to hide a difference.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from metastable import (
    MetastableError,
    Sampling,
    SequenceSpec,
    brute_min_uniform_rate,
    check_rate,
    family_to_json,
    format_rational,
    metastable_witness,
    monotone_uniform_rate,
    osc_eta_exact,
    rate_witness,
    sequence_to_json,
    uniform_rate_audit,
)
from metastable.cli import main as cli_main
from metastable.generators import (
    alternating_sequence,
    random_coherent_family,
    random_monotone_family,
    random_monotone_sequence,
    random_tail_sequence,
    staircase_family,
    staircase_sequence,
    step_sequence,
)
from metastable.netcore import AuditResult, _grid_witnesses

CORPUS = Path(__file__).with_name("rate_corpus.json")
SEED = 2026
# the tier-1 test checks every STRIDE-th row; --full checks them all
STRIDE = 2


def csv_text(seq: SequenceSpec) -> str:
    return "".join(f"{format_rational(v)}\n" for v in seq.prefix)


NAMESPACE = {"__builtins__": {}, "range": range, "F": Fraction,
             "Random": random.Random, "Sampling": Sampling,
             "csv_text": csv_text}
NAMESPACE.update((f.__name__, f) for f in (
    alternating_sequence, brute_min_uniform_rate, check_rate, family_to_json,
    metastable_witness, monotone_uniform_rate, osc_eta_exact,
    random_coherent_family, random_monotone_family, random_monotone_sequence,
    random_tail_sequence, rate_witness, sequence_to_json, staircase_family,
    staircase_sequence, step_sequence, uniform_rate_audit, _grid_witnesses))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lib_digest(call: str) -> str:
    try:
        result = eval(call, NAMESPACE)
    except (MetastableError, ValueError, KeyError, IndexError) as err:
        return _digest(f"{type(err).__name__}|{err}")
    if isinstance(result, AuditResult):
        result = (result.passed, result.index)
    return _digest(repr(result))


def cli_digest(argv: list, files: dict) -> str:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            value = eval(content, NAMESPACE)
            Path(tmp, name).write_text(
                value if name.endswith(".csv") else json.dumps(value))
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    return _digest(repr((code, out.getvalue(), err.getvalue())))


def row_digest(row: list) -> str:
    return lib_digest(row[1]) if row[0] == "lib" else cli_digest(*row[1:3])


def mismatches(rows: list) -> list:
    found = []
    for row in rows:
        got = row_digest(row)
        if got != row[-1]:
            found.append(f"{row[:-1]!r}: recorded {row[-1]}, now {got}")
    return found


def load_rows() -> list:
    return json.loads(CORPUS.read_text())


def test_rate_corpus_subset_is_unchanged():
    rows = load_rows()
    assert len(rows) > 2000
    bad = mismatches(rows[::STRIDE])
    assert not bad, "\n".join(bad[:20])


# -- drawing the cases -----------------------------------------------------------


def draw_rows(rng: random.Random) -> list:
    """The corpus cases, without digests, in a fixed order."""
    pick = rng.choice
    seqs = (
        [f"random_monotone_sequence(Random({s}))" for s in range(30)]
        + [f"random_monotone_sequence(Random({s}), max_prefix=40, "
           f"max_den=64)" for s in range(10)]
        # denominators 1..3 in [0, 1]: long runs of equal values
        + [f"random_monotone_sequence(Random({s}), max_prefix=30, max_den=3)"
           for s in range(10)]
        + [f"random_tail_sequence(Random({s}))" for s in range(30)]
        + [f"random_tail_sequence(Random({s}), max_prefix=20, max_period=7)"
           for s in range(15)]
        + [f"random_tail_sequence(Random({s}), max_den=2)" for s in range(15)]
        + [f"random_tail_sequence(Random({s}), dim={d})"
           for s in range(10) for d in (2, 3)]
        + [f"staircase_sequence(F(1, {e}), Sampling(k={k}, c={c}))"
           for e in range(2, 9) for k, c in ((1, 1), (1, 3), (2, 1))]
        + [f"step_sequence({m})" for m in range(5)]
        + ["step_sequence(3, F(1, 2), F(-1, 3))", "alternating_sequence()",
           "alternating_sequence(F(1, 3), F(1, 4))"])
    linear = [(1, 1), (1, 2), (1, 3), (1, 5), (2, 1), (2, 3), (3, 2)]

    def table():
        keys = sorted(rng.sample(range(16), rng.randint(1, 7)))
        return {i: tuple(sorted({i} | set(rng.sample(range(i, i + 8),
                                                     rng.randint(0, 4)))))
                for i in keys}

    def sampling():
        if rng.random() < 0.2:
            t = table()
            return f"Sampling(table={t!r})", sorted(t)
        return "Sampling(k={}, c={})".format(*pick(linear)), None

    def eps():
        d = rng.randint(1, 12)
        return pick([f"F({rng.randint(0, d)}, {d})"] * 8
                    + ["0", "F(-1, 3)", f"'{rng.randint(1, d)}/{d}'"])

    def rate(keys):
        if keys is not None and rng.random() < 0.85:
            return repr(set(rng.sample(keys, rng.randint(1, len(keys)))))
        a, s = rng.randint(0, 20), rng.randint(1, 6)
        return pick([f"range({rng.randint(1, 40)})",
                     f"range({a}, {a + rng.randint(1, 40)})",
                     f"range({a}, {a + rng.randint(1, 60)}, {s})",
                     f"range({a}, 2**40, {s})",
                     repr(set(rng.sample(range(50), rng.randint(1, 6))))])

    def ascending(keys):
        E = eval(rate(keys), NAMESPACE)
        return E if isinstance(E, range) else sorted(E)

    rows = []
    for seq in seqs:
        for _ in range(2):
            eta, _keys = sampling()
            rows.append(["lib", f"osc_eta_exact({seq}, {eta})"])
    for _ in range(3000):
        seq, (eta, keys) = pick(seqs), sampling()
        call = pick(["rate_witness"] * 3 + ["check_rate"])
        rows.append(["lib", f"{call}({seq}, {eps()}, {eta}, {rate(keys)})"])
    for _ in range(800):
        seq, (eta, _keys) = pick(seqs), sampling()
        rows.append(["lib", f"metastable_witness({seq}, {eps()}, {eta}, "
                            f"{rng.randint(0, 40)})"])

    def family():
        a = rng.randint(0, 5000)
        member = pick(["random_monotone_sequence(Random(s))",
                       "random_monotone_sequence(Random(s), max_den=4)",
                       "random_tail_sequence(Random(s))"])
        return f"[{member} for s in range({a}, {a + rng.randint(0, 200)})]"

    for _ in range(600):
        eta, keys = sampling()
        e = eps()
        E = pick([f"monotone_uniform_rate({e}, {eta})", rate(keys)])
        rows.append(["lib", f"uniform_rate_audit({family()}, {e}, {eta}, {E})"])
    for a in (0, 1000):
        for F_text in ("Sampling(k=1, c=2)", "Sampling(k=2, c=1)"):
            rows.append(["lib", "uniform_rate_audit([random_monotone_sequence("
                         f"Random(s)) for s in range({a}, {a + 1000})], "
                         f"F(1, 4), {F_text}, monotone_uniform_rate(F(1, 4), "
                         f"{F_text}))"])
    for _ in range(500):
        eta, _keys = sampling()
        horizon = pick(["", f", horizon={rng.randint(0, 30)}", ", -1"])
        rows.append(["lib", f"brute_min_uniform_rate({family()}, {eps()}, "
                            f"{eta}{horizon})"])
    for _ in range(1200):
        seq, (eta, keys) = pick(seqs), sampling()
        pairs = [(d - rng.randint(1, d), d) for d in
                 (rng.randint(1, 12) for _ in range(rng.randint(1, 4)))]
        if rng.random() < 0.5 and keys is None:
            top = rng.randint(1, 60)
            sets = sorted((range(rng.randint(1, top)) for _ in pairs),
                          key=len, reverse=rng.random() < 0.5)
        else:
            sets = [ascending(keys) for _ in pairs]
        rates = ", ".join(f"({p!r}, {E!r})" for p, E in zip(pairs, sets))
        rows.append(["lib", f"_grid_witnesses({seq}, {eta}, [{rates}])"])

    # commands, on files written from the same generators
    scalar = [s for s in seqs if "dim=" not in s]
    for _ in range(400):
        seq = pick(scalar if rng.random() < 0.9 else seqs)
        files = {"s.json": f"sequence_to_json({seq})"}
        # a CSV file declares no tail: the monotone, staircase and step ones
        if "tail" not in seq and rng.random() < 0.3:
            files = {"s.csv": f"csv_text({seq})"}
        eta, keys = sampling()
        F_arg = json.dumps({"sampling": {str(i): list(w) for i, w in
                                         eval(eta, NAMESPACE).table.items()}}) \
            if keys is not None else eval(eta, NAMESPACE).key
        E = eval(rate(keys), NAMESPACE)
        head = list(E[:30]) if isinstance(E, range) else sorted(E)[:30]
        if isinstance(E, range) and E.step == 1 and len(E) < 1000:
            E_arg = f"{E.start}..{E.stop - 1}"
        elif rng.random() < 0.5:
            E_arg = ",".join(map(str, head))
        else:
            E_arg, files["e.json"] = "@e.json", repr(head)
        argv = ["analyze", "--seq", next(iter(files)), "--eps",
                pick(["1/3", "1/2", "0", "2", "0.25", "1/10", "-1", "3/7"]),
                "--F", F_arg, "--E", E_arg] + pick([[], ["--json"]])
        rows.append(["cli", argv, files])
    for e in ("1", "1/2", "2/5", "1/3", "1/5", "1/8", "0.2", "1/30", "0", "-1",
              "x"):
        for F_arg in ("n+1", "n+3", "2n+1", "3n+2", "0n+1",
                      '{"sampling": {"0": [0]}}'):
            for flags in ([], ["--json"]):
                rows.append(["cli", ["rate", "monotone", "--eps", e, "--F",
                                     F_arg] + flags, {}])
    for s in range(80):
        fam = pick([f"random_coherent_family(Random({s}))",
                    f"random_monotone_family(Random({s}), n_omega=3)",
                    f"staircase_family(F(1, {s % 5 + 2}), Sampling(k=1, c=2))"])
        rows.append(["cli", ["dct", "check", "--family", "f.json"]
                     + pick([[], ["--json"]]),
                     {"f.json": f"family_to_json({fam})"}])
    for _ in range(200):
        F_arg = pick(["n+1", "n+2", "2n+1", "3n+1"])
        finest = 9 if F_arg == "3n+1" else 12
        argv = ["dct", "search", "--F", F_arg,
                "--eps", ",".join(f"1/{d}" for d in sorted(
                    rng.sample(range(2, finest), rng.randint(1, 3)))),
                "--count", str(rng.randint(0, 25)),
                "--seed", str(rng.randint(0, 99)),
                "--omega", str(rng.randint(1, 3))]
        if rng.random() < 0.5:
            argv += ["--horizon", str(rng.randint(0, 80))]
        rows.append(["cli", argv + pick([[], ["--json"]]), {}])
    return rows


def write(rows: list) -> None:
    lines = [json.dumps(row + [row_digest(row)], ensure_ascii=False)
             for row in rows]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write(draw_rows(random.Random(SEED)))
    elif sys.argv[1:] == ["--full"]:
        all_rows = load_rows()
        failures = mismatches(all_rows)
        print("\n".join(failures) or f"{len(all_rows)} cases unchanged")
        sys.exit(1 if failures else 0)
    else:
        sys.exit(__doc__)
