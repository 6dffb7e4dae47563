"""Golden answers on fixed corpora of cases, pinned by digest.

Each corpus file holds one row per line: ["lib", call, digest] for a
library call, or ["cli", argv, files, digest] for a command.  A call is a
Python expression over the names in `NAMESPACE` (generators, samplings,
formula and measure helpers, `Fraction` as F and `random.Random` as
Random); `files` maps each file name in argv to an expression for its
content, a JSON value or, for a .csv name, the text.  A row that no longer
matches is a change in what the program answers.  There are two slices:

- `rate_corpus.json` ("rate"), drawn by `draw_rows()` and written once from
  the code at commit 2d606b1: the rate layer's library calls and the
  `analyze`, `rate monotone`, `dct check` and `dct search` commands.
- `logic_measure_corpus.json` ("logic-measure"), drawn by
  `draw_logic_measure_rows()` and written once from the code at commit
  595682d: `weak_negation`, `relax`, `is_approximation`, `free_vars`,
  `format_formula`, `critical_values` and both satisfaction relations on
  generator formulas and on two-sort trees with free and shadowed
  variables; `logic check` (both modes, `--json`, `--assign`) and `logic
  parse` on generator and window structures; `measure audit`, `integrate`
  and `measurable`; and one malformed document per field and bad-value
  shape for every loader (sequence JSON and CSV, sampling, rate file,
  measure, L-infinity function, family, structure).  Texts nest at most 200
  deep.  Rows drawn later are appended at the end of the drawing, so
  earlier draws stay fixed: `satisfaction_gap` under string assignments,
  assignments with two missing or bad variables, and functions that miss
  two or more sample points or carry an extra label.

Both slices end with the command line's own refusals and accepted
spellings (help, missing, unknown and abbreviated options, extra words,
`--`), written from the code at commit a9548d6.  A command runs with
COLUMNS=80, the width argparse wraps its usage and help text to.

The digest is the first 16 hex digits of the sha-256 of `repr` of the
result ((passed, index) for an audit), of "class|message" for a refusal,
or of (exit code, stdout, stderr) for a command.  A call whose result is a
set is written as `sorted(...)`, so that its digest does not depend on the
string hash seed.

    PYTHONPATH=src python tests/test_rate_corpus.py --full [SLICE]

checks every row of one slice ("rate" when none is named).  `--write
SLICE` draws the rows again and overwrites the slice's file; run it only
for a deliberate behaviour change, and list each changed case family in
CHANGES.md.  Never regenerate a file to hide a difference.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from metastable import (
    MeasureStructure,
    MetastableError,
    Sampling,
    SequenceSpec,
    brute_min_uniform_rate,
    check_rate,
    family_to_json,
    format_rational,
    linf_to_json,
    measure_to_json,
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
    random_finite_structure,
    random_formula,
    random_linf,
    random_monotone_family,
    random_monotone_sequence,
    random_positive_measure,
    random_probability_measure,
    random_signed_measure,
    random_tail_sequence,
    staircase_family,
    staircase_sequence,
    step_sequence,
)
from metastable.henson import (
    REAL,
    And,
    AtomGe,
    AtomLe,
    Const,
    Exists,
    Forall,
    Lit,
    Or,
    Signature,
    Var,
    apply,
    approx_satisfies,
    critical_values,
    encode_sequence_window,
    format_formula,
    free_vars,
    is_approximation,
    parse_formula,
    relax,
    satisfaction_gap,
    satisfies,
    structure_to_json,
    weak_negation,
    wneg_xi,
    xi_E,
)
from metastable.netcore import AuditResult, _grid_witnesses

CORPUS = Path(__file__).with_name("rate_corpus.json")
SEED = 2026
LOGIC_CORPUS = Path(__file__).with_name("logic_measure_corpus.json")
LOGIC_SEED = 2027
# the tier-1 tests check every STRIDE-th row; --full checks them all
STRIDE = 2

# the signature of generators.random_finite_structure
ONE = Signature(sorts=("X",), functions={"h": (("X",), REAL)},
                constants={"b": "X"}, anchors={"X": "a"})
TWO = Signature(sorts=("X", "Y"),
                functions={"f": (("X",), "Y"), "g": (("Y",), REAL),
                           "h": (("X", "Y"), REAL)},
                constants={"a": "X", "b": "Y"})
_RADII = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def tree(seed: int, depth: int):
    """A random formula over TWO whose variables x, y, z take either sort,
    so binders shadow names at the same sort and at the other one, and
    some occurrences stay free."""
    rng = random.Random(seed)

    def point(sort, d):
        roll = rng.random()
        if roll < 0.5:
            return Var(rng.choice("xyz"), sort)
        if sort == "Y" and d > 0 and roll < 0.7:
            return apply(TWO, "f", point("X", d - 1))
        return Const("a" if sort == "X" else "b", sort)

    def real(d):
        roll = rng.random()
        if d <= 0 or roll < 0.4:
            return pick_atom_term(d)
        if roll < 0.5:
            return Lit(Fraction(rng.randint(-4, 8), rng.randint(1, 4)))
        op = rng.choice(("add", "sub", "mul", "min", "max", "abs"))
        args = (real(d - 1),) if op == "abs" else (real(d - 1), real(d - 1))
        return apply(TWO, op, *args)

    def pick_atom_term(d):
        kind = rng.randrange(4)
        if kind == 0:
            return apply(TWO, "g", point("Y", d))
        if kind == 1:
            return apply(TWO, "h", point("X", d), point("Y", d))
        sort = "X" if kind == 2 else "Y"
        return apply(TWO, "d", point(sort, d), point(sort, d))

    def formula(d):
        roll = rng.random()
        if d > 0 and roll < 0.35:
            node = rng.choice((Exists, Forall))
            return node(rng.choice(_RADII), Var(rng.choice("xyz"),
                                                rng.choice("XY")),
                        formula(d - 1))
        if d > 0 and roll < 0.7:
            return rng.choice((And, Or))(formula(d - 1), formula(d - 1))
        bound = Fraction(rng.randint(-2, 6), rng.randint(1, 4))
        return rng.choice((AtomLe, AtomGe))(real(1), bound)

    return formula(depth)


# valid documents that the malformed ones of the logic-measure slice vary
STRUCTURE = {"sorts": {"X": {"points": ["p", "q"],
                             "metric": [["0", "1"], ["1", "0"]],
                             "anchor": "p"}},
             "functions": {"a": {"domain": [], "range": "X", "value": "p"}},
             "anchor_constants": {"X": "a"}}
MEASURE = {"omega": ["w0", "w1"], "weights": {"w0": "1/3", "w1": "2/3"},
           "algebra": "powerset", "kind": "probability"}


def explicit_measure(seed: int, n: int, blocks: int, kind: str,
                     broken: bool = False) -> MeasureStructure:
    """A measure on the algebra generated by a random partition into
    blocks; `broken` keeps only {} and the unions that hold the first
    block, so the family misses that block's complement."""
    rng = random.Random(seed)
    base = {"probability": random_probability_measure,
            "finite": random_positive_measure,
            "signed": random_signed_measure}[kind](rng, n)
    labels = list(base.omega)
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    parts = [frozenset(labels[a:b]) for a, b in zip([0] + cuts, cuts + [None])]
    sets = [frozenset().union(*(B for i, B in enumerate(parts) if m >> i & 1))
            for m in range(1 << blocks)]
    if broken:
        sets = [A for A in sets if parts[0] <= A or not A]
    return MeasureStructure(omega=base.omega, weights=base.weights, kind=kind,
                            algebra=tuple(sets))


def csv_text(seq: SequenceSpec) -> str:
    return "".join(f"{format_rational(v)}\n" for v in seq.prefix)


NAMESPACE = {"__builtins__": {}, "range": range, "F": Fraction,
             "Random": random.Random, "Sampling": Sampling,
             "csv_text": csv_text, "sorted": sorted, "dict": dict,
             "ONE": ONE, "TWO": TWO, "STRUCTURE": STRUCTURE, "MEASURE": MEASURE}
NAMESPACE.update((f.__name__, f) for f in (
    alternating_sequence, brute_min_uniform_rate, check_rate, family_to_json,
    metastable_witness, monotone_uniform_rate, osc_eta_exact,
    random_coherent_family, random_monotone_family, random_monotone_sequence,
    random_tail_sequence, rate_witness, sequence_to_json, staircase_family,
    staircase_sequence, step_sequence, uniform_rate_audit, _grid_witnesses,
    # the logic and measure slice
    approx_satisfies, critical_values, encode_sequence_window,
    explicit_measure, format_formula, free_vars, is_approximation,
    linf_to_json, measure_to_json, parse_formula, random_finite_structure,
    random_formula, random_linf, random_positive_measure,
    random_probability_measure, random_signed_measure, relax, satisfaction_gap,
    satisfies, structure_to_json, tree, weak_negation, wneg_xi, xi_E, And,
    AtomLe, Lit))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lib_digest(call: str) -> str:
    try:
        result = eval(call, NAMESPACE)
    except (MetastableError, ValueError, KeyError, IndexError,
            TypeError) as err:
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
            # argparse wraps usage and help text at the terminal width
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    mock.patch.dict(os.environ, COLUMNS="80"):
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


def load_rows(path: Path = CORPUS) -> list:
    return json.loads(path.read_text())


def test_rate_corpus_subset_is_unchanged():
    rows = load_rows()
    assert len(rows) > 2000
    bad = mismatches(rows[::STRIDE])
    assert not bad, "\n".join(bad[:20])


def test_logic_measure_corpus_subset_is_unchanged():
    rows = load_rows(LOGIC_CORPUS)
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
    rows += command_line_rows({
        ("analyze",): ["--seq", "s.json", "--eps", "1/2", "--F", "n+1",
                       "--E", "0..3"],
        ("rate", "monotone"): ["--eps", "2/5", "--F", "2n+1"],
        ("dct", "check"): ["--family", "f.json"],
        ("dct", "search"): ["--eps", "1/2,1/3", "--count", "2", "--seed", "1",
                            "--F", "2n+1"],
    }, {"s.json": "sequence_to_json(step_sequence(2))",
        "f.json": "family_to_json(random_coherent_family(Random(0)))"})
    return rows + [["cli", argv, {}] for argv in (
        [], ["frob"], ["-h"], ["rate", "frob"],
        ["dct", "search", "--F", "2n+1", "--eps", "1/2", "--count", "x"],
        ["dct", "search", "--F", "2n+1", "--eps", "1/2", "--h", "3"])]


def command_line_rows(commands: dict, files: dict) -> list:
    """The command line's own refusals and accepted spellings, around one
    well-formed option list per command (its first option longer than
    four characters): help at each level, the group word alone, a missing
    option, an unknown or misplaced one, an extra word, `--` before, inside
    and after the command words, `--opt=value` and an abbreviation."""
    argvs = {}
    for words, opts in commands.items():
        group, tail = words[:1], words[1:]
        for argv in (
                [*words, "-h"], [*group, "-h"], [*group], [*words, *opts[:-2]],
                [*words, *opts, "--bogus"], ["--json", *words, *opts],
                [*words, *opts, "extra"], [*words, *opts, "-h", "extra"],
                ["--", *words, *opts], [*group, "--", *tail, *opts],
                [*words, "--", *opts], [*words, *opts, "--"],
                [*words, f"{opts[0]}={opts[1]}", *opts[2:]],
                [*words, opts[0][:4], *opts[1:]]):
            argvs.setdefault(tuple(argv), argv)
    return [["cli", argv, files] for argv in argvs.values()]


def draw_logic_measure_rows(rng: random.Random) -> list:
    """The logic-measure cases, without digests, in a fixed order."""
    pick = rng.choice
    rows = []

    def lib(call):
        rows.append(["lib", call])

    def cli(argv, files=None):
        rows.append(["cli", argv, files or {}])

    # the formula calculus on generator formulas and structures
    deltas = ["F(1, 3)", "1", "'1/2'", "F(1, 8)", "F(5, 2)"]
    for s in range(120):
        depth = 1 + s % 4
        phi = f"random_formula(Random({s}), ONE, {depth})"
        M = f"random_finite_structure(Random({s}), {2 + s % 5})"
        d = pick(deltas)
        other = pick([phi, f"weak_negation({phi})",
                      f"random_formula(Random({s + 1}), ONE, {depth})"])
        lib(f"format_formula({phi})")
        lib(f"weak_negation({phi})")
        lib(f"relax({phi}, {pick(deltas + ['0', 'F(-1, 4)', repr('x')])})")
        lib(f"is_approximation({phi}, relax({phi}, {d}))")
        lib(f"is_approximation(relax({phi}, {d}), {phi})")
        lib(f"is_approximation({phi}, {other})")
        lib(f"sorted(critical_values({M}, {phi}))")
        lib(f"{pick(['satisfies', 'approx_satisfies'])}({M}, {phi})")
    # two-sort trees: free variables, binders shadowing at either sort
    fractions = [f"F({a}, {b})" for a, b in ((1, 8), (1, 4), (1, 2), (1, 1),
                                              (3, 2), (3, 1))]
    for s in range(200):
        depth = 1 + s % 5
        t = f"tree({s}, {depth})"
        small, large = sorted(rng.sample(fractions, 2),
                              key=lambda q: eval(q, NAMESPACE))
        other = pick([t, f"tree({s + 1}, {depth})", f"weak_negation({t})",
                      f"weak_negation(relax({t}, {large}))"])
        lib(f"sorted(free_vars({t}))")
        lib(f"sorted(free_vars(weak_negation({t})))")
        lib(f"format_formula({t})")
        lib(f"weak_negation({t})")
        lib(f"relax({t}, {small})")
        lib(f"is_approximation(relax({t}, {small}), relax({t}, {large}))")
        lib(f"is_approximation({t}, {other})")
    # free variables bound by an assignment
    texts = ["d(x, a) <= 1", "(d(x, b) <= 1/2 | h(x) >= 0)",
             "E 1 y. d(x, y) <= 1", "A 2 x. (d(x, a) <= 1 & h(x) >= -1)",
             "(E 1 x. h(x) >= 0 & d(x, b) <= 1)", "add(r, h(b)) <= 1",
             "(max(r, h(x)) >= 1/2 | d(x, a) <= 0)", "mul(r, r) <= 2",
             "E 3/2 r. d(r, x) <= 1"]
    assignments = [{}, {"x": "p0"}, {"x": "p1", "r": "1/2"}, {"x": "zz"},
                   {"r": "x"}, {"x": "p0", "r": 3}, {"r": "-1/3"},
                   {"x": "zz", "r": "1"}, {"x": "p2", "r": "x"}]
    for text in texts:
        free = {v for v in ("x", "r") if re.search(rf"\b{v}\b", text)}
        if re.match(r"[EA] [0-9/]+ (\w)\.", text):
            free.discard(re.match(r"[EA] [0-9/]+ (\w)\.", text)[1])
        for k, env in enumerate(assignments):
            # at most one variable missing or bad; the rows with two are
            # drawn at the end
            bad = [v for v in free if env.get(v, "zz") in ("zz", "x")]
            if len(bad) > 1:
                continue
            M = f"random_finite_structure(Random({k}), 3)"
            call = pick(["satisfies", "approx_satisfies", "critical_values"])
            expr = f"{call}({M}, parse_formula({text!r}, ONE), {env!r})"
            lib(f"sorted({expr})" if call == "critical_values" else expr)
    for call in ["weak_negation(1)", "format_formula('x')",
                 "sorted(free_vars(None))", "relax(Lit(1), 1)",
                 "is_approximation(3, 3)",
                 "is_approximation(AtomLe(Lit(1), 2), 3)",
                 "is_approximation(AtomLe(Lit(1), 2), AtomLe(Lit(1), 3))",
                 "weak_negation(And(AtomLe(Lit(1), 2), 5))",
                 "sorted(free_vars(And(AtomLe(Lit(1), 2), 'x')))",
                 "format_formula(And(AtomLe(Lit(1), 2), None))",
                 "relax(And(AtomLe(Lit(1), 2), 5), 1)",
                 "is_approximation(And(AtomLe(Lit(1), 2), 5), "
                 "And(AtomLe(Lit(1), 3), 5))"]:
        lib(call)

    # logic check and parse on generator structures
    modes = [[], ["--mode", "discrete"], ["--mode", "approx"]]
    for s in range(260):
        files = {"m.json": "structure_to_json(random_finite_structure("
                           f"Random({s}), {2 + s % 6}))"}
        text = format_formula(eval(f"random_formula(Random({s + 5000}), ONE, "
                                   f"{1 + s % 4})", NAMESPACE))
        if s % 5 == 4:  # drop, double or swap one character
            i = rng.randrange(len(text))
            text = pick([text[:i] + text[i + 1:], text[:i] + text[i] + text[i:],
                         text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]])
        if s % 3 == 2:
            cli(["logic", "parse", "--structure", "m.json", "--formula", text],
                files)
        else:
            cli(["logic", "check", "--structure", "m.json", "--formula", text]
                + pick(modes) + pick([[], ["--json"]]), files)
    for k, text in enumerate(texts * 6):
        assign = pick(["x=p0", "x=p1,r=1/2", " x = p0 , r = 2 ", "x=zz",
                       "r=x,x=p0", "x=p0,r=1/2,q=3", "x", "r=0.25,x=p1"])
        free = {v for v in ("x", "r") if re.search(rf"\b{v}\b", text)}
        env = dict(part.partition("=")[::2] for part in assign.split(","))
        env = {n.strip(): v.strip() for n, v in env.items()}
        if len([v for v in free if env.get(v, "zz") in ("zz", "x", "")]) > 1:
            continue
        cli(["logic", "check", "--structure", "m.json", "--formula", text,
             "--assign", assign] + pick(modes) + pick([[], ["--json"]]),
            {"m.json": "structure_to_json(random_finite_structure("
                       f"Random({k}), 3))"})
    # logic check and parse on window structures
    for s in range(150):
        upto = rng.randint(3, 14)
        seq = pick([f"random_tail_sequence(Random({s}), max_prefix=12)",
                    f"random_monotone_sequence(Random({s}), max_prefix=12)"])
        files = {"w.json": f"structure_to_json(encode_sequence_window("
                           f"{seq}, {upto})[1])"}
        c = rng.randint(1, 3)
        last = upto - c + (rng.random() < 0.1)  # past the window: refused
        t = f"F({rng.randint(0, 24)}, 16)"
        if rng.random() < 0.5:
            lo = rng.randint(0, last)
            E = list(range(lo, min(last, lo + rng.randint(0, 4)) + 1))
            phi = f"xi_E(Sampling(k=1, c={c}), {E}, {t})"
        else:
            phi = f"wneg_xi(Sampling(k=1, c={c}), {rng.randint(0, last)}, {t})"
        text = format_formula(eval(phi, NAMESPACE))
        if s % 4 == 3:
            cli(["logic", "parse", "--structure", "w.json", "--formula", text],
                files)
        else:
            cli(["logic", "check", "--structure", "w.json", "--formula", text]
                + pick(modes) + pick([[], ["--json"]]), files)

    # measure audit, integrate and measurable
    makers = ["random_probability_measure", "random_positive_measure",
              "random_signed_measure"]
    kinds = ["probability", "finite", "signed"]
    for s in range(240):
        n = 1 + s % 5
        mu = pick([f"{pick(makers)}(Random({s}), {n})"] * 2 + [
            f"explicit_measure({s}, {n + 3}, {rng.randint(2, 4)}, "
            f"{pick(kinds)!r}, {rng.random() < 0.3})"])
        doc = pick([f"measure_to_json({mu})"] * 4 + [
            f"dict(measure_to_json({mu}), kind={pick(kinds)!r})",
            f"dict(measure_to_json({mu}), bound={pick(['1/2', '1', '3'])!r})"])
        files = {"mu.json": doc}
        flags = pick([[], ["--json"]])
        command = s % 3
        if command == 0:
            cli(["measure", "audit", "--file", "mu.json"] + flags, files)
            continue
        omega = pick([f"{mu}.omega"] * 5 + ["['w0']"]) if command == 1 \
            else f"{mu}.omega"  # measurable misses labels at the end
        files["f.json"] = (f"linf_to_json(random_linf(Random({s + 1}), "
                           f"{omega}))")
        if command == 1:
            cli(["measure", "integrate", "--file", "mu.json", "--function",
                 "f.json"] + flags, files)
            continue
        u = Fraction(rng.randint(-16, 8), 8)
        v = u + Fraction(rng.randint(-2, 16), 8)
        cli(["measure", "measurable", "--file", "mu.json", "--function",
             "f.json", f"--u={format_rational(u)}",
             f"--v={format_rational(v)}"] + flags, files)

    # malformed documents, one per field and bad-value shape
    analyze = ["analyze", "--eps", "1/2", "--F", "n+1", "--E", "0..3"]
    for doc in ["[]", "3", "'x'", "None", "{}", "{'prefix': 3}",
                "{'prefix': '1,2'}", "{'prefix': None}", "{'prefix': [{}]}",
                "{'prefix': [[]]}", "{'prefix': [[1, {}]]}",
                "{'prefix': [True]}", "{'prefix': ['x']}",
                "{'prefix': [1, [1, 2]]}", "{'prefix': []}",
                "{'prefix': ['1/0']}", "{'prefix': ['1e99999']}",
                "{'prefix': [0.5, '0.25']}", "{'prefix': [1], 'mode': 'x'}",
                "{'prefix': [1], 'tail': 3}", "{'prefix': [1], 'tail': {}}",
                "{'prefix': [1], 'tail': {'constant': False}}",
                "{'prefix': [1], 'tail': {'period': '2'}}",
                "{'prefix': [1], 'tail': {'period': True}}",
                "{'prefix': [1], 'tail': {'period': 0}}",
                "{'prefix': [1, 2], 'tail': {'period': 3}}",
                "{'prefix': [1], 'bound': {}}", "{'prefix': [1], 'bound': 'x'}",
                "{'prefix': [1], 'bound': -1}", "{'prefix': [2], 'bound': 1}",
                "{'prefix': [[1, 2], [1]]}"]:
        cli(analyze + ["--seq", "s.json"], {"s.json": doc})
    for text in ["''", "'1\\n2, 3\\n'", "'x\\n'", "'1\\n\\n2\\n'", "'1/0\\n'",
                 "'\"1,2\"\\n'", "'1;2\\n'", "' 1 \\n,2\\n'"]:
        cli(analyze + ["--seq", "s.csv"], {"s.csv": text})
    seq_file = {"s.json": "sequence_to_json(random_monotone_sequence("
                          "Random(1)))"}
    for spec in ["{}", '{"sampling": 3}', '{"sampling": {"0": [0, "1"]}}',
                 '{"sampling": {"0": [-1]}}', '{"sampling": {"0": [true]}}',
                 '{"sampling": {"01": [1]}}', '{"sampling": {"x": [1]}}',
                 '{"sampling": {"0": []}}', '{"sampling": {"1": [0]}}',
                 '{"F": 3}', '{"F": "2n"}', '{"F": "n+x"}',
                 '{"F": {"affine": 3}}', '{"F": {"affine": {"w": -1}}}',
                 '{"F": {"affine": {"w": true}}}', '{"F": {}}',
                 '{"F": {"affine": {"w": 2, "from": 9}}}', '{"F": "0n+1"}',
                 '{"sampling": {"0": [0, 1]}', "n+", "kn+1"]:
        cli(["analyze", "--seq", "s.json", "--eps", "1/2", "--F", spec,
             "--E", "0"], seq_file)
    for doc in ["[1]", "3", "None", "'n+1'", "{'sampling': {'0': [0.5]}}"]:
        cli(["analyze", "--seq", "s.json", "--eps", "1/2", "--F", "@f.json",
             "--E", "0"], dict(seq_file, **{"f.json": doc}))
    for doc in ["'x'", "[1, 'a']", "[True]", "{'E': 3}", "{'E': [1, 2.5]}",
                "{}", "[]", "[-1]", "{'E': [0, 1]}", "None"]:
        cli(["analyze", "--seq", "s.json", "--eps", "1/2", "--F", "n+1",
             "--E", "@e.json"], dict(seq_file, **{"e.json": doc}))
    for doc in ["[]", "{}", "3", "{'omega': 3, 'weights': {}}",
                "dict(MEASURE, omega=['w0', True])",
                "dict(MEASURE, omega=['w0', 1.5])", "dict(MEASURE, omega=[])",
                "dict(MEASURE, omega=['w0', 'w0'])",
                "dict(MEASURE, omega=[0, 1], weights={'0': 1, '1': 0})",
                "dict(MEASURE, weights=[])", "dict(MEASURE, weights=None)",
                "dict(MEASURE, weights={'w0': 'x', 'w1': 1})",
                "dict(MEASURE, weights={'w0': 1})",
                "dict(MEASURE, weights={'w0': 1, 'w1': 0, 'w2': 5})",
                "dict(MEASURE, algebra='all')", "dict(MEASURE, algebra=3)",
                "dict(MEASURE, algebra=[['w0'], 'w1'])",
                "dict(MEASURE, algebra=[['w0', True]])",
                "dict(MEASURE, algebra=[['zz']])",
                "dict(MEASURE, algebra=[[], ['w0'], ['w1'], ['w0', 'w1']])",
                "dict(MEASURE, kind='weird')", "dict(MEASURE, kind=None)",
                "dict(MEASURE, anchor='zz')", "dict(MEASURE, anchor='w1')",
                "dict(MEASURE, bound='x')", "dict(MEASURE, bound={})",
                "dict(MEASURE, bound='1/2')"]:
        cli(["measure", "audit", "--file", "mu.json"], {"mu.json": doc})
    for doc in ["[]", "3", "None", "{'values': []}", "{'values': 3}",
                "{'values': {'w0': 'x', 'w1': 1}}", "{'w0': 1}",
                "{'w0': 1, 'w1': '1/2'}", "{'values': {}}",
                "{'values': {'w0': 1, 'w1': 2, 'zz': 3}}",
                "{'values': {'w0': True, 'w1': 0}}"]:
        for argv in (["integrate"], ["measurable", "--u", "0", "--v", "1"]):
            cli(["measure"] + argv + ["--file", "mu.json", "--function",
                                      "f.json"],
                {"mu.json": "MEASURE", "f.json": doc})
    slices = ("{'w0': sequence_to_json(random_monotone_sequence(Random(1))), "
              "'w1': sequence_to_json(random_monotone_sequence(Random(2)))}")
    for doc in ["[]", "{}", "3", "{'measure': 3, 'slices': {}}",
                "{'measure': MEASURE}", f"{{'slices': {slices}}}",
                "{'measure': MEASURE, 'slices': 3}",
                "{'measure': MEASURE, 'slices': {'w0': [], 'w1': []}}",
                "{'measure': MEASURE, 'slices': {'w0': "
                "sequence_to_json(random_monotone_sequence(Random(1)))}}",
                f"{{'measure': MEASURE, 'slices': {slices}, 'norm_phi': 'x'}}",
                f"{{'measure': MEASURE, 'slices': {slices}, 'norm_phi': -1}}",
                f"{{'measure': MEASURE, 'slices': {slices}, "
                f"'norm_phi': '1/4'}}",
                f"{{'measure': dict(MEASURE, kind='x'), 'slices': {slices}}}",
                f"{{'measure': MEASURE, 'slices': dict({slices}, "
                f"w2=sequence_to_json(random_monotone_sequence(Random(3))))}}"]:
        cli(["dct", "check", "--family", "f.json"], {"f.json": doc})
    sort_p = "{'points': ['p'], 'metric': [['0']], 'anchor': 'p'}"
    for doc in ["[]", "3", "{}", "dict(STRUCTURE, sorts=3)",
                "dict(STRUCTURE, sorts={'X': 3})",
                "dict(STRUCTURE, sorts={'X': {'points': 3}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', True]}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', []]}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p']}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p'], "
                "'metric': [['0', '1']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p'], "
                "'metric': ['0'], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': [], 'metric': [], "
                "'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p'], "
                "'metric': [['x']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', 'q'], "
                "'metric': [['0', '-1'], ['-1', '0']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', 'q'], "
                "'metric': [['0', '1'], ['2', '0']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', 'q'], "
                "'metric': [['0', '0'], ['0', '0']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', 'q'], "
                "'metric': [['1', '1'], ['1', '0']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', 'q', 'r'], "
                "'metric': [['0', '1', '3'], ['1', '0', '1'], "
                "['3', '1', '0']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p', 'q'], "
                "'metric': [['0', 1], [1, '0']], 'anchor': 'p'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p'], "
                "'metric': [['0']]}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p'], "
                "'metric': [['0']], 'anchor': 'z'}})",
                "dict(STRUCTURE, sorts={'X': {'points': ['p'], "
                "'metric': [['0']], 'anchor': True}})",
                f"dict(STRUCTURE, sorts={{'R': {sort_p}}}, functions={{}}, "
                "anchor_constants={})",
                "dict(STRUCTURE, functions=3)",
                "dict(STRUCTURE, functions={'a': 3})",
                "dict(STRUCTURE, functions={'a': {'domain': 3, "
                "'range': 'X', 'value': 'p'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [True], "
                "'range': 'X', 'value': 'p'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 3, 'value': 'p'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'zz'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'Z', 'value': 'p'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'q'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'p'}, 'f': {'domain': ['X'], "
                "'range': 'X', 'table': 3}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'p'}, 'f': {'domain': ['X'], "
                "'range': 'X', 'table': {'p': 'p'}}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'p'}, 'f': {'domain': ['X'], "
                "'range': 'R', 'table': {'p': 'x', 'q': '1'}}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'p'}, 'f': {'domain': ['R'], "
                "'range': 'X', 'table': {}}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'p'}, 'd': {'domain': [], "
                "'range': 'R', 'value': '1'}})",
                "dict(STRUCTURE, functions={'a': {'domain': [], "
                "'range': 'X', 'value': 'p'}, 'f': {'domain': ['X'], "
                "'range': 'X', 'table': {'p': 'q', 'q': 'p', 'r': 'p'}}})",
                "dict(STRUCTURE, anchor_constants=3)",
                "dict(STRUCTURE, anchor_constants={'X': 3})",
                "dict(STRUCTURE, anchor_constants={'X': 'zz'})",
                "dict(STRUCTURE, anchor_constants={'Z': 'a'})",
                "dict(STRUCTURE, anchor_constants=None)"]:
        cli(["logic", "check", "--structure", "m.json", "--formula",
             "d(a, a) <= 0"], {"m.json": doc})

    # Drawn last, so that every row above keeps its draw: the cases left out
    # above while a refusal named the variable or label it met first in set
    # order, and the satisfaction gap under the same string assignments.
    two_points = ["(d(x, a) <= 1 & d(y, a) <= 1)",
                  "(add(r, h(y)) <= 1 | d(x, y) >= 1/2)"]
    for text in texts + two_points:
        free = {v for v in ("x", "y", "r") if re.search(rf"\b{v}\b", text)}
        if re.match(r"[EA] [0-9/]+ (\w)\.", text):
            free.discard(re.match(r"[EA] [0-9/]+ (\w)\.", text)[1])
        for k, env in enumerate(assignments):
            M = f"random_finite_structure(Random({k}), 3)"
            args = f"{M}, parse_formula({text!r}, ONE), {env!r}"
            lib(f"satisfaction_gap({args})")
            if len([v for v in free if env.get(v, "zz") in ("zz", "x")]) > 1:
                lib(f"satisfies({args})")
                lib(f"approx_satisfies({args})")
                lib(f"sorted(critical_values({args}))")
    for k, text in enumerate(two_points + texts):
        for assign in ([], ["--assign", "x=zz,r=x"], ["--assign", "q=1"]):
            cli(["logic", "check", "--structure", "m.json", "--formula", text]
                + assign + pick(modes) + pick([[], ["--json"]]),
                {"m.json": "structure_to_json(random_finite_structure("
                           f"Random({k}), 3))"})
    # functions that miss two or more points, on an explicit algebra (odd s)
    # and on a powerset, or that carry an extra label on a powerset
    for s in range(48):
        n = 3 + s % 4
        mu = (f"explicit_measure({s}, {n}, {rng.randint(2, 3)}, "
              f"{pick(kinds)!r})" if s % 2
              else f"{pick(makers)}(Random({s}), {n})")
        k = rng.randint(2, n)
        omega = f"{mu}.omega + ('zz',)" if s % 4 == 0 else pick(
            [f"{mu}.omega[{k}:]", f"{mu}.omega[:{n - k}]"])
        files = {"mu.json": f"measure_to_json({mu})",
                 "f.json": f"linf_to_json(random_linf(Random({s}), {omega}))"}
        u = Fraction(rng.randint(-16, 8), 8)
        v = u + Fraction(rng.randint(1, 16), 8)
        flags = pick([[], ["--json"]])
        cli(["measure", "measurable", "--file", "mu.json", "--function",
             "f.json", f"--u={format_rational(u)}",
             f"--v={format_rational(v)}"] + flags, files)
        cli(["measure", "integrate", "--file", "mu.json", "--function",
             "f.json"] + flags, files)
    mu = "random_probability_measure(Random(0), 3)"
    rows += command_line_rows({
        ("logic", "check"): ["--structure", "m.json", "--mode", "discrete",
                             "--formula", "d(b, a) <= 1"],
        ("logic", "parse"): ["--structure", "m.json", "--formula",
                             "d(b, a) <= 1"],
        ("measure", "audit"): ["--file", "mu.json"],
        ("measure", "integrate"): ["--file", "mu.json", "--function", "f.json"],
        ("measure", "measurable"): ["--file", "mu.json", "--function",
                                    "f.json", "--u", "0", "--v", "1"],
    }, {"m.json": "structure_to_json(random_finite_structure(Random(0), 3))",
        "mu.json": f"measure_to_json({mu})",
        "f.json": f"linf_to_json(random_linf(Random(1), {mu}.omega))"})
    return rows + [["cli", argv, {}] for argv in (
        ["logic", "frob"], ["measure", "-h", "audit"],
        ["logic", "check", "--structure", "m.json", "--formula", "1 <= 1",
         "--mode", "exact"],
        ["measure", "measurable", "--f", "mu.json", "--u", "0", "--v", "1"])]


# slice name -> (file, seed, drawing function)
SLICES = {"rate": (CORPUS, SEED, draw_rows),
          "logic-measure": (LOGIC_CORPUS, LOGIC_SEED, draw_logic_measure_rows)}


def write(path: Path, rows: list) -> None:
    lines = [json.dumps(row + [row_digest(row)], ensure_ascii=False)
             for row in rows]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    args = sys.argv[1:] + ["rate"] * (len(sys.argv) == 2)
    mode, name = args if len(args) == 2 else (None, None)
    if name not in SLICES:
        sys.exit(__doc__)
    path, seed, draw = SLICES[name]
    if mode == "--write":
        write(path, draw(random.Random(seed)))
    elif mode == "--full":
        all_rows = load_rows(path)
        failures = mismatches(all_rows)
        print("\n".join(failures) or f"{len(all_rows)} cases unchanged")
        sys.exit(1 if failures else 0)
    else:
        sys.exit(__doc__)
