"""Command-line front end.

Subcommands: analyze (rate checks on sequence files), rate (rate
constructions), logic (formula parsing and satisfaction), measure (axiom
audits and integration), dct (dominated-convergence checks and the
metastable rate search).

Exit codes: 0 = success / property holds, 1 = property fails or a
counterexample was found, 2 = usage or parse error.  Rationals on the
command line use p/q syntax; bare integers are allowed.  --json switches
reports to machine-readable form.  METASTABLE_SEED seeds the generators.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys

from . import dct as dct_mod
from . import measure as measure_mod
from .directed import Sampling, parse_f_expression, sampling_from_json
from .errors import MalformedInput, MetastableError
from .generators import monotone_slice_class
from .netcore import (
    RateSpec,
    SequenceSpec,
    monotone_uniform_rate,
    osc_total_exact,
    rate_interval,
    rate_witness,
    sequence_from_csv,
    sequence_from_json,
)
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_HENSON_NAMES = ("approx_satisfies", "format_formula", "parse_formula",
                 "satisfies", "structure_from_json")
_cli = sys.modules[__name__]


def __getattr__(name):
    """The henson names, imported on first use (PEP 562) and then kept as
    module globals: only the logic commands need the formula engine.  The
    logic handlers call them as attributes of this module, so a caller may
    replace them there."""
    if name not in _HENSON_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    henson = importlib.import_module(".henson", __package__)
    value = globals()[name] = getattr(henson, name)
    return value


def _load_json(path: str) -> dict:
    """A JSON file, with decimal literals read exactly (0.1 is 1/10)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=parse_rational)


def _load_sequence(path: str) -> SequenceSpec:
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8") as fh:
            return sequence_from_csv(fh.read())
    return sequence_from_json(_load_json(path))


def _parse_sampling(spec: str) -> Sampling:
    spec = spec.strip()
    if spec.startswith("@"):
        return sampling_from_json(_load_json(spec[1:]))
    if spec.startswith("{"):
        return sampling_from_json(json.loads(spec))
    return parse_f_expression(spec)


def _parse_rate_set(spec: str) -> frozenset | range:
    spec = spec.strip()
    if spec.startswith("@"):
        data = _load_json(spec[1:])
        if isinstance(data, dict):
            data = data.get("E")
        if not (isinstance(data, list)
                and all(isinstance(i, int) and not isinstance(i, bool)
                        for i in data)):
            raise MalformedInput(
                f"rate file {spec[1:]}: expected a list of integers "
                'or {"E": [...]}'
            )
        return frozenset(data)
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return rate_interval(int(lo), int(hi))
    return frozenset(int(part) for part in spec.split(","))


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommands -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    seq = _load_sequence(args.seq)
    eta = _parse_sampling(args.F)
    E = _parse_rate_set(args.E)
    eps = parse_rational(args.eps)
    witness = rate_witness(seq, eps, eta, E)
    holds, osc_total = witness is not None, osc_total_exact(seq)
    report = {
        "eps": format_rational(eps),
        "F": args.F,
        "holds": holds,
        "witness": witness,
        "osc_total": format_rational(osc_total),
        "eps_cauchy": osc_total <= eps,  # eps_cauchy_exact, from one osc_total
    }
    if args.json:
        report["E"] = sorted(E)
    lines = [
        f"rate holds, witness i={witness}" if holds else "rate fails",
        f"osc(a) = {report['osc_total']}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK if holds else EXIT_FAIL


def cmd_rate_monotone(args) -> int:
    eta = _parse_sampling(args.F)
    E = monotone_uniform_rate(parse_rational(args.eps), eta)
    report = {"eps": args.eps, "F": args.F}
    if args.json:
        report["E"] = sorted(E)
    _emit(report, args.json, [f"E={{0..{E[-1]}}}"])
    return EXIT_OK


def cmd_logic_check(args) -> int:
    structure = _cli.structure_from_json(_load_json(args.structure))
    phi = _cli.parse_formula(args.formula, structure.signature)
    assignment = {}
    if args.assign:
        for part in args.assign.split(","):
            name, _, value = part.partition("=")
            assignment[name.strip()] = value.strip()
    holds = (_cli.approx_satisfies(structure, phi, assignment)
             if args.mode == "approx"
             else _cli.satisfies(structure, phi, assignment))
    report = {"formula": _cli.format_formula(phi), "mode": args.mode,
              "holds": holds}
    _emit(report, args.json,
          [f"{args.mode} satisfaction: {'holds' if holds else 'fails'}"])
    return EXIT_OK if holds else EXIT_FAIL


def cmd_logic_parse(args) -> int:
    structure = _cli.structure_from_json(_load_json(args.structure))
    phi = _cli.parse_formula(args.formula, structure.signature)
    print(_cli.format_formula(phi))
    return EXIT_OK


def cmd_measure_audit(args) -> int:
    M = measure_mod.measure_from_json(_load_json(args.file))
    report = measure_mod.audit_preloeb(M)
    tv_fast = measure_mod.total_variation(M)
    tv_audit = measure_mod.total_variation(M, audit=True)
    payload = {
        "ok": report.ok,
        "total_variation_fast": format_rational(tv_fast),
        "total_variation_audit": format_rational(tv_audit),
        "clauses": [
            {"clause": e.clause, "ok": e.ok, "witness": e.witness}
            for e in report.entries
        ],
    }
    lines = [
        f"{'PASS' if e.ok else 'FAIL'} {e.clause}"
        + (f" [{e.witness}]" if e.witness else "")
        for e in report.entries
    ]
    lines.append(f"total variation: fast={tv_fast} audit={tv_audit}")
    _emit(payload, args.json, lines)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_measure_integrate(args) -> int:
    M = measure_mod.measure_from_json(_load_json(args.file))
    f = measure_mod.linf_from_json(_load_json(args.function))
    value = measure_mod.integrate(M, f)
    _emit({"integral": format_rational(value)}, args.json,
          [f"I(f) = {format_rational(value)}"])
    return EXIT_OK


def cmd_measure_measurable(args) -> int:
    M = measure_mod.measure_from_json(_load_json(args.file))
    f = measure_mod.linf_from_json(_load_json(args.function))
    A = measure_mod.check_measurability(
        M, f, parse_rational(args.u), parse_rational(args.v)
    )
    found = A is not None
    report = {"found": found, "A": sorted(A) if found else None}
    _emit(report, args.json,
          [f"A = {{{', '.join(sorted(A))}}}" if found else "no witness set"])
    return EXIT_OK if found else EXIT_FAIL


def cmd_dct_check(args) -> int:
    fam = dct_mod.family_from_json(_load_json(args.family))
    result = dct_mod.dct_inequality_check(fam)
    report = {
        "holds": result.holds,
        "lhs": format_rational(result.lhs),
        "rhs": format_rational(result.rhs),
    }
    _emit(report, args.json, [
        f"osc(I phi) = {report['lhs']} <= {report['rhs']}"
        f" = ‖mu‖ · sup osc: {'holds' if result.holds else 'FAILS'}"
    ])
    return EXIT_OK if result.holds else EXIT_FAIL


def cmd_dct_search(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    eta = _parse_sampling(args.F)
    grid = [parse_rational(e) for e in args.eps.split(",")]
    seed = args.seed if args.seed is not None else int(
        os.environ.get("METASTABLE_SEED", "0")
    )
    # first: a grid too fine for MAX_RATE_SIZE is refused before any build
    slice_rate = RateSpec(per_epsilon={
        eps: monotone_uniform_rate(eps, eta) for eps in grid
    })
    families = monotone_slice_class(eta, grid, args.count, seed,
                                    n_omega=args.omega)
    result = dct_mod.metastable_dct_search(
        families, r=0, s=1, eta=eta, slice_rate=slice_rate,
        horizon=args.horizon,
    )
    if not result.feasible:
        bad = [format_rational(e) for e in result.infeasible]
        reason = "no rate exists" if args.horizon is None \
            else f"infeasible within horizon {args.horizon}"
        _emit({"feasible": False, "infeasible_eps": bad}, args.json,
              [f"{reason}: eps {', '.join(bad)}"])
        return EXIT_FAIL
    payload = {
        "feasible": True,
        "rates": {
            format_rational(eps): sorted(E)
            for eps, E in result.rate.per_epsilon.items()
        },
    }
    lines = [
        f"eps={format_rational(eps)}: E={{0..{max(E)}}}"
        for eps, E in sorted(result.rate.per_epsilon.items())
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


# -- wiring -----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _command_parsers() -> dict:
    """Every parser of the command line under the words that select it: ()
    for the root, ("rate",) for a group, ("rate", "monotone") for a command.
    Built once per process: building costs more than a small analysis."""
    parsers = {(): argparse.ArgumentParser(
        prog="metastable",
        description="Metastable convergence rates, positive bounded formulas, "
                    "and finitely additive integration",
    )}
    subparsers = {(): parsers[()].add_subparsers(dest="command",
                                                 required=True)}

    def group(name, summary):
        parsers[name,] = subparsers[()].add_parser(name, help=summary)
        subparsers[name,] = parsers[name,].add_subparsers(
            dest=f"{name}_command", required=True)

    def command(words, func, summary, required, optional=None, json=True):
        """The parser of `words`: required options (flag -> help), then the
        others (flag -> add_argument keywords), then --json if it has one."""
        parser = parsers[words] = subparsers[words[:-1]].add_parser(
            words[-1], help=summary)
        for flag, text in required.items():
            parser.add_argument(flag, required=True, help=text)
        for flag, spec in (optional or {}).items():
            parser.add_argument(flag, **spec)
        if json:
            parser.add_argument("--json", action="store_true")
        parser.set_defaults(func=func)

    command(("analyze",), cmd_analyze, "check a rate on a sequence file",
            {"--seq": "sequence JSON or CSV file", "--eps": "epsilon (p/q)",
             "--F": "sampling: n+c, 2n+c, inline JSON, or @file",
             "--E": "rate set: lo..hi, comma list, or @file"})

    group("rate", "rate constructions")
    command(("rate", "monotone"), cmd_rate_monotone,
            "uniform rate for monotone sequences in [0,1]",
            {"--eps": None, "--F": None})

    group("logic", "formula parsing and satisfaction")
    command(("logic", "check"), cmd_logic_check,
            "evaluate a formula on a structure",
            {"--structure": "structure JSON file", "--formula": None},
            {"--mode": dict(choices=("discrete", "approx"), default="approx"),
             "--assign": dict(help="free-variable assignment x=p,y=q")})
    command(("logic", "parse"), cmd_logic_parse, "parse and reprint a formula",
            {"--structure": None, "--formula": None}, json=False)

    group("measure", "measure-structure operations")
    command(("measure", "audit"), cmd_measure_audit, "axiom audit",
            {"--file": None})
    command(("measure", "integrate"), cmd_measure_integrate,
            "integrate a function",
            {"--file": None, "--function": "L-infinity JSON file"})
    command(("measure", "measurable"), cmd_measure_measurable,
            "find a set witnessing approximate measurability",
            {"--file": None, "--function": None, "--u": None, "--v": None})

    group("dct", "dominated-convergence checks")
    command(("dct", "check"), cmd_dct_check,
            "oscillation inequality on a family",
            {"--family": "family JSON file"})
    command(("dct", "search"), cmd_dct_search,
            "metastable rate search over the monotone slice class",
            {"--F": None, "--eps": "comma-separated grid"},
            {"--count": dict(type=int, default=50, help="random families "
                             "beyond the adversarial core"),
             "--omega": dict(type=int, default=2),
             "--horizon": dict(type=int, help="optional search cap"),
             "--seed": dict(type=int)})
    return parsers


def build_parser() -> argparse.ArgumentParser:
    """The root of the command line, the same parser on every call."""
    return _command_parsers()[()]


def main(argv=None) -> int:
    parsers = _command_parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    # Parse once, with the parser of the longest run of leading command
    # words: the root would hand the rest of argv down to it unchanged.
    words = max((w for w in parsers if tuple(argv[:len(w)]) == w), key=len)
    args, extra = parsers[words].parse_known_args(argv[len(words):])
    if extra:
        parsers[()].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (MetastableError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: the input is nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
