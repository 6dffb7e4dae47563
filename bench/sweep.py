"""On-demand size sweep behind the ROADMAP's measured baseline.

    python3 bench/sweep.py          # about a minute
    python3 bench/sweep.py --full   # adds the n = 10 audit (minutes)

Times each case once, checks its answer, prints one JSON object and writes
it to bench/out/sweep.json.  This is not a gated workload.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import harness


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def cases(P, full: bool):
    gen, netcore = P.generators, P.netcore
    eta = P.directed.parse_f_expression("2n+1")
    for d in (10, 12):
        eps = Fraction(1, d)
        seq = gen.staircase_sequence(eps, eta)
        E = netcore.monotone_uniform_rate(eps, eta)
        seconds, holds = timed(netcore.check_rate, seq, eps, eta, E)
        yield {"case": "check_rate staircase 2n+1", "eps": f"1/{d}",
               "rate_size": len(E), "seconds": seconds, "ok": holds is True}
    for n in (8, 10) if full else (8,):
        mu = gen.random_probability_measure(random.Random(n), n)
        seconds, report = timed(P.measure.audit_preloeb, mu)
        yield {"case": "audit_preloeb powerset", "atoms": n,
               "seconds": seconds, "ok": report.ok}
    rng = random.Random(0)
    for points in (50, 100, 200):
        seq = netcore.SequenceSpec(prefix=tuple(
            gen.random_rational(rng, 0, 1, 16) for _ in range(points)))
        seconds, (_, structure) = timed(P.nets.encode_sequence_window, seq,
                                        points - 1)
        yield {"case": "encode_sequence_window", "points": points,
               "seconds": seconds,
               "ok": len(structure.points("D")) == points}
    grid = [Fraction(1, d) for d in range(2, 6)]
    families = gen.monotone_slice_class(eta, grid, 200, 0)
    slice_rate = netcore.RateSpec(per_epsilon={
        eps: netcore.monotone_uniform_rate(eps, eta) for eps in grid})
    seconds, result = timed(P.dct.metastable_dct_search, families, 0, 1, eta,
                            slice_rate, 64)
    yield {"case": "metastable_dct_search", "families": len(families),
           "horizon": 64, "eps_grid": [str(e) for e in grid],
           "seconds": seconds, "ok": result.feasible}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="also audit a 10-atom powerset")
    args = parser.parse_args(argv)
    try:
        P = harness.load_program()
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = []
    for case in cases(P, args.full):
        results.append(case)
        print(json.dumps(case), file=sys.stderr, flush=True)
    report = {"meta": harness.environment(), "cases": results}
    harness.OUT.mkdir(exist_ok=True)
    (harness.OUT / "sweep.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report))
    return 0 if all(c["ok"] for c in results) else 1


if __name__ == "__main__":
    sys.exit(main())
