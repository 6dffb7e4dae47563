"""The four workloads: inputs made from a seed, one plan of ops each.

Every op is one user request: a `metastable` command run in-process through
`metastable.cli.main(argv)` on files written during set-up, or one call to a
public library function where no command exists.  Expected answers are
known by construction or computed by the literal oracles in oracles.py,
outside every timed region.

Sizes within an op kind are stratified over the kind's range, so every seed
draws the same sizes and only the data differ.  Each kind's ops
are visited in a low-discrepancy order and the kinds are interleaved evenly,
so a slow stretch of the host does not fall on one kind or one size.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import harness
import oracles
from harness import Op, Plan, run_cli

PHI = (math.sqrt(5) - 1) / 2


class Planner:
    """Collects the ops of one plan and the files they read."""

    def __init__(self, P, workload: str, seed: int, small: bool):
        self.P = P
        self.small = small
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}/{seed}")
        self.dir = harness.workdir_for(workload, seed)
        self.oracle_s = 0.0
        self.slots = []
        self.files = 0

    def oracle(self, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        self.oracle_s += time.perf_counter() - start
        return value

    def write(self, data) -> str:
        self.files += 1
        path = self.dir / f"{self.files:04d}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def kind(self, count: int, make) -> None:
        """Add `count` ops (a quarter, at least one, when small).

        make(u, m) builds the m-th op of the kind in visiting order; u is
        the midpoint of stratum s of c, so every seed draws the same sizes
        and only the data differ.  A size jittered inside its stratum would
        move the op at a fixed rank, and with it op_tail_ms, from seed to
        seed by up to one stratum's cost.
        """
        if self.small:
            count = max(1, count // 4)
        phase = self.rng.random()
        strata = sorted(range(count), key=lambda s: (s * PHI) % 1.0)
        for m, s in enumerate(strata):
            u = (s + 0.5) / count
            self.slots.append(((m + phase) / count, len(self.slots), make(u, m)))

    def plan(self) -> Plan:
        ops = [op for _, _, op in sorted(self.slots, key=lambda t: t[:2])]
        return Plan(self.workload, self.seed, ops, self.dir, self.P)


def _report(result) -> tuple:
    code, out = result
    return code, json.loads(out)


def _eps_for(k: int, v: float) -> Fraction:
    """A rational epsilon with ceil(1/eps) == k, placed by v in [0, 1)."""
    return Fraction(1000, round(1000 * (k - 0.95 + 0.9 * v)))


def _pick(choices, u: float):
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def _frac(x: float) -> float:
    return x - math.floor(x)


def _sized(lo: int, hi: int, u: float, power: int) -> int:
    """A size in [lo, hi] whose cost, growing as size**power, is uniform in
    u: the costliest ops of a kind then lie evenly spaced, so the tail
    percentile does not sit on a steep stretch of the cost curve."""
    return round((lo ** power + (hi ** power - lo ** power) * u) ** (1 / power))


# -- rate-windows ------------------------------------------------------------------


def rate_windows(b: Planner) -> None:
    """Few long sequences with long windows: the quadratic window scans."""
    P, rng, F = b.P, b.rng, "2n+1"
    fmt = P.rationals.format_rational
    eta = P.directed.parse_f_expression(F)

    def analyze(ks, least=0.0, most=1.0):
        """Staircases for each k in ks.  E starts below the witness so that
        the scan, and with it the cost, is a share of the full scan drawn
        uniformly from [least, most]."""
        ks = [3, 4] if b.small else ks

        def make(u, m):
            k = _pick(ks, u)
            eps = _eps_for(k, rng.random())
            w = oracles.f_iterate(F, k - 1)
            share = least + (most - least) * _frac(u * len(ks))
            lo = int((w - 1) * math.sqrt(1 - share))
            holds = m % 2 == 0
            seq = P.generators.staircase_sequence(eps, eta)
            path = b.write(P.netcore.sequence_to_json(seq))
            E = f"{lo}..{w if holds else w - 1}"
            argv = ["analyze", "--seq", path, "--eps", fmt(eps), "--F", F,
                    "--E", E, "--json"]

            def check(result):
                code, rep = _report(result)
                if holds:
                    return (code == 0 and rep["holds"] is True
                            and rep["witness"] == w)
                return (code == 1 and rep["holds"] is False
                        and rep["witness"] is None)

            return Op("analyze", lambda: run_cli(P, argv), check,
                      (w * w - lo * lo) / 2)

        return make

    def rate_monotone(u, m):
        k = _pick([3, 4] if b.small else [12, 13, 14, 15, 16], u)
        eps = _eps_for(k, rng.random())
        top = oracles.f_iterate(F, k)
        argv = ["rate", "monotone", "--eps", fmt(eps), "--F", F, "--json"]

        def check(result):
            code, rep = _report(result)
            return code == 0 and rep["E"] == list(range(top + 1))

        return Op("rate.monotone", lambda: run_cli(P, argv), check, top)

    def osc_eta_exact(u, m):
        w = _sized(2, 6, u, 1) if b.small else _sized(16, 48, u, 2)
        period = 3 if b.small else 12
        start = rng.randint(3, 6) if b.small else rng.randint(40, 80)
        seq = P.netcore.SequenceSpec(
            prefix=tuple(P.generators.random_rational(rng, -1, 1, 16)
                         for _ in range(start + period)),
            tail=P.netcore.Periodic(period))
        values = oracles.Values(P.netcore.sequence_to_json(seq))
        expected = b.oracle(oracles.min_window_osc, values, w)
        return Op("osc_eta_exact",
                  lambda: P.netcore.osc_eta_exact(
                      seq, P.directed.affine_sampling(w)),
                  lambda result: result == expected,
                  (start + period * (w + 1)) * w)

    # The k = 9 to 11 staircases keep their full window lengths but scan
    # only a share of E, so they stay below the tail percentile with the
    # cheap scans; the two k = 16 rates stay above it.  The evenly spaced
    # osc_eta_exact costs in between set op_tail_ms.
    b.kind(40, analyze([5, 6, 7, 8]))
    b.kind(3, analyze([9], most=0.3))
    b.kind(2, analyze([10], least=0.01, most=0.04))
    b.kind(1, analyze([11], least=0.005, most=0.01))
    b.kind(10, rate_monotone)
    b.kind(16, osc_eta_exact)


# -- rate-families -----------------------------------------------------------------


def rate_families(b: Planner) -> None:
    """Many tiny sequences: per-call overhead and the brute-force rate."""
    P, rng = b.P, b.rng
    fmt = P.rationals.format_rational
    gen = P.generators
    samplings = ["n+1", "n+2", "n+3", "2n+1"]

    def analyze(u, m):
        if m % 2:
            seq = gen.random_tail_sequence(rng, max_prefix=8, max_period=4)
        else:
            seq = gen.random_monotone_sequence(rng, max_prefix=8)
        F = samplings[m % len(samplings)]
        eps = gen.random_rational(rng, Fraction(1, 8), Fraction(1, 2), 16)
        top = 2 + int(18 * u)
        data = P.netcore.sequence_to_json(seq)
        path = b.write(data)
        w = b.oracle(oracles.first_witness, oracles.Values(data), eps, F,
                     range(top + 1))
        argv = ["analyze", "--seq", path, "--eps", fmt(eps), "--F", F,
                "--E", f"0..{top}", "--json"]

        def check(result):
            code, rep = _report(result)
            return (code == (1 if w is None else 0) and rep["witness"] == w
                    and rep["holds"] is (w is not None))

        return Op("analyze", lambda: run_cli(P, argv), check, top)

    def dct_check(u, m):
        fam = gen.random_coherent_family(rng)
        path = b.write(P.dct.family_to_json(fam))
        argv = ["dct", "check", "--family", path, "--json"]

        def check(result):
            code, rep = _report(result)
            return (code == 0 and rep["holds"] is True
                    and oracles.q(rep["lhs"]) <= oracles.q(rep["rhs"]))

        return Op("dct.check", lambda: run_cli(P, argv), check, 0)

    members = 20 if b.small else 1000
    family = [gen.random_monotone_sequence(rng) for _ in range(members)]
    audit_samplings = ["n+1", "n+2", "n+3", "2n+1", "2n+2", "3n+1"]

    def audit(u, m):
        k = 2 + int(4 * u)
        eps = _eps_for(k, rng.random())
        F = audit_samplings[m % len(audit_samplings)]

        def run():
            eta = P.directed.parse_f_expression(F)
            E = P.netcore.monotone_uniform_rate(eps, eta)
            return P.netcore.uniform_rate_audit(family, eps, eta, E)

        return Op("uniform_rate_audit", run,
                  lambda result: result.passed is True,
                  oracles.f_iterate(F, k) * members)

    def search(u, m):
        count = 2 + int(3 * u) if b.small else 2 + int(38 * u)
        # The grid's finest epsilon sets the cost: down to 1/7 a search
        # takes about 0.3 s whatever the count, down to 1/5 about 25 ms.
        finest = 3 if b.small else (6 if m % 3 == 0 else 5)
        grid = [_eps_for(k, rng.random()) for k in range(2, finest + 1)]
        horizon = 64 + rng.randint(0, 32)
        expected = {
            eps: list(range(oracles.f_iterate("2n+1", math.ceil(1 / eps) - 1)
                            + 1))
            for eps in grid
        }
        argv = ["dct", "search", "--F", "2n+1",
                "--eps", ",".join(fmt(e) for e in grid),
                "--count", str(count), "--seed", str(rng.randrange(10 ** 6)),
                "--horizon", str(horizon), "--json"]

        def check(result):
            code, rep = _report(result)
            rates = {oracles.q(e): E for e, E in rep["rates"].items()}
            return code == 0 and rep["feasible"] is True and rates == expected

        return Op("dct.search", lambda: run_cli(P, argv), check, count)

    b.kind(50, analyze)
    b.kind(24, dct_check)
    b.kind(12, audit)
    b.kind(8, search)


# -- measure-audit ------------------------------------------------------------------


def _partition(rng, omega, blocks) -> list:
    labels = list(omega)
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, len(labels)), blocks - 1))
    return [frozenset(labels[a:b]) for a, b in zip([0] + cuts, cuts + [None])]


def _unions(blocks) -> list:
    return [frozenset().union(*(B for i, B in enumerate(blocks) if mask >> i & 1))
            for mask in range(1 << len(blocks))]


def measure_audit(b: Planner) -> None:
    """Axiom audits over every pair of sets, and the cheap reads beside them."""
    P, rng = b.P, b.rng
    gen, M = P.generators, P.measure
    fmt = P.rationals.format_rational
    makers = {"probability": gen.random_probability_measure,
              "finite": gen.random_positive_measure,
              "signed": gen.random_signed_measure}
    kinds = list(makers)

    def explicit(n, blocks, kind, broken=False):
        base = makers[kind](rng, n)
        parts = _partition(rng, base.omega, blocks)
        sets = _unions(parts)
        if broken:
            # {} and the unions holding the first block: closed under union
            # and intersection, but the first block's complement is missing
            head = parts[0]
            sets = [A for A in sets if head <= A or not A]
        return M.MeasureStructure(omega=base.omega, weights=base.weights,
                                  kind=kind, algebra=tuple(sets))

    def powerset_audit(u, m):
        # 4**n pairs at about 80 us each: n = 5 takes about 0.1 s, n = 6
        # already 0.4 s, too long for one op to find a quiet stretch of
        # a noisy host
        sizes = [3, 4] if b.small else [3] * 3 + [4] * 12 + [5]
        n = _pick(sizes, u)
        kind = kinds[m % 3]
        data = M.measure_to_json(makers[kind](rng, n))
        path = b.write(data)
        norm = sum(abs(oracles.q(v)) for v in data["weights"].values())

        def check(result):
            code, rep = _report(result)
            fast = oracles.q(rep["total_variation_fast"])
            return (code == 0 and rep["ok"] is True
                    and all(c["ok"] for c in rep["clauses"])
                    and fast == norm
                    and oracles.q(rep["total_variation_audit"]) == fast
                    and (kind != "probability" or fast == 1))

        return Op("measure.audit", lambda: run_cli(P, ["measure", "audit",
                                                       "--file", path, "--json"]),
                  check, 4 ** n)

    def explicit_audit(u, m):
        n = 6 if b.small else 12 + int(13 * u)
        blocks = 3 + m % 2
        broken = m == 0
        kind = kinds[m % 2]
        path = b.write(M.measure_to_json(explicit(n, blocks, kind, broken)))

        def check(result):
            code, rep = _report(result)
            failed = {c["clause"] for c in rep["clauses"] if not c["ok"]}
            if broken:
                return (code == 1 and rep["ok"] is False
                        and failed == {"closed under complement"})
            return (code == 0 and rep["ok"] is True and not failed
                    and rep["total_variation_fast"]
                    == rep["total_variation_audit"])

        return Op("measure.audit", lambda: run_cli(P, ["measure", "audit",
                                                       "--file", path, "--json"]),
                  check, 4 ** blocks)

    pool = []
    for i in range(2 if b.small else 8):
        n = rng.randint(3, 8)
        if i % 2:
            pool.append(makers[kinds[i % 3]](rng, n))
        else:
            pool.append(explicit(rng.randint(8, 16), rng.randint(3, 5),
                                 kinds[i % 2]))
    pool_files = []
    for mu in pool:
        data = M.measure_to_json(mu)
        pool_files.append((mu, data, b.write(data),
                           frozenset(oracles.algebra_sets(data))))

    def integrate(u, m):
        mu, data, path, _ = pool_files[m % len(pool_files)]
        fdata = M.linf_to_json(gen.random_linf(rng, mu.omega))
        fpath = b.write(fdata)
        expected = b.oracle(oracles.integral, data, fdata)
        argv = ["measure", "integrate", "--file", path, "--function", fpath,
                "--json"]

        def check(result):
            code, rep = _report(result)
            return code == 0 and oracles.q(rep["integral"]) == expected

        return Op("measure.integrate", lambda: run_cli(P, argv), check,
                  len(mu.omega))

    def measurable(u, m):
        mu, data, path, sets = pool_files[m % len(pool_files)]
        fdata = M.linf_to_json(gen.random_linf(rng, mu.omega))
        fpath = b.write(fdata)
        lo = gen.random_rational(rng, -2, 1, 8)
        hi = lo + gen.random_rational(rng, Fraction(1, 8), 1, 8)
        exists = b.oracle(oracles.measurable_exists, data, fdata, lo, hi)
        argv = ["measure", "measurable", "--file", path, "--function", fpath,
                f"--u={fmt(lo)}", f"--v={fmt(hi)}", "--json"]

        def check(result):
            code, rep = _report(result)
            if not exists:
                return code == 1 and rep["found"] is False
            A = frozenset(rep["A"])
            return (code == 0 and rep["found"] is True and A in sets
                    and oracles.separates(data, fdata, A, lo, hi))

        return Op("measure.measurable", lambda: run_cli(P, argv), check,
                  len(sets))

    def audit_integration(u, m):
        mu = pool[m % len(pool)]
        fs = [gen.random_linf(rng, mu.omega) for _ in range(2 if b.small else 4)]
        return Op("audit_integration",
                  lambda: M.audit_integration(mu, fs),
                  lambda report: report.ok is True, len(mu.omega))

    b.kind(16, powerset_audit)
    b.kind(3, explicit_audit)
    b.kind(30, integrate)
    b.kind(24, measurable)
    b.kind(8, audit_integration)


# -- logic-windows ------------------------------------------------------------------


def logic_windows(b: Planner) -> None:
    """Window encodings (triangle checks) and formula evaluation."""
    P, rng = b.P, b.rng
    gen, nets = P.generators, P.nets
    fmt_formula = P.syntax.format_formula

    def scalar_sequence(n):
        return P.netcore.SequenceSpec(
            prefix=tuple(gen.random_rational(rng, 0, 1, 16) for _ in range(n)))

    def encode(u, m):
        n = _sized(4, 8, u, 1) if b.small else _sized(16, 28, u, 3)
        seq = scalar_sequence(n)
        values = list(seq.prefix)

        def check(result):
            _, structure = result
            return (len(structure.points("D")) == n
                    and all(structure.interp("s", (str(j),)) == values[j]
                            for j in range(n)))

        return Op("encode", lambda: nets.encode_sequence_window(seq, n - 1),
                  check, n ** 3)

    windows = []
    pool = 2 if b.small else 8
    for i in range(pool):
        n = 6 + i if b.small else 10 + int(10 * (i + rng.random()) / pool)
        seq = scalar_sequence(n)
        _, structure = nets.encode_sequence_window(seq, n - 1)
        data = P.structure.structure_to_json(structure)
        windows.append((n, oracles.Values(P.netcore.sequence_to_json(seq)),
                        b.write(data)))

    def window_check(u, m):
        n, values, path = windows[m % len(windows)]
        c = rng.randint(1, 3)
        eta = P.directed.parse_f_expression(f"n+{c}")
        last = n - 1 - c
        t = b.oracle(oracles.window_osc, values, rng.randint(0, last),
                     last + c) * Fraction(rng.randint(3, 9), 8)
        t = max(t, Fraction(1, 64))
        if m % 2:
            i = rng.randint(0, last)
            phi = nets.wneg_xi(eta, i, t)
            expected = b.oracle(oracles.window_osc, values, i, i + c) >= t
        else:
            lo = rng.randint(0, last)
            E = range(lo, min(last, lo + rng.randint(0, 5)) + 1)
            phi = nets.xi_E(eta, E, t)
            expected = b.oracle(oracles.first_witness, values, t, f"n+{c}",
                                E) is not None
        mode = "approx" if (m // 2) % 2 else "discrete"
        argv = ["logic", "check", "--structure", path, "--formula",
                fmt_formula(phi), "--mode", mode, "--json"]

        def check(result):
            code, rep = _report(result)
            return code == (0 if expected else 1) and rep["holds"] is expected

        return Op("logic.window", lambda: run_cli(P, argv), check, n ** 3)

    def quantified(u, m):
        structure = gen.random_finite_structure(rng, max_points=4 if b.small
                                                else 8)
        data = P.structure.structure_to_json(structure)
        path = b.write(data)
        phi = gen.random_formula(rng, structure.signature,
                                 depth=2 + int(3 * u))
        expected = b.oracle(oracles.holds, oracles.Tables(data), phi)
        mode = "approx" if m % 2 else "discrete"
        argv = ["logic", "check", "--structure", path, "--formula",
                fmt_formula(phi), "--mode", mode, "--json"]

        def check(result):
            code, rep = _report(result)
            return code == (0 if expected else 1) and rep["holds"] is expected

        return Op("logic.quantified", lambda: run_cli(P, argv), check,
                  len(structure.points("X")))

    b.kind(12, encode)
    b.kind(16, window_check)
    b.kind(110, quantified)


WORKLOADS = {
    "rate-windows": rate_windows,
    "rate-families": rate_families,
    "measure-audit": measure_audit,
    "logic-windows": logic_windows,
}


def build_plan(P, workload: str, seed: int, small: bool) -> tuple:
    """(plan, seconds spent in oracles) for one workload and seed."""
    b = Planner(P, workload, seed, small)
    WORKLOADS[workload](b)
    return b.plan(), b.oracle_s
