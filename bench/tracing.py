"""Spans around the calls into each layer, recorded from outside the program.

The traced run installs wrappers on the public names one module calls in
another (for example `metastable.cli.rate_witness` or `Sampling.eta`).  Each
wrapper records a span: name, start, end, parent span and op id.  Work
counts are taken at the same boundaries, some from the call's arguments and
answer; computing them is bookkeeping, kept out of every span and op time.
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from fractions import Fraction

import harness

COUNT = "count"
SECONDS = "s"

# metric -> unit, in report order
PER_LAYER = {
    "cli.calls": COUNT,
    "cli.self_s": SECONDS,
    "cli.load_s": SECONDS,
    "directed.eta_calls": COUNT,
    "directed.eta_s": SECONDS,
    "netcore.rate_calls": COUNT,
    "netcore.rate_s": SECONDS,
    "netcore.windows": COUNT,
    "netcore.values_read": COUNT,
    "netcore.rate_build_s": SECONDS,
    "netcore.rate_elements": COUNT,
    "netcore.osc_exact_s": SECONDS,
    "netcore.audit_s": SECONDS,
    "dct.search_calls": COUNT,
    "dct.search_s": SECONDS,
    "dct.precheck_s": SECONDS,
    "dct.brute_min_s": SECONDS,
    "dct.integral_s": SECONDS,
    "dct.inequality_s": SECONDS,
    "dct.families": COUNT,
    "dct.rate_top_sum": COUNT,
    "measure.audit_calls": COUNT,
    "measure.audit_s": SECONDS,
    "measure.tv_audit_s": SECONDS,
    "measure.pairs": COUNT,
    "measure.integrate_calls": COUNT,
    "measure.integrate_s": SECONDS,
    "measure.audit_integration_s": SECONDS,
    "measure.measurability_s": SECONDS,
    "henson.nets.encode_calls": COUNT,
    "henson.nets.encode_s": SECONDS,
    "henson.nets.points": COUNT,
    "henson.structure.load_s": SECONDS,
    "henson.structure.triangle_checks": COUNT,
    "henson.parser.parse_s": SECONDS,
    "henson.parser.chars": COUNT,
    "henson.semantics.satisfies_s": SECONDS,
    "henson.semantics.approx_s": SECONDS,
    "henson.semantics.critical_values": COUNT,
    "trace.overhead_frac": "frac",
}

# time metric -> ("self" or "total", span names it sums)
TIMES = {
    "cli.self_s": ("self", {"cli.main"}),
    "cli.load_s": ("self", {"cli.load"}),
    "directed.eta_s": ("self", {"directed.eta"}),
    "netcore.rate_s": ("self", {"netcore.rate_witness", "netcore.check_rate",
                                "dct.check_rate"}),
    "netcore.rate_build_s": ("total", {"netcore.monotone_uniform_rate"}),
    "netcore.osc_exact_s": ("total", {"netcore.osc_eta_exact"}),
    "netcore.audit_s": ("self", {"netcore.uniform_rate_audit"}),
    "dct.search_s": ("self", {"dct.metastable_dct_search"}),
    "dct.precheck_s": ("total", {"dct.check_rate"}),
    "dct.brute_min_s": ("total", {"dct.brute_min_uniform_rate"}),
    "dct.integral_s": ("total", {"dct.integral_sequence"}),
    "dct.inequality_s": ("total", {"dct.dct_inequality_check"}),
    "measure.audit_s": ("self", {"measure.audit_preloeb"}),
    "measure.tv_audit_s": ("total", {"measure.total_variation.audit"}),
    "measure.integrate_s": ("total", {"measure.integrate"}),
    "measure.audit_integration_s": ("total", {"measure.audit_integration"}),
    "measure.measurability_s": ("total", {"measure.check_measurability"}),
    "henson.nets.encode_s": ("total", {"henson.nets.encode_sequence_window"}),
    "henson.structure.load_s": ("total", {"henson.structure.structure_from_json"}),
    "henson.parser.parse_s": ("total", {"henson.parser.parse_formula"}),
    "henson.semantics.satisfies_s": ("total", {"henson.semantics.satisfies"}),
    "henson.semantics.approx_s": ("total", {"henson.semantics.approx_satisfies"}),
}

# call-count metric -> span names it counts
CALLS = {
    "cli.calls": {"cli.main"},
    "directed.eta_calls": {"directed.eta"},
    "netcore.rate_calls": {"netcore.rate_witness", "netcore.check_rate",
                           "dct.check_rate"},
    "dct.search_calls": {"dct.metastable_dct_search"},
    "measure.audit_calls": {"measure.audit_preloeb"},
    "measure.integrate_calls": {"measure.integrate"},
    "henson.nets.encode_calls": {"henson.nets.encode_sequence_window"},
}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.recording = False
        self.spans = []      # [name, op, parent, start, end, bookkeeping]
        self.stack = []
        self.counts = {}
        self.op = None
        self.bookkeeping_s = 0.0
        self._restore = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), None,
                           self.bookkeeping_s])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[4] = time.perf_counter()
        span[5] = self.bookkeeping_s - span[5]
        self.stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def bookkeep(self, fn, *args) -> None:
        """Run fn untraced and keep its time out of enclosing spans and ops."""
        start = time.perf_counter()
        self.recording = False
        try:
            fn(*args)
        finally:
            self.recording = True
            self.bookkeeping_s += time.perf_counter() - start

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        `name` is a span name or a function of the call's arguments;
        after(args, kwargs, answer) counts work once the call returned.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer.open(name if isinstance(name, str)
                                else name(args, kwargs))
            try:
                answer = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                tracer.bookkeep(after, args, kwargs, answer)
            return answer

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def durations(self) -> tuple:
        """Per span: (duration, self time), bookkeeping excluded."""
        total = [s[4] - s[3] - s[5] for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, total):
            if s[2] >= 0:
                child[s[2]] += d
        return total, [d - c for d, c in zip(total, child)]


# -- work counts ----------------------------------------------------------------------


def _window_lengths(eta, indices) -> int:
    if eta.table is not None:
        return sum(len(eta.table[i]) for i in indices)
    return sum(eta.f(i) - i + 1 for i in indices)


def _first_witness(seq, eps, eta, E):
    """Position of the first witness in E, by the literal definition."""
    eps = Fraction(eps)
    for pos, i in enumerate(E):
        window = eta.eta(i)
        vals = [seq.value(j) for j in window]
        if max(vals) - min(vals) <= eps:
            return pos
    return None


def _count_windows(tracer: Tracer, seq, eps, eta, E, witness_pos) -> None:
    """netcore.windows: the witness's position in E, or |E|; values_read:
    total window length over those windows."""
    windows = len(E) if witness_pos is None else witness_pos + 1
    tracer.count("netcore.windows", windows)
    tracer.count("netcore.values_read", _window_lengths(eta, E[:windows]))


def install(tracer: Tracer, P) -> None:
    """Wrap every cross-module boundary the workloads reach."""
    cli, netcore, dct, measure = P.cli, P.netcore, P.dct, P.measure

    def rate_witness_counts(args, kwargs, witness):
        seq, eps, eta, E = args
        E = sorted(set(E))
        pos = None if witness is None else bisect_right(E, witness) - 1
        _count_windows(tracer, seq, eps, eta, E, pos)

    def check_rate_counts(args, kwargs, holds):
        seq, eps, eta, E = args
        E = sorted(set(E))
        _count_windows(tracer, seq, eps, eta, E,
                       _first_witness(seq, eps, eta, E))

    def search_counts(args, kwargs, result):
        tracer.count("dct.families", len(args[0]))
        if result.rate is not None:
            tracer.count("dct.rate_top_sum", sum(
                max(E) for E in result.rate.per_epsilon.values()))

    def audit_pairs(args, kwargs, report):
        M = args[0]
        sets = 2 ** len(M.omega) if M.algebra is None else len(M.algebra)
        tracer.count("measure.pairs", sets * sets)

    def triangle_checks(args, kwargs, structure):
        tracer.count("henson.structure.triangle_checks", sum(
            len(data.points) ** 3 for data in structure.sorts.values()))

    def critical(args, kwargs, holds):
        tracer.count("henson.semantics.critical_values",
                     len(P.semantics.critical_values(*args, **kwargs)))

    tracer.wrap(cli, "main", "cli.main")
    for attr in ("_load_json", "_load_sequence", "_parse_sampling",
                 "_parse_rate_set"):
        tracer.wrap(cli, attr, "cli.load")
    for owner, attr in ((measure, "measure_from_json"),
                        (measure, "linf_from_json"),
                        (dct, "family_from_json")):
        tracer.wrap(owner, attr, "cli.load")
    tracer.wrap(cli, "rate_witness", "netcore.rate_witness",
                rate_witness_counts)
    tracer.wrap(cli, "monotone_uniform_rate", "netcore.monotone_uniform_rate",
                lambda a, k, E: tracer.count("netcore.rate_elements", len(E)))
    tracer.wrap(cli, "structure_from_json",
                "henson.structure.structure_from_json", triangle_checks)
    tracer.wrap(cli, "parse_formula", "henson.parser.parse_formula",
                lambda a, k, phi: tracer.count("henson.parser.chars",
                                               len(a[0])))
    tracer.wrap(cli, "satisfies", "henson.semantics.satisfies")
    tracer.wrap(cli, "approx_satisfies", "henson.semantics.approx_satisfies",
                critical)
    tracer.wrap(P.directed.Sampling, "eta", "directed.eta")
    tracer.wrap(netcore, "check_rate", "netcore.check_rate",
                check_rate_counts)
    tracer.wrap(netcore, "uniform_rate_audit", "netcore.uniform_rate_audit")
    tracer.wrap(netcore, "osc_eta_exact", "netcore.osc_eta_exact")
    tracer.wrap(dct, "check_rate", "dct.check_rate", check_rate_counts)
    tracer.wrap(dct, "brute_min_uniform_rate", "dct.brute_min_uniform_rate")
    tracer.wrap(dct, "integral_sequence", "dct.integral_sequence")
    tracer.wrap(dct, "dct_inequality_check", "dct.dct_inequality_check")
    tracer.wrap(dct, "metastable_dct_search", "dct.metastable_dct_search",
                search_counts)
    tracer.wrap(measure, "audit_preloeb", "measure.audit_preloeb", audit_pairs)
    tracer.wrap(measure, "total_variation",
                lambda a, k: "measure.total_variation."
                + ("audit" if k.get("audit", a[1:2] == (True,)) else "fast"))
    tracer.wrap(measure, "integrate", "measure.integrate")
    tracer.wrap(measure, "audit_integration", "measure.audit_integration")
    tracer.wrap(measure, "check_measurability", "measure.check_measurability")
    tracer.wrap(P.nets, "encode_sequence_window",
                "henson.nets.encode_sequence_window",
                lambda a, k, r: tracer.count("henson.nets.points", a[1] + 1))


def traced_op(op_id: int, op: harness.Op, tracer: Tracer, P) -> tuple:
    """One op inside a root span with its op id: (seconds, answer correct).

    The wrappers are installed for this op only, so untraced ops run the
    program's own functions.
    """
    install(tracer, P)
    tracer.op = op_id
    before = tracer.bookkeeping_s
    tracer.recording = True
    index = tracer.open(f"op.{op.kind}")
    start = time.perf_counter()
    try:
        result = op.run()
        ok = True
    except (Exception, SystemExit):  # as in harness.execute
        ok = False
    elapsed = time.perf_counter() - start
    tracer.close(index)
    tracer.recording = False
    tracer.unwrap()
    return (elapsed - (tracer.bookkeeping_s - before),
            ok and harness.judge(op, result))


def per_layer(tracer: Tracer, overhead_frac: float) -> dict:
    total, self_time = tracer.durations()
    names = [s[0] for s in tracer.spans]
    values = dict.fromkeys(PER_LAYER, 0)
    for metric, (kind, wanted) in TIMES.items():
        source = self_time if kind == "self" else total
        values[metric] = sum(t for n, t in zip(names, source) if n in wanted)
    for metric, wanted in CALLS.items():
        values[metric] = sum(1 for n in names if n in wanted)
    for metric, amount in tracer.counts.items():
        values[metric] = amount
    values["trace.overhead_frac"] = overhead_frac
    return values


def write_spans(tracer: Tracer, plan: harness.Plan) -> str:
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / f"spans-{plan.workload}-{plan.seed}.jsonl"
    total, self_time = tracer.durations()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["id", "name", "op", "parent", "start", "end",
                             "duration", "self"]) + "\n")
        for i, (s, d, st) in enumerate(zip(tracer.spans, total, self_time)):
            fh.write(json.dumps([i, s[0], s[1], s[2], s[3], s[4], d, st])
                     + "\n")
    return str(path)


def traced_run(plan: harness.Plan, warm: tuple) -> dict:
    """Each op of the plan runs once untraced and once traced, in
    alternating order, so drifts in machine speed cancel in the overhead."""
    ops = plan.ops
    tracer = Tracer()
    times = {False: 0.0, True: 0.0}
    failed = 0
    for op_id, op in enumerate(ops):
        for traced in ((False, True) if op_id % 2 else (True, False)):
            if traced:
                elapsed, ok = traced_op(op_id, op, tracer, plan.program)
            else:
                elapsed, ok = harness.execute(op)
            times[traced] += elapsed
            failed += not ok
    untraced_rate, traced_rate = len(ops) / times[False], len(ops) / times[True]
    overhead = 1.0 - traced_rate / untraced_rate
    values = per_layer(tracer, overhead)
    failed += warm[1]
    attempted = 2 * len(ops) + (warm[0] if warm[1] else 0)
    meta = harness.metadata(plan, spans=len(tracer.spans),
                            span_file=write_spans(tracer, plan),
                            untraced_ops_per_s=untraced_rate,
                            traced_ops_per_s=traced_rate,
                            failed=failed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "meta": meta,
    }
