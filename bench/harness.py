"""Closed-loop runner, program loading, statistics and result assembly.

One caller, one process, one thread: each op starts only after the
previous one returned.  End-to-end metrics come from untraced runs only;
the traced run (tracing.py) replays the plan once, so its work counts
repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

MODULES = {
    "cli": "metastable.cli",
    "directed": "metastable.directed",
    "netcore": "metastable.netcore",
    "measure": "metastable.measure",
    "dct": "metastable.dct",
    "generators": "metastable.generators",
    "rationals": "metastable.rationals",
    "nets": "metastable.henson.nets",
    "structure": "metastable.henson.structure",
    "semantics": "metastable.henson.semantics",
    "syntax": "metastable.henson.syntax",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def load_program() -> SimpleNamespace:
    """Import metastable afresh from this checkout's src/ directory."""
    if not (SRC / "metastable" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "metastable" or m.startswith("metastable.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ns = SimpleNamespace(**{k: importlib.import_module(v)
                            for k, v in MODULES.items()})
    origin = Path(ns.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"metastable imported from {origin}, not {SRC}")
    return ns


@dataclass
class Op:
    """One user request: `run` does the work, `check` judges its answer.

    `run` resolves every program function at call time, so the traced run
    sees the wrappers installed on the program's modules.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    size: float = 0.0


@dataclass
class Plan:
    """The ops of one pass over a workload, and the files they read."""

    workload: str
    seed: int
    ops: List[Op]
    workdir: Path
    program: SimpleNamespace

    def mix(self) -> dict:
        counts = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return dict(sorted(counts.items()))


def run_cli(P, argv) -> tuple:
    """`metastable <argv>` in-process: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = P.cli.main(argv)
    return code, out.getvalue()


def judge(op: Op, result) -> bool:
    try:
        return bool(op.check(result))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False


def execute(op: Op):
    """Run one op; returns (seconds, answer correct)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except (Exception, SystemExit):  # argparse exits on a bad command line
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    return elapsed, judge(op, result)


def closed_loop(ops: List[Op], seconds: float) -> dict:
    """Run the plan in passes, in plan order, for `seconds` of wall time.

    Every pass runs the same ops, so passes are directly comparable.  On a
    shared host timing noise is one-sided (other tenants only ever slow an
    op down), so, as with timeit, each op's latency is its fastest run, and
    ops_per_s is the rate of one caller issuing the plan's ops at those
    latencies.  The host's speed swings by up to 2x, in stretches that can
    last tens of seconds, so an op needs many samples spread over a long
    window for its fastest one to land in a quiet stretch: plans are sized
    so a pass takes under a second, no op takes more than a small share of
    one, and passes repeat until `seconds` have gone by (at least
    MIN_PASSES).  The run's length, not a pass count, is fixed, so a slow
    host gets fewer passes but the same window to find its quiet moments,
    and the whole run stays within its time.  Answer checks run between
    ops and are not timed.
    """
    best, passes, failed = None, [], 0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        runs = [execute(op) for op in ops]
        failed += sum(not ok for _, ok in runs)
        passes.append(sum(elapsed for elapsed, _ in runs))
        times = [elapsed for elapsed, _ in runs]
        best = times if best is None else list(map(min, best, times))
    return {"latencies": best, "failed": failed,
            "attempted": len(ops) * len(passes), "passes": passes,
            "ops_per_s": len(ops) / sum(best), "busy_s": sum(passes)}


def tail(latencies: List[float]) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    pos = n - TAIL_BEYOND - 1
    return ordered[pos], 100.0 * (pos + 1) / n, TAIL_BEYOND


def host_probe_s() -> float:
    """Seconds for a fixed Fraction loop that does not touch the program,
    recorded beside each run as a reading of the host's speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 20001):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def metadata(plan: Plan, **extra) -> dict:
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        **environment(),
        "ops_per_pass": len(plan.ops),
        "op_mix": plan.mix(),
        **extra,
    }


def setup(build_plan, workload: str, seed: int, small: bool) -> tuple:
    """Time SETUP_REPEATS full set-ups; keep the last plan.

    Each set-up re-imports the program, generates the inputs through its
    constructors, writes the input files and warms up one op of each kind.
    Answer oracles run inside build_plan but are excluded from the time.
    """
    times, plan, warm = [], None, []
    for _ in range(SETUP_REPEATS):
        plan = None  # free the previous plan before building the next
        start = time.perf_counter()
        P = load_program()
        plan, oracle_s = build_plan(P, workload, seed, small)
        first = {}
        for op in sorted(plan.ops, key=lambda o: o.size):
            first.setdefault(op.kind, op)
        warm = [execute(op)[1] for op in first.values()]
        times.append(time.perf_counter() - start - oracle_s)
    return plan, statistics.median(times), (len(warm), warm.count(False))


def workdir_for(workload: str, seed: int) -> Path:
    path = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def end_to_end(plan: Plan, loop: dict, setup_s: float, warm: tuple,
               seconds: float) -> tuple:
    """Warm-up ops count as attempted only when one of them failed, so a
    wrong answer during set-up still shows in ok_frac."""
    lat = loop["latencies"]
    failed = loop["failed"] + warm[1]
    attempted = loop["attempted"] + (warm[0] if warm[1] else 0)
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": loop["ops_per_s"],
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_tail_ms": tail_value * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    meta = metadata(plan, seconds=seconds, ops_completed=loop["attempted"],
                    passes_s=loop["passes"], busy_s=loop["busy_s"],
                    op_tail_percentile=tail_pct,
                    op_tail_samples_beyond=beyond, failed=failed)
    return metrics, attempted, failed, meta
