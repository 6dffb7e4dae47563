"""Literal answer oracles, independent of the program under test.

Each oracle reads the same JSON data the benchmark writes for the program
and computes the answer straight from the definitions.  They run outside
every timed region, so they favour plainness over speed, except where a
literal scan would dominate a run's wall time (window minima use a sliding
deque).
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction


def q(text) -> Fraction:
    """A rational from its "p/q" file form (ints pass through)."""
    return Fraction(text)


# -- sequences and windows --------------------------------------------------------


def f_coefficients(expr: str) -> tuple:
    """(k, c) for a sampling written "kn+c"."""
    m = re.fullmatch(r"(\d*)n(?:\+(\d+))?", expr.replace(" ", ""))
    if not m:
        raise ValueError(f"not a kn+c sampling: {expr!r}")
    return int(m.group(1) or 1), int(m.group(2) or 0)


def f_iterate(expr: str, times: int, start: int = 0) -> int:
    """F applied `times` times to `start`."""
    k, c = f_coefficients(expr)
    x = start
    for _ in range(times):
        x = k * x + c
    return x


class Values:
    """Index -> value for a sequence JSON with a constant or periodic tail."""

    def __init__(self, seq_json: dict):
        self.prefix = [q(v) for v in seq_json["prefix"]]
        tail = seq_json.get("tail", {"constant": True})
        self.period = 1 if tail.get("constant") else int(tail["period"])
        self.tail_start = len(self.prefix) - self.period

    def __call__(self, n: int) -> Fraction:
        if n < len(self.prefix):
            return self.prefix[n]
        T, p = self.tail_start, self.period
        return self.prefix[T + (n - T) % p]


def window_osc(values: Values, lo: int, hi: int) -> Fraction:
    """max - min of the sequence over indices lo..hi."""
    vals = [values(n) for n in range(lo, hi + 1)]
    return max(vals) - min(vals)


def first_witness(values: Values, eps: Fraction, expr: str, E) -> object:
    """First i in sorted E whose window [i, F(i)] oscillates by <= eps."""
    k, c = f_coefficients(expr)
    for i in sorted(set(E)):
        if window_osc(values, i, k * i + c) <= eps:
            return i
    return None


def min_window_osc(values: Values, width: int) -> Fraction:
    """inf over all i of the oscillation on [i, i + width].

    Once a window starts at or past the tail start it repeats with the tail
    period, so starts below tail_start + period cover every window.
    """
    starts = values.tail_start + values.period
    best = None
    lo_q, hi_q = deque(), deque()
    for n in range(starts + width):
        v = values(n)
        while lo_q and lo_q[-1][1] >= v:
            lo_q.pop()
        while hi_q and hi_q[-1][1] <= v:
            hi_q.pop()
        lo_q.append((n, v))
        hi_q.append((n, v))
        i = n - width
        if i < 0:
            continue
        while lo_q[0][0] < i:
            lo_q.popleft()
        while hi_q[0][0] < i:
            hi_q.popleft()
        osc = hi_q[0][1] - lo_q[0][1]
        if best is None or osc < best:
            best = osc
    return best


# -- measures ---------------------------------------------------------------------


def integral(measure_json: dict, f_json: dict) -> Fraction:
    weights = measure_json["weights"]
    values = f_json["values"]
    return sum((q(values[w]) * q(weights[w]) for w in measure_json["omega"]),
               Fraction(0))


def algebra_sets(measure_json: dict) -> list:
    """The addressable sets, in file order (powerset in bitmask order)."""
    omega = measure_json["omega"]
    if measure_json["algebra"] == "powerset":
        return [frozenset(w for b, w in enumerate(omega) if mask >> b & 1)
                for mask in range(1 << len(omega))]
    return [frozenset(A) for A in measure_json["algebra"]]


def separates(measure_json: dict, f_json: dict, A, u: Fraction,
              v: Fraction) -> bool:
    """f <= v on A and f >= u off A."""
    values = {w: q(x) for w, x in f_json["values"].items()}
    return all(values[w] <= v if w in A else values[w] >= u
               for w in measure_json["omega"])


def measurable_exists(measure_json: dict, f_json: dict, u: Fraction,
                      v: Fraction) -> bool:
    return any(separates(measure_json, f_json, A, u, v)
               for A in algebra_sets(measure_json))


# -- finite structures and formulas --------------------------------------------------


class Tables:
    """A structure JSON read back as plain lookup tables."""

    def __init__(self, data: dict):
        self.points = {}
        self.metric = {}
        self.anchor = {}
        for sort, spec in data["sorts"].items():
            pts = [str(p) for p in spec["points"]]
            self.points[sort] = pts
            self.anchor[sort] = str(spec["anchor"])
            for i, a in enumerate(pts):
                for j, b in enumerate(pts):
                    self.metric[(sort, a, b)] = q(spec["metric"][i][j])
        self.functions = data["functions"]


_REAL_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": min,
    "max": max,
    "abs": abs,
}


def _term(S: Tables, t, env: dict):
    kind = type(t).__name__
    if kind == "Lit":
        return Fraction(t.value)
    if kind == "Var":
        return env[t.name]
    if kind == "Const":
        spec = S.functions[t.name]
        return q(spec["value"]) if spec["range"] == "R" else spec["value"]
    args = [_term(S, a, env) for a in t.args]
    if t.func == "d":
        sort = t.args[0].sort
        if sort == "R":
            return abs(args[0] - args[1])
        return S.metric[(sort, args[0], args[1])]
    if t.func in _REAL_OPS:
        return _REAL_OPS[t.func](*args)
    spec = S.functions[t.func]
    value = spec["table"]["|".join(args)]
    return q(value) if spec["range"] == "R" else value


def holds(S: Tables, phi, env=None) -> bool:
    """Discrete satisfaction read off the tables.

    On a finite structure every comparison has positive slack or is exact,
    so approximate satisfaction coincides with this relation.
    """
    env = dict(env or {})
    kind = type(phi).__name__
    if kind == "AtomLe":
        return _term(S, phi.term, env) <= phi.bound
    if kind == "AtomGe":
        return _term(S, phi.term, env) >= phi.bound
    if kind == "And":
        return holds(S, phi.left, env) and holds(S, phi.right, env)
    if kind == "Or":
        return holds(S, phi.left, env) or holds(S, phi.right, env)
    sort = phi.var.sort
    anchor = S.anchor[sort]
    if kind == "Exists":
        ball = [p for p in S.points[sort]
                if S.metric[(sort, p, anchor)] <= phi.radius]
        return any(holds(S, phi.body, {**env, phi.var.name: p}) for p in ball)
    if kind == "Forall":
        ball = [p for p in S.points[sort]
                if S.metric[(sort, p, anchor)] < phi.radius]
        return all(holds(S, phi.body, {**env, phi.var.name: p}) for p in ball)
    raise TypeError(f"not a formula: {phi!r}")
