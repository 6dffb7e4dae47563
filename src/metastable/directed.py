"""Pointed directed sets and samplings over them.

Two kinds of index set matter in practice: the naturals with their usual
order, and small finite posets given by explicit tables.  The naturals are
kept symbolic (never enumerated); every operation that walks them takes an
explicit support or budget.

A sampling assigns to each index ``i`` a nonempty finite subset of the tail
``{j : j >= i}``.  Over the naturals the standard construction takes a
strictly increasing ``F`` and uses the intervals ``[N, F(N)]``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .errors import (
    AnchorNotLeast,
    MalformedInput,
    NotDirected,
    NotPartialOrder,
    NotStrictlyIncreasing,
    SamplingDomainError,
)


@dataclass(frozen=True)
class DirectedSet:
    """A pointed directed set: finite with an explicit order table, or ℕ.

    ``elements`` is ``None`` for ℕ (anchor 0, numeric order).  For finite
    sets the relation is stored as a frozenset of (a, b) pairs meaning
    a <= b, always containing the reflexive pairs.
    """

    elements: Optional[tuple] = None
    relation: Optional[frozenset] = None
    anchor: object = 0

    @property
    def is_nat(self) -> bool:
        return self.elements is None

    def leq(self, a, b) -> bool:
        if self.is_nat:
            return a <= b
        return (a, b) in self.relation

    def tail(self, i) -> frozenset:
        """The final segment {j : j >= i}; finite sets only."""
        if self.is_nat:
            raise ValueError("tail of ℕ is infinite; use an explicit support")
        return frozenset(j for j in self.elements if self.leq(i, j))

    def contains(self, x) -> bool:
        if self.is_nat:
            return isinstance(x, int) and x >= 0
        return x in self.elements


def make_nat() -> DirectedSet:
    """ℕ with the usual order and anchor 0."""
    return DirectedSet(elements=None, relation=None, anchor=0)


def make_finite_directed(elements, leq_table, anchor) -> DirectedSet:
    """Validate and build a finite pointed directed set.

    ``leq_table`` is an iterable of (a, b) pairs meaning a <= b; reflexive
    pairs are added automatically.  Raises NotPartialOrder, NotDirected, or
    AnchorNotLeast on the corresponding violation.
    """
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise NotPartialOrder("duplicate elements")
    known = set(elems)
    rel = set()
    for a, b in leq_table:
        if a not in known or b not in known:
            raise NotPartialOrder(f"pair ({a!r}, {b!r}) names unknown elements")
        rel.add((a, b))
    rel.update((x, x) for x in elems)

    for a, b in list(rel):
        if (b, a) in rel and a != b:
            raise NotPartialOrder(f"antisymmetry fails on {a!r}, {b!r}")
    for a, b in list(rel):
        for c in elems:
            if (b, c) in rel and (a, c) not in rel:
                raise NotPartialOrder(
                    f"transitivity fails: {a!r} <= {b!r} <= {c!r} but not {a!r} <= {c!r}"
                )
    for a in elems:
        for b in elems:
            if not any((a, c) in rel and (b, c) in rel for c in elems):
                raise NotDirected(f"no upper bound for {a!r}, {b!r}")
    if anchor not in known:
        raise AnchorNotLeast(f"anchor {anchor!r} not an element")
    for b in elems:
        if (anchor, b) not in rel:
            raise AnchorNotLeast(f"anchor {anchor!r} is not below {b!r}")
    return DirectedSet(elements=elems, relation=frozenset(rel), anchor=anchor)


@dataclass(frozen=True)
class AffineTail:
    """Declares F(i) = i + w for all i >= start; enables exact oscillation."""

    w: int
    start: int = 0


@dataclass(frozen=True)
class Sampling:
    """A sampling of a directed set.

    Either generated from a strictly increasing F over ℕ (eta_N = [N, F(N)]),
    or an explicit finite table i -> finite set.  Function values are
    memoized and checked lazily: any observed violation of strict growth or
    of F(N) > N raises NotStrictlyIncreasing.
    """

    domain: DirectedSet
    func: Optional[Callable[[int], int]] = None
    affine: Optional[AffineTail] = None
    table: Optional[Mapping] = None
    label: str = ""
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _keys: list = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self):
        if (self.func is None) == (self.table is None):
            raise ValueError("exactly one of func/table must be given")
        if self.table is not None:
            frozen = {i: tuple(sorted(set(s))) for i, s in self.table.items()}
            object.__setattr__(self, "table", frozen)

    @property
    def is_from_function(self) -> bool:
        return self.func is not None

    def f(self, n: int) -> int:
        """Evaluate F with lazy strictness checks against cached points."""
        if n in self._cache:
            return self._cache[n]
        if self.affine is not None and n >= self.affine.start:
            value = n + self.affine.w
        else:
            value = self.func(n)
        if not isinstance(value, int):
            raise NotStrictlyIncreasing(f"F({n}) = {value!r} is not an integer")
        if value <= n:
            raise NotStrictlyIncreasing(f"F({n}) = {value} but F(N) > N is required")
        pos = bisect_left(self._keys, n)
        if pos > 0:
            m = self._keys[pos - 1]
            if self._cache[m] >= value:
                raise NotStrictlyIncreasing(
                    f"F({m}) = {self._cache[m]} >= F({n}) = {value}"
                )
        if pos < len(self._keys):
            m = self._keys[pos]
            if value >= self._cache[m]:
                raise NotStrictlyIncreasing(
                    f"F({n}) = {value} >= F({m}) = {self._cache[m]}"
                )
        self._cache[n] = value
        self._keys.insert(pos, n)
        return value

    def eta(self, i) -> tuple:
        """The window at i, as a sorted tuple of indices."""
        if self.is_from_function:
            if not (isinstance(i, int) and i >= 0):
                raise SamplingDomainError(f"index {i!r} not in ℕ")
            return tuple(range(i, self.f(i) + 1))
        if i not in self.table:
            raise SamplingDomainError(f"sampling has no window at {i!r}")
        return self.table[i]

    def max_index(self, i) -> int:
        if self.is_from_function:
            return self.f(i)
        window = self.eta(i)
        if not window:
            raise SamplingDomainError(f"sampling has an empty window at {i!r}")
        return window[-1]

    @property
    def key(self) -> str:
        """Stable identifier used to index per-(epsilon, eta) rates."""
        if self.label:
            return self.label
        if self.table is not None:
            body = json.dumps({str(k): list(v) for k, v in self.table.items()},
                              sort_keys=True)
            return f"explicit:{body}"
        if self.affine is not None:
            return f"affine:w={self.affine.w},from={self.affine.start}"
        return f"func:{id(self.func):x}"


def sampling_from_function(F: Callable[[int], int], *, affine: Optional[AffineTail] = None,
                           label: str = "") -> Sampling:
    """Sampling of ℕ with eta_N = [N, F(N)] for strictly increasing F.

    A couple of points are probed eagerly so that obviously bad functions
    (such as F(n) = n) fail at construction; the rest is checked lazily.
    """
    s = Sampling(domain=make_nat(), func=F, affine=affine, label=label)
    s.f(0)
    s.f(1)
    return s


def affine_sampling(w: int, *, start: int = 0, label: str = "") -> Sampling:
    """The sampling generated by F(n) = n + w, with its affine tail declared."""
    if w < 1:
        raise NotStrictlyIncreasing(f"affine width {w} must be >= 1")
    return sampling_from_function(
        lambda n: n + w, affine=AffineTail(w, start), label=label or f"n+{w}"
    )


def explicit_sampling(table: Mapping, domain: Optional[DirectedSet] = None,
                      label: str = "") -> Sampling:
    """A sampling given by an explicit table i -> finite set of indices."""
    return Sampling(domain=domain or make_nat(), table=dict(table), label=label)


@dataclass(frozen=True)
class SamplingReport:
    """Outcome of validate_sampling; truthy iff every clause held."""

    ok: bool
    bad_index: object = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_sampling(eta: Sampling, D: DirectedSet,
                      support: Optional[Iterable] = None) -> SamplingReport:
    """Check the sampling clauses on a finite support.

    For finite D the support defaults to all elements; for ℕ an explicit
    support (or an explicit table, whose keys are used) is required.  The
    report names the first index whose window is empty or escapes the tail.
    """
    if support is None:
        if not D.is_nat:
            support = D.elements
        elif eta.table is not None:
            support = sorted(eta.table)
        else:
            raise ValueError("validating over ℕ needs an explicit support")
    for i in support:
        try:
            window = eta.eta(i)
        except SamplingDomainError:
            return SamplingReport(False, i, f"no window declared at {i!r}")
        except NotStrictlyIncreasing as exc:
            return SamplingReport(False, i, str(exc))
        if len(window) == 0:
            return SamplingReport(False, i, f"window at {i!r} is empty")
        for j in window:
            if not D.contains(j):
                return SamplingReport(False, i, f"{j!r} not in the directed set")
            if not D.leq(i, j):
                return SamplingReport(False, i, f"{j!r} not in the tail above {i!r}")
    return SamplingReport(True)


# -- JSON forms --------------------------------------------------------------

def directed_set_to_json(D: DirectedSet) -> dict:
    if D.is_nat:
        return {"elements": "NAT", "anchor": 0}
    return {
        "elements": list(D.elements),
        "leq": sorted([a, b] for (a, b) in D.relation if a != b),
        "anchor": D.anchor,
    }


def directed_set_from_json(data: dict) -> DirectedSet:
    if data.get("elements") == "NAT":
        return make_nat()
    return make_finite_directed(
        data["elements"], [tuple(p) for p in data.get("leq", [])], data["anchor"]
    )


def sampling_to_json(eta: Sampling) -> dict:
    if eta.table is not None:
        return {"sampling": {str(i): list(w) for i, w in eta.table.items()}}
    if eta.affine is not None and eta.affine.start == 0:
        return {"F": {"affine": {"w": eta.affine.w}}}
    raise ValueError("only explicit or affine samplings have a JSON form")


def _is_natural(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def sampling_from_json(data: dict) -> Sampling:
    """The inverse of sampling_to_json, also accepting {"F": "kn+c"};
    MalformedInput, naming the field, on any other shape."""
    if not isinstance(data, dict):
        raise MalformedInput(f"a sampling is a JSON object, not {data!r}")
    if "sampling" in data:
        table = data["sampling"]
        if not (isinstance(table, dict) and all(
                i.isdecimal() and isinstance(w, list) and all(map(_is_natural, w))
                for i, w in table.items())):
            raise MalformedInput('"sampling" must map natural numbers to lists '
                                 f"of natural numbers, got {table!r}")
        return explicit_sampling({int(i): tuple(w) for i, w in table.items()})
    spec = data.get("F")
    if isinstance(spec, str):
        return parse_f_expression(spec)
    affine = spec.get("affine") if isinstance(spec, dict) else None
    if not isinstance(affine, dict):
        raise MalformedInput(
            f'"F" must be "kn+c" or {{"affine": {{"w": w}}}}, got {spec!r}')
    w, start = affine.get("w"), affine.get("from", 0)
    if not (_is_natural(w) and _is_natural(start)):
        raise MalformedInput('"F.affine.w" and "F.affine.from" must be '
                             f"natural numbers, got {affine!r}")
    return sampling_from_function(
        lambda n, w=w: n + w, affine=AffineTail(w, start),
        label=f"n+{w}" if start == 0 else f"affine:w={w},from={start}",
    )


def parse_f_expression(text: str) -> Sampling:
    """Parse "n+c" or "kn+c" into a sampling; "n+c" declares its affine tail."""
    body = text.strip().replace(" ", "")
    import re

    m = re.fullmatch(r"(\d*)n(?:\+(\d+))?", body)
    if not m:
        raise ValueError(f"cannot parse sampling function {text!r}")
    k = int(m.group(1)) if m.group(1) else 1
    c = int(m.group(2)) if m.group(2) else 0
    if k < 1:
        raise ValueError(f"coefficient in {text!r} must be >= 1")
    if k == 1:
        if c < 1:
            raise NotStrictlyIncreasing(f"F(n) = n+{c} violates F(N) > N")
        return affine_sampling(c, label=f"n+{c}")
    label = f"{k}n+{c}" if c else f"{k}n"
    return sampling_from_function(lambda n, k=k, c=c: k * n + c, label=label)
