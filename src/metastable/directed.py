"""Pointed directed sets and samplings over them.

Two kinds of index set matter in practice: the naturals with their usual
order, and small finite posets given by explicit tables.  The naturals are
kept symbolic (never enumerated); every operation that walks them takes an
explicit support or budget.

A sampling assigns to each index ``i`` a nonempty finite subset of the tail
``{j : j >= i}``.  Samplings are plain data that always have a JSON form:
either linear over the naturals, ``F(n) = k*n + c`` with integers
``k, c >= 1`` and windows ``[N, F(N)]`` (strictly increasing with
``F(N) > N`` by construction), or an explicit table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import (
    AnchorNotLeast,
    MalformedInput,
    NotDirected,
    NotPartialOrder,
    NotStrictlyIncreasing,
    SamplingDomainError,
    UnsupportedSampling,
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


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_natural(x) -> bool:
    return _is_integer(x) and x >= 0


@dataclass(frozen=True)
class Sampling:
    """A sampling, as plain data: linear over ℕ or an explicit table.

    Linear: integers k >= 1 and c >= 1 with F(n) = k*n + c and
    eta_N = [N, F(N)]; F(N) > N and strict growth hold by construction.
    Explicit: a finite table i -> finite set of indices (``k`` and ``c``
    stay None).
    """

    k: Optional[int] = None
    c: Optional[int] = None
    table: Optional[Mapping] = None

    def __post_init__(self):
        if self.table is not None:
            if self.k is not None or self.c is not None:
                raise ValueError("a sampling is kn+c or a table, not both")
            frozen = {i: tuple(sorted(set(s))) for i, s in self.table.items()}
            object.__setattr__(self, "table", frozen)
        elif not (_is_integer(self.k) and _is_integer(self.c)):
            raise ValueError("a sampling needs integers k and c, or a table; "
                             f"got k={self.k!r}, c={self.c!r}")
        elif self.k < 1 or self.c < 1:
            raise NotStrictlyIncreasing(
                f"F(n) = {self.k}n+{self.c}: k >= 1 and c >= 1 are required "
                "for F(N) > N and strict growth")

    def f(self, n: int) -> int:
        """F(n) = k*n + c; UnsupportedSampling for an explicit table."""
        if self.table is not None:
            raise UnsupportedSampling("an explicit sampling has no F")
        return self.k * n + self.c

    def eta(self, i) -> tuple:
        """The window at i, as a sorted tuple of indices."""
        if self.table is None:
            if not _is_natural(i):
                raise SamplingDomainError(f"index {i!r} not in ℕ")
            return tuple(range(i, self.f(i) + 1))
        if i not in self.table:
            raise SamplingDomainError(f"sampling has no window at {i!r}")
        return self.table[i]

    def max_index(self, i) -> int:
        if self.table is None:
            return self.f(i)
        window = self.eta(i)
        if not window:
            raise SamplingDomainError(f"sampling has an empty window at {i!r}")
        return window[-1]

    @property
    def key(self) -> str:
        """Identifier derived from the data ("n+c", "kn+c" or
        "explicit:{...}"), used to index per-(epsilon, eta) rates."""
        if self.table is not None:
            body = json.dumps({str(i): list(w) for i, w in self.table.items()},
                              sort_keys=True)
            return f"explicit:{body}"
        return f"n+{self.c}" if self.k == 1 else f"{self.k}n+{self.c}"


def affine_sampling(w: int) -> Sampling:
    """The sampling generated by F(n) = n + w."""
    return Sampling(k=1, c=w)


def explicit_sampling(table: Mapping) -> Sampling:
    """A sampling given by an explicit table i -> finite set of indices."""
    return Sampling(table=table)


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
    return {"F": eta.key}


def sampling_from_json(data: dict) -> Sampling:
    """The inverse of sampling_to_json, also accepting {"F": {"affine":
    {"w": w}}} (a "from" key there is ignored); MalformedInput, naming the
    field, on any other shape."""
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
    w = affine.get("w")
    if not _is_natural(w):
        raise MalformedInput(
            f'"F.affine.w" must be a natural number, got {affine!r}')
    return affine_sampling(w)


_F_EXPRESSION = re.compile(r"(\d*)n(?:\+(\d+))?")


def parse_f_expression(text: str) -> Sampling:
    """Parse "n+c" or "kn+c" (k, c >= 1) into the linear sampling kn+c."""
    m = _F_EXPRESSION.fullmatch(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse sampling function {text!r}")
    return Sampling(k=int(m.group(1) or 1), c=int(m.group(2) or 0))
