"""Finitely additive (signed) measures on finite sample spaces.

A measure structure stores atom weights; the induced set function
mu(A) = sum of weights over A is finitely additive by construction, and a
sub-algebra restricts which sets are addressable without changing the
weights.  Audits check only the clauses that can fail for this
representation, in closed form over the weights and the algebra's atoms.

L-infinity functions are total rational-valued maps on the sample space
with the usual lattice-algebra operations; integration is the weighted sum,
which on a finite space is exactly the Riesz representation of the
integration functional.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from math import lcm
from typing import Iterable, Mapping, Optional, Tuple

from .errors import MalformedInput, UVOrder, expect, json_object
from .rationals import format_rational, parse_rational

KINDS = ("probability", "finite", "signed")


@dataclass(frozen=True)
class MeasureStructure:
    """Finite sample space, set algebra, and an atom-weight measure.

    `algebra` is None for the full powerset, or an explicit tuple of
    frozensets.  `kind` selects the axiom package audits enforce:
    probability (positive, total weight 1), finite (positive), or signed.
    `bound` is the declared C with total variation at most C.
    """

    omega: Tuple[str, ...]
    weights: Mapping[str, Fraction]
    kind: str = "finite"
    algebra: Optional[Tuple[frozenset, ...]] = None
    anchor: Optional[str] = None
    bound: Optional[Fraction] = None

    def __post_init__(self):
        omega = tuple(str(w) for w in self.omega)
        object.__setattr__(self, "omega", omega)
        if len(set(omega)) != len(omega) or not omega:
            raise ValueError("sample space must be a nonempty set of labels")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        weights = {str(k): parse_rational(v) for k, v in dict(self.weights).items()}
        for w in omega:
            if w not in weights:
                raise ValueError(f"missing weight for {w!r}")
        object.__setattr__(self, "weights", weights)
        anchor = self.anchor if self.anchor is not None else omega[0]
        if anchor not in omega:
            raise ValueError(f"anchor {anchor!r} not a sample point")
        object.__setattr__(self, "anchor", anchor)
        if self.algebra is not None:
            family = tuple(dict.fromkeys(frozenset(A) for A in self.algebra))
            for A in family:
                if not A <= set(omega):
                    raise ValueError(f"algebra set {sorted(A)} escapes the space")
            object.__setattr__(self, "algebra", family)
        bound = self.bound
        if bound is not None:
            bound = parse_rational(bound)
        object.__setattr__(self, "bound", bound)

    # set plumbing --------------------------------------------------------

    @property
    def is_powerset(self) -> bool:
        return self.algebra is None

    def sets(self) -> Iterable[frozenset]:
        if self.is_powerset:
            return (frozenset(c) for k in range(len(self.omega) + 1)
                    for c in combinations(self.omega, k))
        return iter(self.algebra)

    def mu(self, A: Iterable[str]) -> Fraction:
        A = frozenset(A)
        if not (A <= set(self.omega) if self.is_powerset else A in self.algebra):
            raise ValueError(f"set {sorted(A)} is not in the algebra")
        return sum((self.weights[w] for w in A), Fraction(0))

    def norm(self) -> Fraction:
        """Fast-mode total variation: the sum of |weight| over omega."""
        return sum((abs(self.weights[w]) for w in self.omega), Fraction(0))

    @cached_property
    def _family(self) -> "_Family":
        """An explicit family's audit facts, built when an audit first
        needs them, never at load."""
        return _Family(self)


def total_variation(M: MeasureStructure, audit: bool = False) -> Fraction:
    """The sum of |weight|; with `audit`, the value the axiom audit uses.

    On any algebra the sup over pairs of sets of |mu(A)| + |mu(B)| -
    |mu(A & B)| is the sum of |mu(atom)| (split A and B into the disjoint
    A - B, B - A and A & B; the positive and negative atoms reach it).  A
    family closed under intersection that is not an algebra gets that sup
    over its own pairs, and any other family the sum of |weight|.
    """
    if audit and not M.is_powerset:
        return M._family.tv
    return M.norm()


# -- audits ---------------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    clause: str
    ok: bool
    witness: str = ""


@dataclass(frozen=True)
class Report:
    entries: Tuple[ReportEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> Tuple[ReportEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


def _fmt_set(A: frozenset) -> str:
    return "{" + ", ".join(sorted(A)) + "}"


def _entry(clause: str, witness: Optional[str]) -> ReportEntry:
    """A clause that holds when there is no witness against it."""
    return ReportEntry(clause, witness is None, witness or "")


_CLOSURE = ("algebra contains empty set and the whole space",
            "closed under union", "closed under intersection",
            "closed under complement")


def _first_missing_pair(masks: list, index: set):
    """(clause, i, j) for the first pair in visiting order whose union, or
    else intersection, is missing from the index."""
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a | b not in index:
                return _CLOSURE[1], i, j
            if a & b not in index:
                return _CLOSURE[2], i, j
    return None


class _Family:
    """An explicit family as the audits read it, built on first use, with
    mu computed once per set.

    Every member is a union of classes of points no member separates, so
    the family is an algebra exactly when it holds all 2^m unions of its m
    classes, which are then its atoms: O(sum |A|).  Any other family has its
    closure clauses checked pair by pair over int bitmasks (bit i is
    omega[i]).
    """

    def __init__(self, M: MeasureStructure):
        sets, weights = M.algebra, M.weights
        self.mus = [sum((weights[w] for w in A), Fraction(0)) for A in sets]
        signature = dict.fromkeys(M.omega, 0)
        for i, A in enumerate(sets):
            for w in A:
                signature[w] |= 1 << i
        atoms = dict.fromkeys(signature.values(), Fraction(0))
        for w, s in signature.items():
            atoms[s] += weights[w]
        self.closure = [ReportEntry(c, True) for c in _CLOSURE]
        if len(sets) == 1 << len(atoms):
            self.total = sum(atoms.values())
            self.tv = sum(map(abs, atoms.values()))
            return

        bit = {w: 1 << i for i, w in enumerate(M.omega)}
        masks = [sum(bit[w] for w in A) for A in sets]
        index, full = set(masks), (1 << len(M.omega)) - 1
        self.total = self.mus[masks.index(full)] if full in index else None
        missing = next((A for m, A in ((0, frozenset()), (full, frozenset(
            M.omega))) if m not in index), None)
        if missing is not None:
            self.closure[0] = _entry(_CLOSURE[0], f"missing {_fmt_set(missing)}")
        pair = _first_missing_pair(masks, index)
        if pair is not None:
            clause, i, j = pair
            op = "∪" if clause == _CLOSURE[1] else "∩"
            self.closure[1:3] = [_entry(
                clause, f"{_fmt_set(sets[i])} {op} {_fmt_set(sets[j])}")]
        comp = next((A for A, a in zip(sets, masks) if full ^ a not in index),
                    None)
        if comp is not None:
            self.closure[-1] = _entry(_CLOSURE[3],
                                      f"complement of {_fmt_set(comp)}")

        if pair is None or pair[0] == _CLOSURE[1] and all(
                a & b in index for a in masks for b in masks):
            scale = lcm(*(v.denominator for v in self.mus))
            size = {a: abs(v.numerator) * scale // v.denominator
                    for a, v in zip(masks, self.mus)}
            self.tv = Fraction(max((size[a] + size[b] - size[a & b] for a in
                                    masks for b in masks), default=0), scale)
        else:
            self.tv = M.norm()

    def first(self, M: MeasureStructure, test) -> Optional[str]:
        """The witness "mu(A) = v" for the first set, in family order, whose
        measure passes test, or None."""
        return next((f"mu({_fmt_set(A)}) = {v}"
                     for A, v in zip(M.algebra, self.mus) if test(v)), None)


def _first_heavier(M: MeasureStructure) -> str:
    """The witness "mu(A) = v" for the first set of the powerset in sets()
    order (by size, then by index) with mu(A) > mu(Omega); some weight must
    be negative.

    Its size k is the least whose k largest weights exceed mu(Omega).  Its
    indices are chosen in turn, each the least after which the largest
    remaining weights still complete a sum above mu(Omega).  Each index is
    tried once: O(n^2 log n).
    """
    weights = [M.weights[w] for w in M.omega]
    n, total = len(weights), sum(weights, Fraction(0))
    k = next(k for k, s in enumerate(accumulate(
        sorted(weights, reverse=True), initial=Fraction(0))) if s > total)
    chosen, partial = [], Fraction(0)
    for rest in range(k - 1, -1, -1):
        i = next(i for i in range(chosen[-1] + 1 if chosen else 0, n - rest)
                 if partial + weights[i]
                 + sum(heapq.nlargest(rest, weights[i + 1:])) > total)
        chosen.append(i)
        partial += weights[i]
    return f"mu({_fmt_set(M.omega[i] for i in chosen)}) = {partial}"


def audit_preloeb(M: MeasureStructure) -> Report:
    """Check the set-algebra and measure axioms clause by clause; a failure
    is an entry with its first witness in sets() order, never an exception.

    mu({}) = 0 and modularity are identities of the representation and are
    not audited.  A powerset passes the closure clauses by construction and
    the rest reduce to its n weights: O(n log n).
    """
    tv = total_variation(M, audit=True)
    family = None if M.is_powerset else M._family
    entries = ([ReportEntry(c, True) for c in _CLOSURE] if family is None
               else list(family.closure))
    if M.kind in ("probability", "finite"):
        if family is None:
            low = next((f"mu({{{w}}}) = {M.weights[w]}" for w in M.omega
                        if M.weights[w] < 0), None)
            # a set outweighs Omega only if some weight is negative
            high = None if low is None else _first_heavier(M)
        else:
            low = family.first(M, lambda v: v < 0)
            high = None if family.total is None else family.first(
                M, lambda v: v > family.total)
        entries.append(_entry("0 <= mu(A)", low))
        entries.append(_entry("mu(A) <= mu(Omega)", high))
        if M.kind == "probability":
            entries.append(_entry("probability: total variation 1",
                                  None if tv == 1 else f"‖mu‖ = {tv}"))
    if M.bound is not None:
        entries.append(_entry(
            "total variation within declared bound",
            None if tv <= M.bound else f"‖mu‖ = {tv} > C = {M.bound}"))
    return Report(tuple(entries))


# -- L-infinity functions ---------------------------------------------------------


@dataclass(frozen=True)
class LInfFunction:
    """A total rational-valued function on the sample space."""

    values: Mapping[str, Fraction]

    def __post_init__(self):
        vals = {str(k): parse_rational(v) for k, v in dict(self.values).items()}
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, omega: Iterable[str], c) -> "LInfFunction":
        c = parse_rational(c)
        return cls({w: c for w in omega})

    @classmethod
    def chi(cls, omega: Iterable[str], A: Iterable[str]) -> "LInfFunction":
        A = frozenset(A)
        return cls({w: Fraction(int(w in A)) for w in omega})

    def __call__(self, w: str) -> Fraction:
        return self.values[w]

    def domain(self) -> Tuple[str, ...]:
        return tuple(self.values)

    def _zip(self, other, op) -> "LInfFunction":
        if set(self.values) != set(other.values):
            raise ValueError("functions live on different sample spaces")
        return LInfFunction({w: op(self.values[w], other.values[w])
                             for w in self.values})

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, LInfFunction):
            return self._zip(other, lambda a, b: a * b)
        c = parse_rational(other)
        return LInfFunction({w: c * v for w, v in self.values.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def meet(self, other) -> "LInfFunction":
        return self._zip(other, min)

    def join(self, other) -> "LInfFunction":
        return self._zip(other, max)

    def abs(self) -> "LInfFunction":
        return LInfFunction({w: abs(v) for w, v in self.values.items()})

    def pos_part(self) -> "LInfFunction":
        return LInfFunction({w: max(v, Fraction(0))
                             for w, v in self.values.items()})

    def neg_part(self) -> "LInfFunction":
        return (-self).pos_part()

    def sup(self) -> Fraction:
        return max(self.values.values())

    def inf(self) -> Fraction:
        return min(self.values.values())

    def norm(self) -> Fraction:
        return max(abs(v) for v in self.values.values())


def _check_domain(M: MeasureStructure, f: LInfFunction) -> None:
    if set(f.values) != set(M.omega):
        raise ValueError("function domain differs from the sample space")


def integrate(M: MeasureStructure, f: LInfFunction) -> Fraction:
    """The integration functional: the exact weighted sum over atoms."""
    _check_domain(M, f)
    return sum((f(w) * M.weights[w] for w in M.omega), Fraction(0))


def audit_integration(M: MeasureStructure,
                      functions: Iterable[LInfFunction]) -> Report:
    """Check the positivity/bound clauses per kind and the Lipschitz
    estimate on the supplied sample functions, integrating each once.
    Linearity and I(chi_A) = mu(A) are identities of the representation
    (both sides are the same weighted sums) and are not audited."""
    samples = [(f, integrate(M, f)) for f in functions]
    norm_mu = total_variation(M, audit=True)

    def first(clause, bad):
        return _entry(clause, next((f"If = {v}" for f, v in samples
                                    if bad(f, v)), None))

    if M.kind in ("probability", "finite"):
        entries = [
            first("‖mu‖ inf f <= If <= ‖mu‖ sup f", lambda f, v: not (
                norm_mu * f.inf() <= v <= norm_mu * f.sup())),
            first("positivity", lambda f, v: f.inf() >= 0 and v < 0)]
    else:
        entries = [first("|If| <= ‖mu‖ ‖f‖",
                         lambda f, v: abs(v) > norm_mu * f.norm())]
    ok = all(abs(v - w) <= norm_mu * (f - g).norm()
             for f, v in samples for g, w in samples)
    entries.append(_entry("Lipschitz", None if ok else "pair of samples"))
    return Report(tuple(entries))


def check_measurability(M: MeasureStructure, f: LInfFunction, u, v
                        ) -> Optional[frozenset]:
    """An algebra set A with f <= v on A and f >= u off A, if one exists.

    This is the approximate-measurability clause at thresholds u < v; on a
    powerset algebra the sublevel set always works.
    """
    u, v = parse_rational(u), parse_rational(v)
    if u >= v:
        raise UVOrder(f"need u < v, got u = {u}, v = {v}")
    _check_domain(M, f)
    if M.is_powerset:
        return frozenset(w for w in M.omega if f(w) <= v)
    for A in M.sets():
        if all(f(w) <= v for w in A) and all(f(w) >= u for w in set(M.omega) - A):
            return A
    return None


# -- JSON -------------------------------------------------------------------------


def measure_to_json(M: MeasureStructure) -> dict:
    data = {
        "omega": list(M.omega),
        "anchor": M.anchor,
        "weights": {w: format_rational(v) for w, v in M.weights.items()},
        "algebra": "powerset" if M.is_powerset
        else [sorted(A) for A in M.algebra],
        "kind": M.kind,
    }
    if M.bound is not None:
        data["bound"] = format_rational(M.bound)
    return data


def _is_label_list(x) -> bool:
    """A JSON list of sample-point labels (strings or integers)."""
    return isinstance(x, list) and all(
        isinstance(w, (str, int)) and not isinstance(w, bool) for w in x)


def measure_from_json(data: dict) -> MeasureStructure:
    """The inverse of measure_to_json; MalformedInput, naming the field, on
    any other shape."""
    data = json_object(data, "measure")
    omega, algebra = data.get("omega"), data.get("algebra", "powerset")
    if not _is_label_list(omega):
        raise MalformedInput(
            f'"omega" must be a list of labels, got {omega!r}')
    weights = expect(data.get("weights"), dict, "weights",
                     "map labels to values")
    if algebra != "powerset" and not (
            isinstance(algebra, list) and all(map(_is_label_list, algebra))):
        raise MalformedInput('"algebra" must be "powerset" or a list of lists '
                             f"of labels, got {algebra!r}")
    return MeasureStructure(
        omega=tuple(omega),
        weights=weights,
        kind=data.get("kind", "finite"),
        algebra=None if algebra == "powerset"
        else tuple(frozenset(A) for A in algebra),
        anchor=data.get("anchor"),
        bound=data.get("bound"),
    )


def linf_from_json(data: dict) -> LInfFunction:
    """{"values": {label: value}} or the bare map; MalformedInput, naming
    the field, on any other shape."""
    values = data.get("values", data) if isinstance(data, dict) else data
    if not isinstance(values, dict):
        raise MalformedInput(f'"values" must map labels to values, got {data!r}')
    return LInfFunction(values)


def linf_to_json(f: LInfFunction) -> dict:
    return {"values": {w: format_rational(v) for w, v in f.values.items()}}
