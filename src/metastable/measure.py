"""Finitely additive (signed) measures on finite sample spaces.

A measure structure stores atom weights; the induced set function
mu(A) = sum of weights over A is finitely additive by construction, and a
sub-algebra restricts which sets are addressable without changing the
weights.  Audits re-verify the axioms as stated (closure, modularity,
positivity, total-variation bounds) rather than trusting the construction;
sets are frozensets, so the indicator and algebra-metric identities hold by
construction and need no audit.

L-infinity functions are total rational-valued maps on the sample space
with the usual lattice-algebra operations; integration is the weighted sum,
which on a finite space is exactly the Riesz representation of the
integration functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Mapping, Optional, Tuple

from .errors import MalformedInput, UVOrder
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
            items = list(self.omega)
            return (
                frozenset(c)
                for c in chain.from_iterable(
                    combinations(items, k) for k in range(len(items) + 1)
                )
            )
        return iter(self.algebra)

    def addressable(self, A: frozenset) -> bool:
        A = frozenset(A)
        if self.is_powerset:
            return A <= set(self.omega)
        return A in self.algebra

    def mu(self, A: Iterable[str]) -> Fraction:
        A = frozenset(A)
        if not self.addressable(A):
            raise ValueError(f"set {sorted(A)} is not in the algebra")
        return sum((self.weights[w] for w in A), Fraction(0))

    def norm(self) -> Fraction:
        """Fast-mode total variation (exact for powerset algebras)."""
        return sum((abs(v) for v in self.weights.values()), Fraction(0))


def total_variation(M: MeasureStructure, audit: bool = False) -> Fraction:
    """Total variation of the measure.

    Fast mode sums absolute atom weights; audit mode evaluates the literal
    sup over algebra pairs of |mu(A)| + |mu(B)| - |mu(A & B)|.
    """
    if not audit:
        return M.norm()
    best = Fraction(0)
    family = list(M.sets())
    for A in family:
        for B in family:
            value = abs(M.mu(A)) + abs(M.mu(B)) - abs(M.mu(A & B))
            if value > best:
                best = value
    return best


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


def audit_preloeb(M: MeasureStructure) -> Report:
    """Check the set-algebra and measure axioms clause by clause.

    Failures are report entries carrying the first witness, never
    exceptions; a constructed violation (e.g. a family missing a
    complement) is reported against the offending set.
    """
    entries = []
    family = list(M.sets())
    index = set(family)
    universe = frozenset(M.omega)

    def closure(name, result, witness):
        if result in index:
            return None
        return ReportEntry(name, False, witness)

    entry = ReportEntry("algebra contains empty set and the whole space", True)
    if frozenset() not in index:
        entry = ReportEntry(entry.clause, False, "missing {}")
    elif universe not in index:
        entry = ReportEntry(entry.clause, False, f"missing {_fmt_set(universe)}")
    entries.append(entry)

    bad = None
    for A in family:
        for B in family:
            bad = (closure("closed under union", A | B,
                           f"{_fmt_set(A)} ∪ {_fmt_set(B)}")
                   or closure("closed under intersection", A & B,
                              f"{_fmt_set(A)} ∩ {_fmt_set(B)}"))
            if bad:
                break
        if bad:
            break
    entries.append(bad or ReportEntry("closed under union", True))
    if not bad:
        entries.append(ReportEntry("closed under intersection", True))

    comp_bad = None
    for A in family:
        comp_bad = closure("closed under complement", universe - A,
                           f"complement of {_fmt_set(A)}")
        if comp_bad:
            break
    entries.append(comp_bad or ReportEntry("closed under complement", True))

    if frozenset() in index:
        ok = M.mu(frozenset()) == 0
        entries.append(ReportEntry("mu({}) = 0", ok, "" if ok else "mu({}) != 0"))

    mod_bad = None
    for A in family:
        for B in family:
            if (A | B) in index and (A & B) in index:
                if M.mu(A | B) + M.mu(A & B) != M.mu(A) + M.mu(B):
                    mod_bad = ReportEntry(
                        "modularity", False, f"{_fmt_set(A)}, {_fmt_set(B)}"
                    )
                    break
        if mod_bad:
            break
    entries.append(mod_bad or ReportEntry("modularity", True))

    # the literal sup needs an intersection-closed family; fall back to the
    # fast mode when closure already failed so the audit still completes
    closure_ok = all(
        (A & B) in index for A in family for B in family
    )
    tv = total_variation(M, audit=True) if closure_ok else M.norm()
    if M.kind in ("probability", "finite"):
        pos_bad = None
        for A in family:
            value = M.mu(A)
            if value < 0:
                pos_bad = ReportEntry(
                    "0 <= mu(A)", False, f"mu({_fmt_set(A)}) = {value}"
                )
                break
        entries.append(pos_bad or ReportEntry("0 <= mu(A)", True))
        top_bad = None
        total = M.mu(universe) if universe in index else None
        if total is not None:
            for A in family:
                if M.mu(A) > total:
                    top_bad = ReportEntry(
                        "mu(A) <= mu(Omega)", False,
                        f"mu({_fmt_set(A)}) = {M.mu(A)}"
                    )
                    break
        entries.append(top_bad or ReportEntry("mu(A) <= mu(Omega)", True))
        if M.kind == "probability":
            ok = tv == 1
            entries.append(ReportEntry(
                "probability: total variation 1", ok,
                "" if ok else f"‖mu‖ = {tv}"
            ))
    if M.bound is not None:
        ok = tv <= M.bound
        entries.append(ReportEntry(
            "total variation within declared bound", ok,
            "" if ok else f"‖mu‖ = {tv} > C = {M.bound}"
        ))
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


def integrate(M: MeasureStructure, f: LInfFunction) -> Fraction:
    """The integration functional: the exact weighted sum over atoms."""
    if set(f.values) != set(M.omega):
        raise ValueError("function domain differs from the sample space")
    return sum((f(w) * M.weights[w] for w in M.omega), Fraction(0))


_DEFAULT_ALPHAS = (Fraction(2), Fraction(-1, 2), Fraction(1, 3))


def audit_integration(M: MeasureStructure, functions: Iterable[LInfFunction],
                      alphas: Iterable = _DEFAULT_ALPHAS) -> Report:
    """Check linearity, the positivity/bound clauses per kind, and the
    Lipschitz estimate on the supplied sample functions."""
    fs = list(functions)
    alphas = [parse_rational(a) for a in alphas]
    entries = []
    norm_mu = total_variation(M, audit=not M.is_powerset)

    lin_bad = None
    for f in fs:
        for g in fs:
            for a in alphas:
                if integrate(M, a * f + g) != a * integrate(M, f) + integrate(M, g):
                    lin_bad = ReportEntry("linearity", False,
                                          f"alpha = {format_rational(a)}")
                    break
            if lin_bad:
                break
        if lin_bad:
            break
    entries.append(lin_bad or ReportEntry("linearity", True))

    if M.kind in ("probability", "finite"):
        box_bad = None
        for f in fs:
            value = integrate(M, f)
            if not (norm_mu * f.inf() <= value <= norm_mu * f.sup()):
                box_bad = ReportEntry(
                    "‖mu‖ inf f <= If <= ‖mu‖ sup f", False, f"If = {value}"
                )
                break
        entries.append(box_bad or ReportEntry(
            "‖mu‖ inf f <= If <= ‖mu‖ sup f", True))
        pos_bad = None
        for f in fs:
            if f.inf() >= 0 and integrate(M, f) < 0:
                pos_bad = ReportEntry("positivity", False,
                                      f"If = {integrate(M, f)}")
                break
        entries.append(pos_bad or ReportEntry("positivity", True))
    else:
        sgn_bad = None
        for f in fs:
            if abs(integrate(M, f)) > norm_mu * f.norm():
                sgn_bad = ReportEntry(
                    "|If| <= ‖mu‖ ‖f‖", False, f"If = {integrate(M, f)}"
                )
                break
        entries.append(sgn_bad or ReportEntry("|If| <= ‖mu‖ ‖f‖", True))

    lip_bad = None
    for f in fs:
        for g in fs:
            if abs(integrate(M, f) - integrate(M, g)) > norm_mu * (f - g).norm():
                lip_bad = ReportEntry("Lipschitz", False, "pair of samples")
                break
        if lip_bad:
            break
    entries.append(lip_bad or ReportEntry("Lipschitz", True))

    chi_bad = None
    for A in M.sets():
        if integrate(M, LInfFunction.chi(M.omega, A)) != M.mu(A):
            chi_bad = ReportEntry("I(chi_A) = mu(A)", False, _fmt_set(A))
            break
    entries.append(chi_bad or ReportEntry("I(chi_A) = mu(A)", True))
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
    if not isinstance(data, dict):
        raise MalformedInput(
            f"a measure is a JSON object, not a {type(data).__name__}")
    omega, weights = data.get("omega"), data.get("weights")
    algebra = data.get("algebra", "powerset")
    if not _is_label_list(omega):
        raise MalformedInput(
            f'"omega" must be a list of labels, got {omega!r}')
    if not isinstance(weights, dict):
        raise MalformedInput(
            f'"weights" must map labels to values, got {weights!r}')
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
    return LInfFunction(data["values"] if "values" in data else data)


def linf_to_json(f: LInfFunction) -> dict:
    return {"values": {w: format_rational(v) for w, v in f.values.items()}}
