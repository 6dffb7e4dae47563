"""Dominated convergence at finite scale.

A directed family pairs a positive finite measure with one tail-structured
sequence per sample point (the slice at that point).  The induced integral
sequence j -> I(phi_j) is again tail-structured, because a rational
combination of sequences sharing a tail horizon and period is periodic with
the same data; that keeps both sides of the oscillation inequality exact.

The metastable rate search is the empirical, desk-scale counterpart of the
compactness argument: given a slice-level rate it computes the minimal
prefix rates for the integral sequences of a finitely generated class and
reports infeasibility instead of truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple

from .directed import Sampling
from .errors import IncoherentTails, MalformedInput, PreconditionViolated
from .measure import MeasureStructure, measure_from_json, measure_to_json
# check_rate and brute_min_uniform_rate stay importable: bench/ wraps them
from .netcore import (  # noqa: F401
    Constant,
    Periodic,
    RateSpec,
    SequenceSpec,
    brute_min_uniform_rate,
    check_rate,
    osc_total_exact,
    sequence_from_json,
    sequence_to_json,
)
from .netcore import _eps_pair, _grid_witnesses, _search_range, _sorted_rate
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class DirectedFamily:
    """A measure together with one sequence slice per sample point."""

    measure: MeasureStructure
    slices: Mapping[str, SequenceSpec]
    norm_phi: Optional[Fraction] = None

    def __post_init__(self):
        slices = dict(self.slices)
        object.__setattr__(self, "slices", slices)
        if self.measure.kind == "signed":
            raise ValueError("directed families use positive measures")
        if set(slices) != set(self.measure.omega):
            raise IncoherentTails(
                "slices must cover exactly the sample space: "
                f"got {sorted(slices)}, need {sorted(self.measure.omega)}"
            )
        for w, s in slices.items():
            if any(isinstance(v, tuple) for v in s.prefix):
                raise IncoherentTails(f"slice at {w!r} must be scalar-valued")
        norm = self.norm_phi
        actual = max(max(max(s.prefix), -min(s.prefix)) for s in slices.values())
        if norm is None:
            norm = actual
        else:
            norm = parse_rational(norm)
            if actual > norm:
                raise ValueError(
                    f"declared ‖phi‖ = {norm} below the actual sup {actual}"
                )
        object.__setattr__(self, "norm_phi", norm)

    def tail_data(self) -> Tuple[int, int]:
        """Common tail horizon and period: max of starts, lcm of periods."""
        return (max(s.tail_start for s in self.slices.values()),
                math.lcm(*(s.period for s in self.slices.values())))


def integral_sequence(fam: DirectedFamily) -> SequenceSpec:
    """The real-valued sequence j -> I(phi_j), tail structure inherited."""
    T, p = fam.tail_data()
    merged = {}  # equal slices are summed once, with their weights added
    for w in fam.measure.omega:
        s = fam.slices[w]
        entry = merged.setdefault((s._pairs, s.period), [s, 0])
        entry[1] += fam.measure.weights[w]
    terms = [(s.pairs(0, T + p - 1, T + p), *weight.as_integer_ratio())
             for s, weight in merged.values()]
    values = []
    for j in range(T + p):
        num, den = 0, 1
        for column, a, b in terms:
            (n, d), = column[j]
            num, den = num * b * d + a * n * den, den * b * d
        values.append(Fraction(num, den))
    tail = Constant() if p == 1 else Periodic(p)
    return SequenceSpec(prefix=tuple(values), tail=tail)


@dataclass(frozen=True)
class DctCheck:
    holds: bool
    lhs: Fraction
    rhs: Fraction

    def __bool__(self) -> bool:
        return self.holds


def dct_inequality_check(fam: DirectedFamily) -> DctCheck:
    """osc of the integral sequence against ‖mu‖ times the worst slice osc.

    The inequality is a theorem for every family; a failure here is an
    artifact bug, so callers may assert the result.
    """
    lhs = osc_total_exact(integral_sequence(fam))
    norm_mu = fam.measure.norm()
    rhs = norm_mu * max(
        osc_total_exact(fam.slices[w]) for w in fam.measure.omega
    )
    return DctCheck(lhs <= rhs, lhs, rhs)


@dataclass(frozen=True)
class DctSearchResult:
    """Either a rate per epsilon, or the epsilons that have none."""

    rate: Optional[RateSpec]
    infeasible: Tuple[Fraction, ...] = ()
    horizon: Optional[int] = None

    @property
    def feasible(self) -> bool:
        return self.rate is not None

    def __bool__(self) -> bool:
        return self.feasible


def metastable_dct_search(families: Iterable[DirectedFamily], r, s,
                          eta: Sampling, slice_rate: RateSpec, horizon=None,
                          eps_grid: Optional[Iterable] = None) -> DctSearchResult:
    """Empirical metastable dominated convergence over a finite class.

    Preconditions (violations raise PreconditionViolated naming the
    offender): every family has ‖phi‖ <= 1 and ‖mu‖ <= s, and every slice
    passes check_rate with the slice-level rate at every grid epsilon > r.
    For each grid epsilon > r*s the result's rate is the minimal prefix set
    valid for all integral sequences, as brute_min_uniform_rate finds it;
    epsilons with none are reported, never silently truncated.  Each
    distinct slice and integral sequence is read in one pass for the grid.
    """
    if horizon is not None and horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    families = list(families)
    r, s = parse_rational(r), parse_rational(s)
    grid = sorted(
        parse_rational(e) for e in
        (eps_grid if eps_grid is not None else slice_rate.epsilons())
    )
    if any(eps <= r for eps in grid):
        raise ValueError("grid epsilons must exceed r")
    rates = [(_eps_pair(e), _sorted_rate(slice_rate.rate_for(e))) for e in grid]

    passed = set()
    for idx, fam in enumerate(families):
        if fam.norm_phi > 1:
            raise PreconditionViolated(
                f"family #{idx}: ‖phi‖ = {format_rational(fam.norm_phi)} > 1"
            )
        if fam.measure.norm() > s:
            raise PreconditionViolated(
                f"family #{idx}: ‖mu‖ = {format_rational(fam.measure.norm())} "
                f"> s = {format_rational(s)}"
            )
        for w, slice_seq in sorted(fam.slices.items()):
            if (key := (slice_seq._pairs, slice_seq.period)) in passed:
                continue
            for eps, witness in zip(grid, _grid_witnesses(slice_seq, eta,
                                                          rates)):
                if witness is None:
                    raise PreconditionViolated(
                        f"family #{idx}, slice {w!r}: no witness in the "
                        f"slice rate at epsilon = {format_rational(eps)}"
                    )
            passed.add(key)

    out_grid = [eps for eps in grid if eps > r * s]
    tops, searched = [0] * len(out_grid), set()
    for seq in map(integral_sequence, families):
        if (key := (seq._pairs, seq.period)) not in searched:
            searched.add(key)
            E = _search_range(seq, eta, horizon)
            tops = [None if top is None or w is None else max(top, w)
                    for top, w in zip(tops, _grid_witnesses(seq, eta, [
                        (eps.as_integer_ratio(), E) for eps in out_grid]))]
    if None in tops:
        return DctSearchResult(None, tuple(
            eps for eps, top in zip(out_grid, tops) if top is None), horizon)
    return DctSearchResult(RateSpec(r=r * s, per_epsilon={
        eps: range(top + 1) for eps, top in zip(out_grid, tops)}), (), horizon)


# -- JSON -------------------------------------------------------------------------


def family_to_json(fam: DirectedFamily) -> dict:
    return {
        "measure": measure_to_json(fam.measure),
        "slices": {w: sequence_to_json(s) for w, s in fam.slices.items()},
        "norm_phi": format_rational(fam.norm_phi),
    }


def family_from_json(data: dict) -> DirectedFamily:
    """The inverse of family_to_json; MalformedInput, naming the field, on
    any other shape."""
    if not isinstance(data, dict):
        raise MalformedInput(
            f"a family is a JSON object, not a {type(data).__name__}")
    measure, slices = data.get("measure"), data.get("slices")
    if not isinstance(measure, dict):
        raise MalformedInput(
            f'"measure" must be a measure object, got {measure!r}')
    if not isinstance(slices, dict):
        raise MalformedInput(
            f'"slices" must map sample points to sequences, got {slices!r}')
    return DirectedFamily(
        measure=measure_from_json(measure),
        slices={w: sequence_from_json(s) for w, s in slices.items()},
        norm_phi=data.get("norm_phi"),
    )
