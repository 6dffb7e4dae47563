"""Dominated convergence at finite scale.

A directed family pairs a positive finite measure with one tail-structured
sequence per sample point (the slice at that point).  The induced integral
sequence j -> I(phi_j) is again tail-structured, because a rational
combination of sequences sharing a tail horizon and period is periodic with
the same data; that keeps both sides of the oscillation inequality exact.

The metastable rate search is the empirical, desk-scale counterpart of the
compactness argument: given a slice-level rate it brute-forces minimal
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
from .netcore import (
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
        actual = max(self._slice_norm(s) for s in slices.values())
        if norm is None:
            norm = actual
        else:
            norm = parse_rational(norm)
            if actual > norm:
                raise ValueError(
                    f"declared ‖phi‖ = {norm} below the actual sup {actual}"
                )
        object.__setattr__(self, "norm_phi", norm)

    @staticmethod
    def _slice_norm(s: SequenceSpec) -> Fraction:
        return max(abs(v) for v in s.prefix)

    def tail_data(self) -> Tuple[int, int]:
        """Common tail horizon and period: max of starts, lcm of periods."""
        return (max(s.tail_start for s in self.slices.values()),
                math.lcm(*(s.period for s in self.slices.values())))


def integral_sequence(fam: DirectedFamily) -> SequenceSpec:
    """The real-valued sequence j -> I(phi_j), tail structure inherited."""
    T, p = fam.tail_data()
    weights = fam.measure.weights
    values = [
        sum((fam.slices[w].value(j) * weights[w] for w in fam.measure.omega),
            Fraction(0))
        for j in range(T + p)
    ]
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
    """Either a rate per epsilon, or the epsilons whose search was exhausted."""

    rate: Optional[RateSpec]
    infeasible: Tuple[Fraction, ...] = ()
    horizon: int = 0

    @property
    def feasible(self) -> bool:
        return self.rate is not None

    def __bool__(self) -> bool:
        return self.feasible


def metastable_dct_search(families: Iterable[DirectedFamily], r, s,
                          eta: Sampling, slice_rate: RateSpec, horizon: int,
                          eps_grid: Optional[Iterable] = None) -> DctSearchResult:
    """Empirical metastable dominated convergence over a finite class.

    Preconditions (violations raise PreconditionViolated naming the
    offender): every family has ‖phi‖ <= 1 and ‖mu‖ <= s, and every slice
    passes check_rate with the slice-level rate at every grid epsilon > r.
    For each grid epsilon > r*s the result's rate is the brute-force minimal
    prefix set valid for all integral sequences; infeasible epsilons are
    reported, never silently truncated.
    """
    families = list(families)
    r, s = parse_rational(r), parse_rational(s)
    grid = sorted(
        parse_rational(e) for e in
        (eps_grid if eps_grid is not None else slice_rate.epsilons())
    )
    if any(eps <= r for eps in grid):
        raise ValueError("grid epsilons must exceed r")

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
            for eps in grid:
                E = slice_rate.rate_for(eps)
                if not check_rate(slice_seq, eps, eta, E):
                    raise PreconditionViolated(
                        f"family #{idx}, slice {w!r}: no witness in the "
                        f"slice rate at epsilon = {format_rational(eps)}"
                    )

    integrals = [integral_sequence(fam) for fam in families]
    out_grid = [eps for eps in grid if eps > r * s]
    found, infeasible = {}, []
    for eps in out_grid:
        E = brute_min_uniform_rate(integrals, eps, eta, horizon)
        if E is None:
            infeasible.append(eps)
        else:
            found[eps] = E
    if infeasible:
        return DctSearchResult(None, tuple(infeasible), horizon)
    return DctSearchResult(
        RateSpec(r=r * s, per_epsilon=found), (), horizon
    )


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
