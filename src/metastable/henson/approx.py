"""The approximation relation, canonical relaxation, and weak negation.

An approximation strictly relaxes every estimate: <=-bounds move up,
>=-bounds move down, existential radii grow, universal radii shrink, at
every node of an otherwise identical tree.  Weak negation dualizes atoms
and connectives and swaps the quantifiers at unchanged radii; it is the
positive-formula stand-in for negation.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NonpositiveDelta
from ..rationals import parse_rational
from .syntax import (And, AtomGe, AtomLe, Exists, Forall, Formula, Or, _Atom,
                     _Binary, _Quantifier)

# the direction in which an approximation moves each bound or radius
_LOOSER = {AtomLe: 1, AtomGe: -1, Exists: 1, Forall: -1}
# weak negation swaps each node class with its dual
_DUAL = {AtomLe: AtomGe, AtomGe: AtomLe, And: Or, Or: And, Exists: Forall,
         Forall: Exists}


def is_approximation(phi: Formula, psi: Formula) -> bool:
    """True iff psi arises from phi by strictly relaxing every bound."""
    if isinstance(phi, _Atom):
        return (type(psi) is type(phi) and psi.term == phi.term
                and (psi.bound - phi.bound) * _LOOSER[type(phi)] > 0)
    if isinstance(phi, _Binary):
        return (type(psi) is type(phi)
                and is_approximation(phi.left, psi.left)
                and is_approximation(phi.right, psi.right))
    if isinstance(phi, _Quantifier):
        return (type(psi) is type(phi) and psi.var == phi.var
                and (psi.radius - phi.radius) * _LOOSER[type(phi)] > 0
                and is_approximation(phi.body, psi.body))
    raise TypeError(f"not a formula: {phi!r}")


def relax(phi: Formula, delta) -> Formula:
    """The canonical approximation shifted by delta.

    <=-bounds become r + delta, >=-bounds r - delta, existential radii
    r + delta; universal radii are clamped at half so they stay positive:
    max(r - delta, r/2).
    """
    delta = parse_rational(delta)
    if delta <= 0:
        raise NonpositiveDelta(f"delta must be > 0, got {delta}")
    return _relax(phi, delta)


def _relax(phi: Formula, delta: Fraction) -> Formula:
    if isinstance(phi, _Atom):
        return type(phi)(phi.term, phi.bound + _LOOSER[type(phi)] * delta)
    if isinstance(phi, _Binary):
        return type(phi)(_relax(phi.left, delta), _relax(phi.right, delta))
    if isinstance(phi, _Quantifier):
        radius = (phi.radius + delta if isinstance(phi, Exists)
                  else max(phi.radius - delta, phi.radius / 2))
        return type(phi)(radius, phi.var, _relax(phi.body, delta))
    raise TypeError(f"not a formula: {phi!r}")


def weak_negation(phi: Formula) -> Formula:
    if isinstance(phi, _Atom):
        return _DUAL[type(phi)](phi.term, phi.bound)
    if isinstance(phi, _Binary):
        return _DUAL[type(phi)](weak_negation(phi.left),
                                weak_negation(phi.right))
    if isinstance(phi, _Quantifier):
        return _DUAL[type(phi)](phi.radius, phi.var, weak_negation(phi.body))
    raise TypeError(f"not a formula: {phi!r}")
