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
from .syntax import And, AtomGe, AtomLe, Exists, Forall, Formula, Or


def is_approximation(phi: Formula, psi: Formula) -> bool:
    """True iff psi arises from phi by strictly relaxing every bound."""
    if isinstance(phi, AtomLe):
        return (isinstance(psi, AtomLe) and psi.term == phi.term
                and psi.bound > phi.bound)
    if isinstance(phi, AtomGe):
        return (isinstance(psi, AtomGe) and psi.term == phi.term
                and psi.bound < phi.bound)
    if isinstance(phi, (And, Or)):
        return (type(psi) is type(phi)
                and is_approximation(phi.left, psi.left)
                and is_approximation(phi.right, psi.right))
    if isinstance(phi, Exists):
        return (isinstance(psi, Exists) and psi.var == phi.var
                and psi.radius > phi.radius
                and is_approximation(phi.body, psi.body))
    if isinstance(phi, Forall):
        return (isinstance(psi, Forall) and psi.var == phi.var
                and psi.radius < phi.radius
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
    if isinstance(phi, AtomLe):
        return AtomLe(phi.term, phi.bound + delta)
    if isinstance(phi, AtomGe):
        return AtomGe(phi.term, phi.bound - delta)
    if isinstance(phi, And):
        return And(_relax(phi.left, delta), _relax(phi.right, delta))
    if isinstance(phi, Or):
        return Or(_relax(phi.left, delta), _relax(phi.right, delta))
    if isinstance(phi, Exists):
        return Exists(phi.radius + delta, phi.var, _relax(phi.body, delta))
    if isinstance(phi, Forall):
        return Forall(max(phi.radius - delta, phi.radius / 2), phi.var,
                      _relax(phi.body, delta))
    raise TypeError(f"not a formula: {phi!r}")


def weak_negation(phi: Formula) -> Formula:
    if isinstance(phi, AtomLe):
        return AtomGe(phi.term, phi.bound)
    if isinstance(phi, AtomGe):
        return AtomLe(phi.term, phi.bound)
    if isinstance(phi, And):
        return Or(weak_negation(phi.left), weak_negation(phi.right))
    if isinstance(phi, Or):
        return And(weak_negation(phi.left), weak_negation(phi.right))
    if isinstance(phi, Forall):
        return Exists(phi.radius, phi.var, weak_negation(phi.body))
    if isinstance(phi, Exists):
        return Forall(phi.radius, phi.var, weak_negation(phi.body))
    raise TypeError(f"not a formula: {phi!r}")
