"""Evaluation and the two satisfaction relations on finite structures.

Discrete satisfaction follows the six inductive clauses; existential
quantifiers range over closed balls around the sort anchor and universal
quantifiers over open balls.  On a finite structure approximate
satisfaction (truth of every approximation) is discrete satisfaction: the
critical values, the finitely many rationals ever compared against a bound,
and the minimal positive gap between them are its certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..errors import RealQuantifier, SortMismatch, UnassignedVariable
from ..rationals import parse_rational
from .structure import FiniteStructure
from .syntax import (
    REAL,
    METRIC,
    And,
    App,
    AtomGe,
    AtomLe,
    Const,
    Exists,
    Forall,
    Formula,
    Lit,
    Or,
    Term,
    Var,
    free_vars,
)

Assignment = Mapping[str, object]

_REAL_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": min,
    "max": max,
    "abs": abs,
}


def eval_term(M: FiniteStructure, t: Term, assignment: Assignment):
    """Evaluate a term to a point label or an exact rational."""
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Const):
        return M.interp(t.name)
    if isinstance(t, Var):
        if t.name not in assignment:
            raise UnassignedVariable(f"variable {t.name!r} has no value")
        return assignment[t.name]
    if isinstance(t, App):
        args = [eval_term(M, a, assignment) for a in t.args]
        if t.func == METRIC:
            sort = t.args[0].sort
            if sort == REAL:
                return abs(args[0] - args[1])
            return M.metric(sort, args[0], args[1])
        if t.func in _REAL_OPS:
            return _REAL_OPS[t.func](*args)
        return M.interp(t.func, tuple(args))
    raise TypeError(f"not a term: {t!r}")


def satisfies(M: FiniteStructure, phi: Formula, assignment: Assignment = None) -> bool:
    """Discrete satisfaction; free variables need values of their sorts."""
    assignment = dict(assignment or {})
    for name, sort in free_vars(phi):
        if name not in assignment:
            raise UnassignedVariable(f"variable {name!r} has no value")
        if sort == REAL:
            assignment[name] = parse_rational(assignment[name])
        elif assignment[name] not in M.sorts.get(sort, ()):
            raise SortMismatch(f"variable {name!r} = {assignment[name]!r} "
                               f"is not a point of sort {sort!r}")
    return _sat(M, phi, assignment)


def _quantifier_points(M: FiniteStructure, node) -> tuple:
    sort = node.var.sort
    if sort == REAL:
        raise RealQuantifier(
            "quantification over the real sort is not supported (infinite balls)"
        )
    if sort not in M.sorts:
        raise SortMismatch(f"structure has no sort {sort!r}")
    if isinstance(node, Exists):
        return M.closed_ball(sort, node.radius)
    return M.open_ball(sort, node.radius)


def _sat(M: FiniteStructure, phi: Formula, assignment: dict) -> bool:
    if isinstance(phi, AtomLe):
        return eval_term(M, phi.term, assignment) <= phi.bound
    if isinstance(phi, AtomGe):
        return eval_term(M, phi.term, assignment) >= phi.bound
    if isinstance(phi, And):
        return _sat(M, phi.left, assignment) and _sat(M, phi.right, assignment)
    if isinstance(phi, Or):
        return _sat(M, phi.left, assignment) or _sat(M, phi.right, assignment)
    if isinstance(phi, (Exists, Forall)):
        points = _quantifier_points(M, phi)
        name = phi.var.name
        shadowed = assignment.get(name, _MISSING)
        some_or_every = any if isinstance(phi, Exists) else all
        try:
            result = some_or_every(
                _sat(M, phi.body, _with(assignment, name, p)) for p in points)
        finally:
            if shadowed is _MISSING:
                assignment.pop(name, None)
            else:
                assignment[name] = shadowed
        return result
    raise TypeError(f"not a formula: {phi!r}")


_MISSING = object()


def _with(assignment: dict, name: str, value) -> dict:
    assignment[name] = value
    return assignment


# -- gap analysis ----------------------------------------------------------------


def critical_values(M: FiniteStructure, phi: Formula,
                    assignment: Assignment = None) -> frozenset:
    """All rationals a bound could ever be compared against.

    Collects every real-valued subterm's value with bound variables ranging
    over their full sorts (free variables fixed by the assignment), every
    pairwise metric value, and the formula's own bounds and radii.
    """
    values = set()
    for data in M.sorts.values():
        values.update(data.d(a, b) for a in data.points for b in data.points)
    env = dict(assignment or {})
    _collect(M, phi, env, values)
    return frozenset(values)


def _collect_term(M: FiniteStructure, t: Term, env: dict, out: set):
    if isinstance(t, App):
        for a in t.args:
            _collect_term(M, a, env, out)
    value = eval_term(M, t, env)
    if isinstance(value, Fraction):
        out.add(value)


def _collect(M: FiniteStructure, phi: Formula, env: dict, out: set):
    if isinstance(phi, (AtomLe, AtomGe)):
        out.add(phi.bound)
        _collect_term(M, phi.term, env, out)
        return
    if isinstance(phi, (And, Or)):
        _collect(M, phi.left, env, out)
        _collect(M, phi.right, env, out)
        return
    if isinstance(phi, (Exists, Forall)):
        out.add(phi.radius)
        sort = phi.var.sort
        if sort == REAL:
            raise RealQuantifier(
                "quantification over the real sort is not supported"
            )
        name = phi.var.name
        shadowed = env.get(name, _MISSING)
        for p in M.points(sort):
            env[name] = p
            _collect(M, phi.body, env, out)
        if shadowed is _MISSING:
            env.pop(name, None)
        else:
            env[name] = shadowed
        return
    raise TypeError(f"not a formula: {phi!r}")


def satisfaction_gap(M: FiniteStructure, phi: Formula,
                     assignment: Assignment = None) -> Fraction:
    """The minimal positive difference among the critical values.

    Satisfaction of relax(phi, delta) is constant for delta in (0, gap);
    with fewer than two distinct critical values any positive delta works
    and the gap defaults to 1.
    """
    values = sorted(critical_values(M, phi, assignment))
    gaps = [b - a for a, b in zip(values, values[1:]) if b > a]
    return min(gaps) if gaps else Fraction(1)


def approx_satisfies(M: FiniteStructure, phi: Formula,
                     assignment: Assignment = None) -> bool:
    """Approximate satisfaction, which on a finite structure is satisfies.

    It is truth of relax(phi, g/2), g = satisfaction_gap(M, phi).  Every
    value relax(phi, delta) compares is critical: bounds, radii, term values
    and the metric values behind ball membership.  0 is critical, so g <= r
    for each radius r and the clamp r/2 never applies; for 0 < delta < g
    every atom, closed ball and open ball decides as in phi.  This is the
    finite case of Henson-Iovino, "Ultraproducts in analysis" (2002): a
    finite structure is its own nonstandard hull.
    """
    return satisfies(M, phi, assignment)
