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
    return _sat(M, phi, _bind(M, phi, assignment))


def _bind(M: FiniteStructure, phi: Formula, assignment: Assignment) -> dict:
    """A copy of the assignment with every free variable of phi checked, in
    name order: a real value is parsed to a rational, and any other value
    must be a point of its sort."""
    env = dict(assignment or {})
    for name, sort in sorted(free_vars(phi)):
        if name not in env:
            raise UnassignedVariable(f"variable {name!r} has no value")
        if sort == REAL:
            env[name] = parse_rational(env[name])
        elif env[name] not in M.sorts.get(sort, ()):
            raise SortMismatch(f"variable {name!r} = {env[name]!r} "
                               f"is not a point of sort {sort!r}")
    return env


def _some_instance(M: FiniteStructure, q, env: dict, points, holds) -> bool:
    """Whether holds(inner) is true for some copy `inner` of env that binds
    q's variable to a point of points(sort, radius), tried in order; a holds
    that is never true visits them all.  The sort is checked first, and env
    keeps the outer value."""
    sort, name = q.var.sort, q.var.name
    if sort == REAL:
        raise RealQuantifier(
            "quantification over the real sort is not supported (infinite balls)"
        )
    if sort not in M.sorts:
        raise SortMismatch(f"structure has no sort {sort!r}")
    inner = dict(env)
    for p in points(sort, q.radius):
        inner[name] = p
        if holds(inner):
            return True
    return False


def _sat(M: FiniteStructure, phi: Formula, assignment: dict) -> bool:
    if isinstance(phi, AtomLe):
        return eval_term(M, phi.term, assignment) <= phi.bound
    if isinstance(phi, AtomGe):
        return eval_term(M, phi.term, assignment) >= phi.bound
    if isinstance(phi, And):
        return _sat(M, phi.left, assignment) and _sat(M, phi.right, assignment)
    if isinstance(phi, Or):
        return _sat(M, phi.left, assignment) or _sat(M, phi.right, assignment)
    if isinstance(phi, Exists):
        return _some_instance(M, phi, assignment, M.closed_ball,
                              lambda env: _sat(M, phi.body, env))
    if isinstance(phi, Forall):
        return not _some_instance(M, phi, assignment, M.open_ball,
                                  lambda env: not _sat(M, phi.body, env))
    raise TypeError(f"not a formula: {phi!r}")


# -- gap analysis ----------------------------------------------------------------


def critical_values(M: FiniteStructure, phi: Formula,
                    assignment: Assignment = None) -> frozenset:
    """All rationals a bound could ever be compared against.

    Collects every real-valued subterm's value with bound variables ranging
    over their full sorts (free variables fixed by the assignment), every
    pairwise metric value, and the formula's own bounds and radii.
    """
    env = _bind(M, phi, assignment)
    values = set()
    for data in M.sorts.values():
        values.update(data.d(a, b) for a in data.points for b in data.points)
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
        _some_instance(M, phi, env, lambda sort, _radius: M.points(sort),
                       lambda inner: _collect(M, phi.body, inner, out))
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
