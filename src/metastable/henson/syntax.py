"""Abstract syntax for positive bounded formulas over many-sorted signatures.

The distinguished real sort is named "R"; it is never enumerated and always
carries add, sub, mul, abs, min, max, the rational literals, and the
polymorphic metric symbol d (on reals, d(x, y) = |x - y|).  Every non-real
sort has a metric and an anchor constant.

Formula trees use exact rational bounds and radii throughout.  Connectives
are binary; the conj/disj helpers fold finite families into balanced trees,
ceil(log2 n) deep with the members in their given order, so that window
formulas of any size stay shallow for every recursive walker, and printed
text round-trips to an identical tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

from ..errors import NonpositiveRadius, SortMismatch, UnknownSymbol
from ..rationals import format_rational, parse_rational

REAL = "R"

#: built-in function symbols on the real sort: name -> arity
REAL_BUILTINS = {
    "add": 2, "sub": 2, "mul": 2, "abs": 1, "min": 2, "max": 2,
}

METRIC = "d"


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    domain: Tuple[str, ...]
    range: str

    @property
    def is_constant(self) -> bool:
        return len(self.domain) == 0


class Signature:
    """Sorts plus declared function/constant symbols.

    `sorts` lists the non-real sorts; REAL is implicit.  `functions` maps a
    name to (domain tuple, range sort); constants are the nullary case and
    may be passed separately as name -> sort.  `anchors` names the constant
    designating each sort's anchor point (declared automatically when not
    among the constants); structures check that those constants really are
    interpreted by the anchors.
    """

    def __init__(self, sorts=(), functions: Optional[Mapping] = None,
                 constants: Optional[Mapping] = None,
                 anchors: Optional[Mapping] = None):
        self.sorts: Tuple[str, ...] = tuple(sorts)
        if REAL in self.sorts:
            raise SortMismatch(f"{REAL!r} is reserved for the real sort")
        if len(set(self.sorts)) != len(self.sorts):
            raise SortMismatch("duplicate sort names")
        decls = {}
        for name, (domain, rng) in (functions or {}).items():
            decls[name] = FunctionDecl(name, tuple(domain), rng)
        for name, sort in (constants or {}).items():
            if name in decls:
                raise SortMismatch(f"symbol {name!r} declared twice")
            decls[name] = FunctionDecl(name, (), sort)
        self.anchors: dict = {}
        for sort, name in (anchors or {}).items():
            existing = decls.get(name)
            if existing is not None and (existing.domain or existing.range != sort):
                raise SortMismatch(
                    f"anchor constant {name!r} clashes with another declaration"
                )
            decls.setdefault(name, FunctionDecl(name, (), sort))
            self.anchors[sort] = name
        for decl in decls.values():
            for s in decl.domain + (decl.range,):
                if s != REAL and s not in self.sorts:
                    raise SortMismatch(
                        f"function {decl.name!r} uses undeclared sort {s!r}"
                    )
            if decl.name in REAL_BUILTINS or decl.name == METRIC:
                raise SortMismatch(f"{decl.name!r} shadows a built-in")
        self.functions: dict = decls

    def declared(self, name: str) -> Optional[FunctionDecl]:
        return self.functions.get(name)

    def constant_sort(self, name: str) -> Optional[str]:
        decl = self.functions.get(name)
        if decl is not None and decl.is_constant:
            return decl.range
        return None

    def default_sort(self) -> Optional[str]:
        """The unique non-real sort, if there is exactly one."""
        return self.sorts[0] if len(self.sorts) == 1 else None


# -- terms ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True)
class Const:
    name: str
    sort: str


@dataclass(frozen=True)
class Lit:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", parse_rational(self.value))

    @property
    def sort(self) -> str:
        return REAL


@dataclass(frozen=True)
class App:
    func: str
    args: tuple
    sort: str


Term = Union[Var, Const, Lit, App]


def apply(signature: Signature, func: str, *args: Term) -> App:
    """Sort-checked application of a declared or built-in function symbol."""
    if func == METRIC:
        if len(args) != 2:
            raise SortMismatch("d takes two arguments")
        a, b = args
        if a.sort != b.sort:
            raise SortMismatch(f"d applied across sorts {a.sort!r}, {b.sort!r}")
        return App(METRIC, args, REAL)
    if func in REAL_BUILTINS:
        if len(args) != REAL_BUILTINS[func]:
            raise SortMismatch(f"{func} takes {REAL_BUILTINS[func]} arguments")
        for t in args:
            if t.sort != REAL:
                raise SortMismatch(f"{func} needs real arguments, got {t.sort!r}")
        return App(func, args, REAL)
    decl = signature.declared(func)
    if decl is None:
        raise UnknownSymbol(f"function {func!r} not in the signature")
    if len(args) != len(decl.domain):
        raise SortMismatch(
            f"{func} takes {len(decl.domain)} arguments, got {len(args)}"
        )
    for t, expected in zip(args, decl.domain):
        if t.sort != expected:
            raise SortMismatch(
                f"{func} expects {expected!r}, got {t.sort!r}"
            )
    return App(func, args, decl.range)


# -- formulas --------------------------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    term: Term
    bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bound", parse_rational(self.bound))
        if self.term.sort != REAL:
            raise SortMismatch("atoms need a real-valued term")


class AtomLe(_Atom):
    """term <= bound."""


class AtomGe(_Atom):
    """term >= bound."""


@dataclass(frozen=True)
class _Binary:
    left: "Formula"
    right: "Formula"


class And(_Binary):
    """left & right."""


class Or(_Binary):
    """left | right."""


@dataclass(frozen=True)
class _Quantifier:
    radius: Fraction
    var: Var
    body: "Formula"

    def __post_init__(self):
        r = parse_rational(self.radius)
        if r <= 0:
            raise NonpositiveRadius(f"radius must be > 0, got {r}")
        object.__setattr__(self, "radius", r)


class Exists(_Quantifier):
    """exists_r x: body, with x ranging over the closed ball B[r]."""


class Forall(_Quantifier):
    """forall_r x: body, with x ranging over the open ball B(r)."""


Formula = Union[AtomLe, AtomGe, And, Or, Exists, Forall]


def _fold(connective, formulas, name: str) -> Formula:
    formulas = list(formulas)
    if not formulas:
        raise ValueError(f"empty {name}")
    while len(formulas) > 1:
        paired = [connective(a, b)
                  for a, b in zip(formulas[::2], formulas[1::2])]
        formulas = paired + formulas[2 * len(paired):]
    return formulas[0]


def conj(formulas) -> Formula:
    """Balanced conjunction of a nonempty list: neighbours are paired until
    one formula is left, so n conjuncts nest ceil(log2 n) deep, in order."""
    return _fold(And, formulas, "conjunction")


def disj(formulas) -> Formula:
    """Balanced disjunction of a nonempty list, paired as in conj."""
    return _fold(Or, formulas, "disjunction")


def free_vars(phi: Formula) -> frozenset:
    """Free variables as (name, sort) pairs, in one walk: each pending node
    carries how many binders enclose it, and `binders` holds the (name,
    sort) of the enclosing ones."""
    out, binders, todo = set(), [], [(phi, 0)]
    while todo:
        node, depth = todo.pop()
        del binders[depth:]  # leave the scopes of the subtrees walked so far
        if isinstance(node, _Atom):
            terms = [node.term]
            for t in terms:  # grows as applications are opened
                if isinstance(t, App):
                    terms.extend(t.args)
                elif isinstance(t, Var) and (t.name, t.sort) not in binders:
                    out.add((t.name, t.sort))
        elif isinstance(node, _Binary):
            todo += (node.right, depth), (node.left, depth)
        elif isinstance(node, _Quantifier):
            binders.append((node.var.name, node.var.sort))
            todo.append((node.body, depth + 1))
        else:
            raise TypeError(f"not a formula: {node!r}")
    return frozenset(out)


# -- printing ----------------------------------------------------------------------


def format_term(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, Lit):
        return format_rational(t.value)
    if isinstance(t, App):
        return f"{t.func}({', '.join(format_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


_SYMBOL = {AtomLe: "<=", AtomGe: ">=", And: "&", Or: "|", Exists: "E",
           Forall: "A"}


def format_formula(phi: Formula) -> str:
    """Concrete syntax that parse_formula maps back to an equal tree."""
    if isinstance(phi, _Atom):
        return (f"{format_term(phi.term)} {_SYMBOL[type(phi)]} "
                f"{format_rational(phi.bound)}")
    if isinstance(phi, _Binary):
        return (f"({format_formula(phi.left)} {_SYMBOL[type(phi)]} "
                f"{format_formula(phi.right)})")
    if isinstance(phi, _Quantifier):
        return (f"{_SYMBOL[type(phi)]} {format_rational(phi.radius)} "
                f"{phi.var.name}. {format_formula(phi.body)}")
    raise TypeError(f"not a formula: {phi!r}")
