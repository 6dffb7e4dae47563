"""Concrete syntax for positive bounded formulas.

Grammar (UTF-8 text, whitespace-insensitive):

    formula  := atom
              | "(" formula "&" formula ")"
              | "(" formula "|" formula ")"
              | "E" rational ident "." formula
              | "A" rational ident "." formula
    atom     := term "<=" rational | term ">=" rational
    term     := ident | rational | ident "(" term {"," term} ")"
    rational := integer | integer "/" positive-integer

Built-in function symbols: d, add, sub, mul, abs, min, max.  "E" and "A"
are reserved words.  Identifiers resolve in order: bound variable, declared
constant, free variable.  Variable sorts are inferred from use (function
domains and metric applications); anything still undetermined defaults to
the signature's unique non-real sort.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..errors import FormulaSyntaxError, SortMismatch, UnknownSymbol
from .syntax import (
    REAL,
    REAL_BUILTINS,
    METRIC,
    And,
    AtomGe,
    AtomLe,
    Const,
    Exists,
    Forall,
    Formula,
    Lit,
    Or,
    Signature,
    Var,
    apply,
)

_TOKEN = re.compile(
    r"\s*(?:(?P<num>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op><=|>=|[()/.,&|]))"
)

_RESERVED = {"E", "A"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> List[_Tok]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        for kind in ("num", "ident", "op"):
            if m.group(kind) is not None:
                out.append(_Tok(kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    out.append(_Tok("end", "", len(text)))
    return out


# -- raw trees with unresolved identifiers -------------------------------------

@dataclass(frozen=True)
class _RIdent:
    name: str
    slot: int


@dataclass(frozen=True)
class _RLit:
    value: Fraction


@dataclass(frozen=True)
class _RApp:
    func: str
    args: tuple
    pos: int


@dataclass(frozen=True)
class _RConst:
    name: str
    sort: str


class _Parser:
    def __init__(self, text: str, signature: Signature):
        self.tokens = _tokenize(text)
        self.i = 0
        self.sig = signature
        # one inference slot per free-variable name or per binder
        self.slots: List[Optional[str]] = []
        self.eq_constraints: List[Tuple[int, int]] = []
        self.free_slots: dict = {}
        self.scope: List[Tuple[str, int]] = []

    # token plumbing ----------------------------------------------------

    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def take(self) -> _Tok:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Tok:
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}", tok.pos)
        return tok

    def parse_rational(self) -> Fraction:
        tok = self.take()
        if tok.kind != "num":
            raise FormulaSyntaxError("expected a rational", tok.pos)
        num = int(tok.text)
        if self.peek().kind == "op" and self.peek().text == "/":
            self.take()
            den_tok = self.take()
            if den_tok.kind != "num" or int(den_tok.text) <= 0:
                raise FormulaSyntaxError("expected a positive denominator",
                                         den_tok.pos)
            return Fraction(num, int(den_tok.text))
        return Fraction(num)

    # slots ---------------------------------------------------------------

    def new_slot(self) -> int:
        self.slots.append(None)
        return len(self.slots) - 1

    def slot_for_free(self, name: str) -> int:
        if name not in self.free_slots:
            self.free_slots[name] = self.new_slot()
        return self.free_slots[name]

    def assign(self, slot: int, sort: str, pos: int):
        if self.slots[slot] is None:
            self.slots[slot] = sort
        elif self.slots[slot] != sort:
            raise SortMismatch(
                f"variable used at sorts {self.slots[slot]!r} and {sort!r} "
                f"(near position {pos})"
            )

    # grammar -------------------------------------------------------------

    def parse_formula(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _RESERVED:
            self.take()
            radius = self.parse_rational()
            var_tok = self.take()
            if var_tok.kind != "ident" or var_tok.text in _RESERVED:
                raise FormulaSyntaxError("expected a variable name", var_tok.pos)
            self.expect_op(".")
            slot = self.new_slot()
            self.scope.append((var_tok.text, slot))
            body = self.parse_formula()
            self.scope.pop()
            return ("quant", tok.text, radius, var_tok.text, slot, body, var_tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.take()
            left = self.parse_formula()
            op = self.take()
            if op.kind != "op" or op.text not in ("&", "|"):
                raise FormulaSyntaxError("expected '&' or '|'", op.pos)
            right = self.parse_formula()
            self.expect_op(")")
            return ("conn", op.text, left, right)
        return self.parse_atom()

    def parse_atom(self):
        term = self.parse_term()
        op = self.take()
        if op.kind != "op" or op.text not in ("<=", ">="):
            raise FormulaSyntaxError("expected '<=' or '>='", op.pos)
        bound = self.parse_rational()
        return ("atom", op.text, term, bound, op.pos)

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "num":
            return _RLit(self.parse_rational())
        if tok.kind != "ident" or tok.text in _RESERVED:
            raise FormulaSyntaxError("expected a term", tok.pos)
        self.take()
        name = tok.text
        if self.peek().kind == "op" and self.peek().text == "(":
            self.take()
            args = [self.parse_term()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.take()
                args.append(self.parse_term())
            self.expect_op(")")
            if name != METRIC and name not in REAL_BUILTINS \
                    and self.sig.declared(name) is None:
                raise UnknownSymbol(f"function {name!r} not in the signature")
            return _RApp(name, tuple(args), tok.pos)
        for scoped_name, slot in reversed(self.scope):
            if scoped_name == name:
                return _RIdent(name, slot)
        sort = self.sig.constant_sort(name)
        if sort is not None:
            return _RConst(name, sort)
        return _RIdent(name, self.slot_for_free(name))

    # sort inference -------------------------------------------------------

    def term_sort(self, t) -> Optional[str]:
        if isinstance(t, _RLit):
            return REAL
        if isinstance(t, _RConst):
            return t.sort
        if isinstance(t, _RIdent):
            return self.slots[t.slot]
        if t.func == METRIC or t.func in REAL_BUILTINS:
            return REAL
        return self.sig.declared(t.func).range

    def collect_constraints(self, t):
        if isinstance(t, (_RLit, _RConst, _RIdent)):
            return
        for a in t.args:
            self.collect_constraints(a)
        if t.func in REAL_BUILTINS:
            for a in t.args:
                if isinstance(a, _RIdent):
                    self.assign(a.slot, REAL, t.pos)
        elif t.func == METRIC:
            a, b = t.args
            sa, sb = self.term_sort(a), self.term_sort(b)
            if sa is not None and isinstance(b, _RIdent):
                self.assign(b.slot, sa, t.pos)
            elif sb is not None and isinstance(a, _RIdent):
                self.assign(a.slot, sb, t.pos)
            elif isinstance(a, _RIdent) and isinstance(b, _RIdent):
                self.eq_constraints.append((a.slot, b.slot))
        else:
            decl = self.sig.declared(t.func)
            for a, sort in zip(t.args, decl.domain):
                if isinstance(a, _RIdent):
                    self.assign(a.slot, sort, t.pos)

    def formula_terms(self, node):
        kind = node[0]
        if kind == "atom":
            yield node[2]
        elif kind == "conn":
            yield from self.formula_terms(node[2])
            yield from self.formula_terms(node[3])
        else:
            yield from self.formula_terms(node[5])

    def solve_sorts(self, root):
        for t in self.formula_terms(root):
            self.collect_constraints(t)
        changed = True
        while changed:
            changed = False
            for a, b in self.eq_constraints:
                if self.slots[a] is not None and self.slots[b] is None:
                    self.slots[b] = self.slots[a]
                    changed = True
                elif self.slots[b] is not None and self.slots[a] is None:
                    self.slots[a] = self.slots[b]
                    changed = True
                elif (self.slots[a] is not None
                      and self.slots[a] != self.slots[b]):
                    raise SortMismatch("metric applied across different sorts")
        default = self.sig.default_sort()
        for idx, sort in enumerate(self.slots):
            if sort is None:
                if default is None:
                    raise SortMismatch(
                        "cannot infer a variable sort; the signature has no "
                        "unique non-real sort"
                    )
                self.slots[idx] = default

    # typed construction -----------------------------------------------------

    def build_term(self, t, names):
        if isinstance(t, _RLit):
            return Lit(t.value)
        if isinstance(t, _RConst):
            return Const(t.name, t.sort)
        if isinstance(t, _RIdent):
            return Var(names.get(t.slot, t.name), self.slots[t.slot])
        args = tuple(self.build_term(a, names) for a in t.args)
        return apply(self.sig, t.func, *args)

    def build_formula(self, node, names) -> Formula:
        kind = node[0]
        if kind == "atom":
            _, op, term, bound, _pos = node
            typed = self.build_term(term, names)
            return AtomLe(typed, bound) if op == "<=" else AtomGe(typed, bound)
        if kind == "conn":
            _, op, left, right = node
            l = self.build_formula(left, names)
            r = self.build_formula(right, names)
            return And(l, r) if op == "&" else Or(l, r)
        _, q, radius, name, slot, body, _pos = node
        names = dict(names)
        names[slot] = name
        var = Var(name, self.slots[slot])
        inner = self.build_formula(body, names)
        return Exists(radius, var, inner) if q == "E" else Forall(radius, var, inner)


def parse_formula(text: str, signature: Signature) -> Formula:
    """Parse concrete syntax into a sort-checked formula tree."""
    parser = _Parser(text, signature)
    root = parser.parse_formula()
    end = parser.take()
    if end.kind != "end":
        raise FormulaSyntaxError("trailing input", end.pos)
    parser.solve_sorts(root)
    return parser.build_formula(root, {})
