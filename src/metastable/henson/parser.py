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

Built-in function symbols: d, add, sub, mul, abs, min, max; d takes
exactly two arguments.  "E" and "A" are reserved words.  Connectives,
quantifiers and function applications nest at most MAX_NESTING deep; the
one that opens level MAX_NESTING + 1 is refused at its first token.
Identifiers resolve in order: bound variable, declared constant, free
variable.  Variable sorts are inferred from use (function domains and
metric applications) once the whole text has parsed; anything still
undetermined defaults to the signature's unique non-real sort.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

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
    r"(?P<num>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op><=|>=|[()/.,&|])|(?P<bad>\S)"
)

_RESERVED = {"E", "A"}

# every recursive walker (parsing, building, satisfies, format_formula,
# weak_negation, relax) stays under Python's default recursion limit of
# 1000 at this depth: the deepest take three frames per level
MAX_NESTING = 200


class Token(NamedTuple):
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> List[Token]:
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise FormulaSyntaxError(f"unexpected character {m[0]!r}",
                                     m.start())
        out.append(Token(m.lastgroup, m[0], m.start()))
    out.append(Token("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent in which each grammar rule returns a builder: a
    zero-argument closure that makes the typed node once the variable sorts
    are solved.  A term also returns its handle: a sort name, or the index
    of the inference slot of a variable."""

    def __init__(self, text: str, signature: Signature):
        self.tokens = _tokenize(text)
        self.i = 0
        self.sig = signature
        # one inference slot per free-variable name or per binder
        self.slots: List[Optional[str]] = []
        self.free_slots: dict = {}
        self.scope: List[Tuple[str, int]] = []
        # (symbol, argument handles, position), in the order applications close
        self.constraints: List[Tuple[str, list, int]] = []

    # token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> Token:
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

    def nest(self, tok: Token, depth: int) -> int:
        """The level that tok opens inside `depth` open ones, if allowed."""
        if depth >= MAX_NESTING:
            raise FormulaSyntaxError(
                f"nesting deeper than MAX_NESTING = {MAX_NESTING}", tok.pos)
        return depth + 1

    # slots ---------------------------------------------------------------

    def new_slot(self) -> int:
        self.slots.append(None)
        return len(self.slots) - 1

    def assign(self, slot: int, sort: str, pos: int):
        if self.slots[slot] is None:
            self.slots[slot] = sort
        elif self.slots[slot] != sort:
            raise SortMismatch(
                f"variable used at sorts {self.slots[slot]!r} and {sort!r} "
                f"(near position {pos})"
            )

    # grammar -------------------------------------------------------------

    def parse_formula(self, depth: int = 0):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _RESERVED:
            depth = self.nest(self.take(), depth)
            radius = self.parse_rational()
            var_tok = self.take()
            if var_tok.kind != "ident" or var_tok.text in _RESERVED:
                raise FormulaSyntaxError("expected a variable name", var_tok.pos)
            self.expect_op(".")
            name, slot = var_tok.text, self.new_slot()
            self.scope.append((name, slot))
            body = self.parse_formula(depth)
            self.scope.pop()
            node = Exists if tok.text == "E" else Forall
            return lambda: node(radius, Var(name, self.slots[slot]), body())
        if tok.kind == "op" and tok.text == "(":
            depth = self.nest(self.take(), depth)
            left = self.parse_formula(depth)
            op = self.take()
            if op.kind != "op" or op.text not in ("&", "|"):
                raise FormulaSyntaxError("expected '&' or '|'", op.pos)
            right = self.parse_formula(depth)
            self.expect_op(")")
            node = And if op.text == "&" else Or
            return lambda: node(left(), right())
        _, term = self.parse_term(depth)
        op = self.take()
        if op.kind != "op" or op.text not in ("<=", ">="):
            raise FormulaSyntaxError("expected '<=' or '>='", op.pos)
        bound = self.parse_rational()
        node = AtomLe if op.text == "<=" else AtomGe
        return lambda: node(term(), bound)

    def parse_term(self, depth: int):
        tok = self.peek()
        if tok.kind == "num":
            value = self.parse_rational()
            return REAL, lambda: Lit(value)
        if tok.kind != "ident" or tok.text in _RESERVED:
            raise FormulaSyntaxError("expected a term", tok.pos)
        self.take()
        name = tok.text
        if self.peek().kind == "op" and self.peek().text == "(":
            self.take()
            depth = self.nest(tok, depth)
            args = [self.parse_term(depth)]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.take()
                args.append(self.parse_term(depth))
            self.expect_op(")")
            decl = self.sig.declared(name)
            if decl is None and name != METRIC and name not in REAL_BUILTINS:
                raise UnknownSymbol(f"function {name!r} not in the signature")
            self.constraints.append((name, [h for h, _ in args], tok.pos))
            builders = [b for _, b in args]
            return (REAL if decl is None else decl.range,
                    lambda: apply(self.sig, name, *(b() for b in builders)))
        for scoped_name, slot in reversed(self.scope):
            if scoped_name == name:
                break
        else:
            sort = self.sig.constant_sort(name)
            if sort is not None:
                return sort, lambda: Const(name, sort)
            if name not in self.free_slots:
                self.free_slots[name] = self.new_slot()
            slot = self.free_slots[name]
        return slot, lambda: Var(name, self.slots[slot])

    # sort inference -------------------------------------------------------

    def solve_sorts(self):
        eq_constraints = []
        for func, args, pos in self.constraints:
            if func == METRIC:
                if len(args) != 2:
                    raise SortMismatch("d takes two arguments")
                a, b = args
                sa, sb = (self.slots[h] if isinstance(h, int) else h
                          for h in args)
                if sa is not None and isinstance(b, int):
                    self.assign(b, sa, pos)
                elif sb is not None and isinstance(a, int):
                    self.assign(a, sb, pos)
                elif isinstance(a, int) and isinstance(b, int):
                    eq_constraints.append((a, b))
                continue
            domain = ((REAL,) * len(args) if func in REAL_BUILTINS
                      else self.sig.declared(func).domain)
            for handle, sort in zip(args, domain):
                if isinstance(handle, int):
                    self.assign(handle, sort, pos)
        changed = True
        while changed:
            changed = False
            for a, b in eq_constraints:
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


def parse_formula(text: str, signature: Signature) -> Formula:
    """Parse concrete syntax into a sort-checked formula tree."""
    parser = _Parser(text, signature)
    build = parser.parse_formula()
    end = parser.take()
    if end.kind != "end":
        raise FormulaSyntaxError("trailing input", end.pos)
    parser.solve_sorts()
    return build()
