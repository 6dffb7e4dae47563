"""Finite metric structures with exact rational metrics and function tables.

Each non-real sort is a finite pointed metric space: discrete, on the
rational line, or a checked metric table; the real sort is the rationals and
is never enumerated.  Interpreted function symbols are total tables over
tuples of points; their outputs are points or exact rationals.  Function
domains must avoid the real sort (a table over the reals cannot be total);
the built-ins add/sub/mul/abs/min/max/d are computed instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import sub
from typing import Mapping, Optional, Tuple

from ..errors import MalformedInput, SortMismatch, expect, json_object
from ..rationals import format_rational, parse_rational, rational_reader
from .syntax import REAL, Signature


@dataclass(frozen=True)
class SortData:
    """A finite pointed metric space: points, a metric table checked on
    integers (else |x - y| on distinct `coords`, else 0/1), anchor."""

    points: Tuple[str, ...]
    metric: Optional[Mapping[Tuple[str, str], Fraction]]
    anchor: str
    coords: Optional[Mapping[str, Fraction]] = None

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_members", frozenset(pts))
        if len(self._members) != len(pts) or not pts:
            raise ValueError("points must be a nonempty list of distinct labels")
        if self.anchor not in self._members:
            raise ValueError(f"anchor {self.anchor!r} is not a point")
        if self.metric is None:
            if self.coords is not None and (
                    self.coords.keys() != self._members
                    or len(set(self.coords.values())) != len(pts)):
                raise ValueError("line coordinates must be distinct, one per point")
            return
        table = {
            (str(a), str(b)): parse_rational(v)
            for (a, b), v in dict(self.metric).items()
        }
        object.__setattr__(self, "metric", table)
        scale = lcm(*(v.denominator for v in table.values()))
        ints = {k: v.numerator * (scale // v.denominator)
                for k, v in table.items()}
        for a in pts:
            for b in pts:
                if (a, b) not in ints:
                    raise ValueError(f"metric table missing ({a!r}, {b!r})")
                v = ints[(a, b)]
                if (v == 0) != (a == b):
                    raise ValueError(
                        f"metric must vanish exactly on the diagonal: d({a!r},{b!r})={table[(a, b)]}"
                    )
                if v < 0:
                    raise ValueError("negative metric value")
                if ints.get((b, a)) != v:
                    raise ValueError(f"metric not symmetric at ({a!r},{b!r})")
        if len(set(ints.values())) <= 2:
            return  # 0 and one value c > 0: c <= c + c, no triangle can fail
        rows = [[ints[(a, b)] for b in pts] for a in pts]
        for a, row_a in zip(pts, rows):
            # d(a, c) <= d(a, b) + d(b, c) for all c: max_c of the difference
            for b, ab, row_b in zip(pts, row_a, rows):
                if max(map(sub, row_a, row_b)) > ab:
                    c = next(c for c, ac, bc in zip(pts, row_a, row_b)
                             if ac - bc > ab)
                    raise ValueError(f"triangle inequality fails at "
                                     f"({a!r},{b!r},{c!r})")

    def __contains__(self, point) -> bool:
        return point in self._members

    def d(self, a: str, b: str) -> Fraction:
        if self.metric is not None:
            return self.metric[(a, b)]
        if self.coords is not None:
            return abs(self.coords[a] - self.coords[b])
        return Fraction(int(a != b))


def discrete_sort(points, anchor: Optional[str] = None) -> SortData:
    """The 0/1 metric on a finite label set."""
    pts = tuple(str(p) for p in points)
    return SortData(pts, None, anchor if anchor is not None else pts[0])


def line_sort(coords: Mapping[str, Fraction], anchor: Optional[str] = None) -> SortData:
    """Points at distinct places on the rational line; metric |x - y|."""
    items = {str(k): parse_rational(v) for k, v in coords.items()}
    pts = tuple(items)
    return SortData(pts, None, anchor if anchor is not None else pts[0], items)


class FiniteStructure:
    """An interpretation of a signature on finite sorts.

    `functions` maps each declared symbol to its interpretation: a direct
    value for constants (point label, or rational for real-valued ones), and
    a dict keyed by argument tuples otherwise.
    """

    def __init__(self, signature: Signature, sorts: Mapping[str, SortData],
                 functions: Optional[Mapping] = None):
        self.signature = signature
        self.sorts = dict(sorts)
        for s in signature.sorts:
            if s not in self.sorts:
                raise SortMismatch(f"no interpretation for sort {s!r}")
        self.functions: dict = {}
        functions = dict(functions or {})
        for name, decl in signature.functions.items():
            if name not in functions:
                raise SortMismatch(f"no interpretation for symbol {name!r}")
            self.functions[name] = self._check_interp(decl, functions.pop(name))
        if functions:
            extra = sorted(functions)
            raise SortMismatch(f"interpretations for undeclared symbols: {extra}")
        for sort, name in signature.anchors.items():
            if self.functions[name] != self.sorts[sort].anchor:
                raise SortMismatch(
                    f"anchor constant {name!r} must denote the anchor "
                    f"{self.sorts[sort].anchor!r} of sort {sort!r}"
                )

    def _check_output(self, decl, value):
        if decl.range == REAL:
            return parse_rational(value)
        value = str(value)
        if value not in self.sorts[decl.range]:
            raise SortMismatch(
                f"{decl.name!r} output {value!r} not a point of {decl.range!r}"
            )
        return value

    def _check_interp(self, decl, interp):
        if decl.is_constant:
            return self._check_output(decl, interp)
        for s in decl.domain:
            if s == REAL:
                raise SortMismatch(
                    f"{decl.name!r}: tables over the real sort cannot be total"
                )
        table = {}
        for args, value in dict(interp).items():
            if not isinstance(args, tuple):
                args = (args,)
            args = tuple(str(a) for a in args)
            table[args] = self._check_output(decl, value)
        domain = dict.fromkeys(
            product(*(self.sorts[s].points for s in decl.domain)))
        for args in domain:
            if args not in table:
                raise SortMismatch(f"{decl.name!r} table missing {args!r}")
        for args in table:
            if args not in domain:
                raise SortMismatch(f"{decl.name!r} table key {args!r} is not "
                                   f"in the domain {decl.domain!r}")
        return table

    # queries ------------------------------------------------------------

    def points(self, sort: str) -> Tuple[str, ...]:
        return self.sorts[sort].points

    def metric(self, sort: str, a: str, b: str) -> Fraction:
        return self.sorts[sort].d(a, b)

    def anchor(self, sort: str) -> str:
        return self.sorts[sort].anchor

    def interp(self, name: str, args: tuple = ()):
        value = self.functions[name]
        if not args:
            decl = self.signature.declared(name)
            if decl.is_constant:
                return value
        return value[tuple(args)]

    def closed_ball(self, sort: str, radius: Fraction) -> tuple:
        data = self.sorts[sort]
        return tuple(p for p in data.points if data.d(p, data.anchor) <= radius)

    def open_ball(self, sort: str, radius: Fraction) -> tuple:
        data = self.sorts[sort]
        return tuple(p for p in data.points if data.d(p, data.anchor) < radius)


# -- JSON -----------------------------------------------------------------------


def structure_to_json(M: FiniteStructure) -> dict:
    sorts = {}
    for name, data in M.sorts.items():
        sorts[name] = {
            "points": list(data.points),
            "metric": [
                [format_rational(data.d(a, b)) for b in data.points]
                for a in data.points
            ],
            "anchor": data.anchor,
        }
    functions = {}
    for name, decl in M.signature.functions.items():
        entry = {"domain": list(decl.domain), "range": decl.range}
        interp = M.functions[name]
        if decl.is_constant:
            entry["value"] = (format_rational(interp) if decl.range == REAL
                              else interp)
        else:
            bad = [a for args in interp for a in args if "|" in a]
            if bad:
                raise ValueError(f"cannot write {name!r}: its argument label "
                                 f"{bad[0]!r} contains '|'")
            entry["table"] = {
                "|".join(args): (format_rational(v) if decl.range == REAL else v)
                for args, v in interp.items()
            }
        functions[name] = entry
    data = {"sorts": sorts, "functions": functions}
    if M.signature.anchors:
        data["anchor_constants"] = dict(M.signature.anchors)
    return data


def _labels(value, field: str) -> list:
    for label in expect(value, list, field, "be a list of labels"):
        expect(label, (str, int), field, "be a list of labels")
    return [str(label) for label in value]


def structure_from_json(data: dict) -> FiniteStructure:
    """The inverse of structure_to_json; MalformedInput, naming the field,
    on any other shape.  Each field's shape is checked where it is read;
    each distinct value string is parsed once."""
    read = rational_reader()
    data = json_object(data, "structure")
    sorts = {}
    for name, spec in expect(data.get("sorts", {}), dict, "sorts",
                             "be an object of sorts").items():
        field = f"sorts.{name}"
        expect(spec, dict, field, "be an object")
        points = _labels(spec.get("points"), f"{field}.points")
        matrix = spec.get("metric")
        if not (isinstance(matrix, list) and len(matrix) == len(points)
                and all(isinstance(row, list) and len(row) == len(points)
                        for row in matrix)):
            raise MalformedInput(f'"{field}.metric" must be a {len(points)} '
                                 f"by {len(points)} matrix, got {matrix!r}")
        metric = {(a, b): read(v) for a, row in zip(points, matrix)
                  for b, v in zip(points, row)}
        anchor = expect(spec.get("anchor"), (str, int), f"{field}.anchor",
                        "be a label")
        sorts[name] = SortData(tuple(points), metric, str(anchor))
    fun_decls = {}
    interps = {}
    for name, spec in expect(data.get("functions", {}), dict, "functions",
                             "be an object of symbols").items():
        field = f"functions.{name}"
        expect(spec, dict, field, "be an object")
        domain = tuple(_labels(spec.get("domain"), f"{field}.domain"))
        rng = expect(spec.get("range"), str, f"{field}.range", "be a sort")
        fun_decls[name] = (domain, rng)
        out = read if rng == REAL else str  # labels are read as text
        if not domain:
            if "value" not in spec:
                raise MalformedInput(f'"{field}.value" is missing')
            interps[name] = out(spec["value"])
        else:
            interps[name] = {
                tuple(key.split("|")): out(value)
                for key, value in expect(spec.get("table"), dict,
                                         f"{field}.table",
                                         "be an object").items()
            }
    anchors = data.get("anchor_constants")
    if anchors is not None:
        for sort, name in expect(anchors, dict, "anchor_constants",
                                 "be an object").items():
            expect(name, str, f"anchor_constants.{sort}", "be a symbol")
    signature = Signature(sorts=tuple(sorts), functions=fun_decls,
                          anchors=anchors)
    return FiniteStructure(signature, sorts, interps)
