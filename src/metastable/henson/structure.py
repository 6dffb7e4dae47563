"""Finite metric structures with exact rational metrics and function tables.

Each non-real sort is a finite pointed metric space; the real sort is the
rationals and is never enumerated.  Interpreted function symbols are total
tables over tuples of points; their outputs are points or exact rationals.
Function domains must avoid the real sort (a table over the reals cannot be
total); the built-ins add/sub/mul/abs/min/max/d are computed instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple

from ..errors import MalformedInput, SortMismatch
from ..rationals import format_rational, parse_rational
from .syntax import REAL, Signature


@dataclass(frozen=True)
class SortData:
    """A finite pointed metric space: points, metric table, anchor."""

    points: Tuple[str, ...]
    metric: Mapping[Tuple[str, str], Fraction]
    anchor: str

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts) or not pts:
            raise ValueError("points must be a nonempty list of distinct labels")
        table = {
            (str(a), str(b)): parse_rational(v)
            for (a, b), v in dict(self.metric).items()
        }
        object.__setattr__(self, "metric", table)
        if self.anchor not in pts:
            raise ValueError(f"anchor {self.anchor!r} is not a point")
        for a in pts:
            for b in pts:
                if (a, b) not in table:
                    raise ValueError(f"metric table missing ({a!r}, {b!r})")
                v = table[(a, b)]
                if (v == 0) != (a == b):
                    raise ValueError(
                        f"metric must vanish exactly on the diagonal: d({a!r},{b!r})={v}"
                    )
                if v < 0:
                    raise ValueError("negative metric value")
                if table[(b, a)] != v:
                    raise ValueError(f"metric not symmetric at ({a!r},{b!r})")
        for a in pts:
            for b in pts:
                for c in pts:
                    if table[(a, c)] > table[(a, b)] + table[(b, c)]:
                        raise ValueError(
                            f"triangle inequality fails at ({a!r},{b!r},{c!r})"
                        )

    def d(self, a: str, b: str) -> Fraction:
        return self.metric[(a, b)]


def discrete_sort(points, anchor: Optional[str] = None) -> SortData:
    """The 0/1 metric on a finite label set."""
    pts = tuple(str(p) for p in points)
    metric = {
        (a, b): Fraction(0) if a == b else Fraction(1)
        for a in pts for b in pts
    }
    return SortData(pts, metric, anchor if anchor is not None else pts[0])


def line_sort(coords: Mapping[str, Fraction], anchor: Optional[str] = None) -> SortData:
    """Points embedded in the rational line; metric |x - y| (always a metric)."""
    items = {str(k): parse_rational(v) for k, v in coords.items()}
    pts = tuple(items)
    metric = {(a, b): abs(items[a] - items[b]) for a in pts for b in pts}
    return SortData(pts, metric, anchor if anchor is not None else pts[0])


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
        if value not in self.sorts[decl.range].points:
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
        from itertools import product

        for args in product(*(self.sorts[s].points for s in decl.domain)):
            if args not in table:
                raise SortMismatch(f"{decl.name!r} table missing {args!r}")
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
            entry["table"] = {
                "|".join(args): (format_rational(v) if decl.range == REAL else v)
                for args, v in interp.items()
            }
        functions[name] = entry
    data = {"sorts": sorts, "functions": functions}
    if M.signature.anchors:
        data["anchor_constants"] = dict(M.signature.anchors)
    return data


def _expect(value, types, field: str, what: str):
    """value if it is an instance of types (a bool is no number or label);
    MalformedInput naming the field if not."""
    if isinstance(value, types) and not isinstance(value, bool):
        return value
    raise MalformedInput(f'"{field}" must be {what}, got {value!r}')


def _labels(value, field: str) -> list:
    for label in _expect(value, list, field, "a list of labels"):
        _expect(label, (str, int), field, "a list of labels")
    return [str(label) for label in value]


def structure_from_json(data: dict) -> FiniteStructure:
    """The inverse of structure_to_json; MalformedInput, naming the field,
    on any other shape.  Each field's shape is checked where it is read."""
    if not isinstance(data, dict):
        raise MalformedInput(
            f"a structure is a JSON object, not a {type(data).__name__}")
    sorts = {}
    for name, spec in _expect(data.get("sorts", {}), dict, "sorts",
                              "an object of sorts").items():
        field = f"sorts.{name}"
        _expect(spec, dict, field, "an object")
        points = _labels(spec.get("points"), f"{field}.points")
        matrix = spec.get("metric")
        if not (isinstance(matrix, list) and len(matrix) == len(points)
                and all(isinstance(row, list) and len(row) == len(points)
                        for row in matrix)):
            raise MalformedInput(f'"{field}.metric" must be a {len(points)} '
                                 f"by {len(points)} matrix, got {matrix!r}")
        metric = {
            (points[i], points[j]): parse_rational(matrix[i][j])
            for i in range(len(points)) for j in range(len(points))
        }
        anchor = _expect(spec.get("anchor"), (str, int), f"{field}.anchor",
                         "a label")
        sorts[name] = SortData(tuple(points), metric, str(anchor))
    fun_decls = {}
    interps = {}
    for name, spec in _expect(data.get("functions", {}), dict, "functions",
                              "an object of symbols").items():
        field = f"functions.{name}"
        _expect(spec, dict, field, "an object")
        domain = tuple(_labels(spec.get("domain"), f"{field}.domain"))
        rng = _expect(spec.get("range"), str, f"{field}.range", "a sort")
        fun_decls[name] = (domain, rng)
        if not domain:
            interps[name] = spec["value"]
        else:
            interps[name] = {
                tuple(key.split("|")): value
                for key, value in _expect(spec.get("table"), dict,
                                          f"{field}.table",
                                          "an object").items()
            }
    anchors = data.get("anchor_constants")
    if anchors is not None:
        for sort, name in _expect(anchors, dict, "anchor_constants",
                                  "an object").items():
            _expect(name, str, f"anchor_constants.{sort}", "a symbol")
    signature = Signature(sorts=tuple(sorts), functions=fun_decls,
                          anchors=anchors)
    return FiniteStructure(signature, sorts, interps)
