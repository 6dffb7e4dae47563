"""Samplings over ℕ and their JSON forms.

Every net in this package is indexed by the naturals with their usual order
and anchor 0, so ℕ is the only index set; it stays symbolic (never
enumerated), and every operation that walks it takes an explicit support or
budget.

A sampling assigns to each index ``i`` a nonempty finite subset of its tail
``{j : j >= i}``.  Samplings are plain data that always have a JSON form:
either linear, ``F(n) = k*n + c`` with integers ``k, c >= 1`` and windows
``[N, F(N)]`` (strictly increasing with ``F(N) > N`` by construction), or
an explicit table, a finite map from naturals to nonempty subsets of their
tails, checked once when it is built.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    MalformedInput,
    NotStrictlyIncreasing,
    SamplingDomainError,
    UnsupportedSampling,
)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_natural(x) -> bool:
    return _is_integer(x) and x >= 0


@dataclass(frozen=True)
class Sampling:
    """A sampling, as plain data: linear over ℕ or an explicit table.

    Linear: integers k >= 1 and c >= 1 with F(n) = k*n + c and
    eta_N = [N, F(N)]; F(N) > N and strict growth hold by construction.
    Explicit: a finite table from naturals i to nonempty sets of naturals
    j >= i (``k`` and ``c`` stay None).  A non-natural key or entry raises
    ValueError, an empty window or one below its index SamplingDomainError.
    """

    k: Optional[int] = None
    c: Optional[int] = None
    table: Optional[Mapping] = None

    def __post_init__(self):
        if self.table is not None:
            if self.k is not None or self.c is not None:
                raise ValueError("a sampling is kn+c or a table, not both")
            frozen = {}
            for i, entries in self.table.items():
                entries = set(entries)
                if not (_is_natural(i) and all(map(_is_natural, entries))):
                    raise ValueError("a table maps naturals to sets of "
                                     f"naturals, got {i!r}: {entries!r}")
                if not entries:
                    raise SamplingDomainError(
                        f"sampling has an empty window at {i}")
                window = frozen[i] = tuple(sorted(entries))
                if window[0] < i:
                    raise SamplingDomainError(
                        f"the window at {i} reads index {window[0]}, "
                        f"outside the tail above {i}")
            object.__setattr__(self, "table", frozen)
        elif not (_is_integer(self.k) and _is_integer(self.c)):
            raise ValueError("a sampling needs integers k and c, or a table; "
                             f"got k={self.k!r}, c={self.c!r}")
        elif self.k < 1 or self.c < 1:
            raise NotStrictlyIncreasing(
                f"F(n) = {self.k}n+{self.c}: k >= 1 and c >= 1 are required "
                "for F(N) > N and strict growth")

    def f(self, n: int) -> int:
        """F(n) = k*n + c; UnsupportedSampling for an explicit table."""
        if self.table is not None:
            raise UnsupportedSampling("an explicit sampling has no F")
        return self.k * n + self.c

    def eta(self, i) -> tuple:
        """The window at i, as a sorted tuple of indices."""
        if self.table is None:
            if not _is_natural(i):
                raise SamplingDomainError(f"index {i!r} not in ℕ")
            return tuple(range(i, self.f(i) + 1))
        if i not in self.table:
            raise SamplingDomainError(f"sampling has no window at {i!r}")
        return self.table[i]

    def max_index(self, i) -> int:
        return self.f(i) if self.table is None else self.eta(i)[-1]

    @property
    def key(self) -> str:
        """Identifier derived from the data ("n+c", "kn+c" or
        "explicit:{...}"), used to index per-(epsilon, eta) rates."""
        if self.table is not None:
            body = json.dumps({str(i): list(w) for i, w in self.table.items()},
                              sort_keys=True)
            return f"explicit:{body}"
        return f"n+{self.c}" if self.k == 1 else f"{self.k}n+{self.c}"


def affine_sampling(w: int) -> Sampling:
    """The sampling generated by F(n) = n + w."""
    return Sampling(k=1, c=w)


def explicit_sampling(table: Mapping) -> Sampling:
    """A sampling given by an explicit table i -> nonempty finite set of
    indices j >= i."""
    return Sampling(table=table)


# -- JSON forms --------------------------------------------------------------

def sampling_to_json(eta: Sampling) -> dict:
    if eta.table is not None:
        return {"sampling": {str(i): list(w) for i, w in eta.table.items()}}
    return {"F": eta.key}


def sampling_from_json(data: dict) -> Sampling:
    """The inverse of sampling_to_json, also accepting {"F": {"affine":
    {"w": w}}} (a "from" key there is ignored); MalformedInput, naming the
    field, on any other shape."""
    if not isinstance(data, dict):
        raise MalformedInput(f"a sampling is a JSON object, not {data!r}")
    if "sampling" in data:
        table = data["sampling"]
        if not (isinstance(table, dict) and all(
                isinstance(w, list) and all(map(_is_natural, w))
                for w in table.values())):
            raise MalformedInput('"sampling" must map natural numbers to lists '
                                 f"of natural numbers, got {table!r}")
        for i in table:  # one spelling per index: no two keys share a window
            if not (isinstance(i, str) and _NATURAL_KEY.fullmatch(i)):
                raise MalformedInput(
                    f'"sampling" key {i!r} is not a natural number written '
                    'as "0" or as ASCII digits without a leading zero')
        return explicit_sampling({int(i): tuple(w) for i, w in table.items()})
    spec = data.get("F")
    if isinstance(spec, str):
        return parse_f_expression(spec)
    affine = spec.get("affine") if isinstance(spec, dict) else None
    if not isinstance(affine, dict):
        raise MalformedInput(
            f'"F" must be "kn+c" or {{"affine": {{"w": w}}}}, got {spec!r}')
    w = affine.get("w")
    if not _is_natural(w):
        raise MalformedInput(
            f'"F.affine.w" must be a natural number, got {affine!r}')
    return affine_sampling(w)


_NATURAL_KEY = re.compile(r"0|[1-9][0-9]*")
_F_EXPRESSION = re.compile(r"(\d*)n(?:\+(\d+))?")


def parse_f_expression(text: str) -> Sampling:
    """Parse "n+c" or "kn+c" (k, c >= 1) into the linear sampling kn+c."""
    m = _F_EXPRESSION.fullmatch(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse sampling function {text!r}")
    return Sampling(k=int(m.group(1) or 1), c=int(m.group(2) or 0))
