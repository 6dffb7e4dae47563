"""Formulas expressing window stability of an internal net, and the
encoding of a finite sequence window as a structure they can be read in.

For a sampling window eta_i, the stability formula is the conjunction over
unordered index pairs of d(s(c_j), s(c_j')) <= t; its weak negation is the
disjunction of the matching >=-atoms.  Reflexive pairs are dropped (they
are tautological for t >= 0); a singleton window keeps its reflexive pair
so the formula stays well-formed.  The rate formula for a finite witness
set E is the disjunction of the window formulas over E.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Tuple

from ..directed import Sampling
from ..errors import EmptyRate
from ..netcore import SequenceSpec
from ..rationals import parse_rational
from .approx import weak_negation
from .structure import FiniteStructure, discrete_sort
from .syntax import (
    REAL,
    METRIC,
    App,
    AtomLe,
    Const,
    Formula,
    Signature,
    conj,
    disj,
)

DIRECTED_SORT = "D"
NET_SYMBOL = "s"
CONST_PREFIX = "c"


def _pairs(window) -> list:
    indices = sorted(window)
    return list(combinations(indices, 2)) or [(indices[0], indices[0])]


def xi_formula(eta: Sampling, i: int, t) -> Formula:
    """Conjunction asserting all pairwise gaps within eta_i are <= t."""
    window, t = eta.eta(i), parse_rational(t)
    # one s(c_j) term per index, shared by every atom that reads it
    terms = {j: App(NET_SYMBOL,
                    (Const(f"{CONST_PREFIX}{j}", DIRECTED_SORT),), REAL)
             for j in window}
    return conj([AtomLe(App(METRIC, (terms[j], terms[jp]), REAL), t)
                 for j, jp in _pairs(window)])


def wneg_xi(eta: Sampling, i: int, t) -> Formula:
    """Disjunction asserting some pairwise gap within eta_i is >= t."""
    return weak_negation(xi_formula(eta, i, t))


def xi_E(eta: Sampling, E: Iterable[int], t) -> Formula:
    """Disjunction over the witness set E of the window formulas."""
    E = sorted(set(E))
    if not E:
        raise EmptyRate("no sequence has an empty rate")
    return disj([xi_formula(eta, i, t) for i in E])


def encode_sequence_window(seq: SequenceSpec, upto: int
                           ) -> Tuple[Signature, FiniteStructure]:
    """A finite structure holding the sequence values on indices 0..upto.

    The directed sort is discrete with one point and one naming constant
    per index; the net symbol is a real-valued function table.  Scalar
    sequences only.
    """
    indices = range(upto + 1)
    values = {}
    for n in indices:
        v = seq.value(n)
        if not hasattr(v, "denominator"):
            raise ValueError("window encoding needs scalar values")
        values[n] = v
    points = [str(n) for n in indices]
    constants = {f"{CONST_PREFIX}{n}": DIRECTED_SORT for n in indices}
    signature = Signature(
        sorts=(DIRECTED_SORT,),
        functions={NET_SYMBOL: ((DIRECTED_SORT,), REAL)},
        constants=constants,
        anchors={DIRECTED_SORT: f"{CONST_PREFIX}0"},
    )
    interps = {f"{CONST_PREFIX}{n}": str(n) for n in indices}
    interps[NET_SYMBOL] = {(str(n),): values[n] for n in indices}
    structure = FiniteStructure(
        signature, {DIRECTED_SORT: discrete_sort(points, anchor="0")}, interps
    )
    return signature, structure
