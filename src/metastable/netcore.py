"""Sequences with declared tail structure: oscillation and metastability rates.

A sequence is a finite prefix plus a declared tail mode (constant, or
periodic repetition of the last p prefix values).  That declaration is the
exactness boundary: total oscillation and eta-oscillation are limit
quantities, and only tail-structured sequences make them finite
computations.

Values are exact rationals (scalars, or tuples under the sup metric), and
every metastability comparison is the exact osc <= eps.  Decimal text in a
file is read exactly ("0.1" is 1/10); Python floats are refused.

Every window evaluation (rate checks and witnesses, eta-oscillation, the
minimal-rate search) goes through one kernel, `_window_oscs`, and every
rate decision (some i in E with osc(eta_i) <= eps?) through one routine,
`_first_witness`.  For a linear sampling the windows [i, ki+c] of
ascending i slide to the right, so a min deque and a max deque per
coordinate keep the extremes of the current window.  Each window reads its
new values in one call and takes them in one fused loop per coordinate,
which pushes each value's entry onto both deques and ends with that
coordinate's spread.  So each value is read at most once: a rate check
costs O(F(max E) - min E) reads and comparisons, not the sum of the window
lengths.  From max(i, T) on, where T is the tail start and p the period,
any p consecutive values hold the whole period, so window i is read only
up to min(ki+c, max(i, T)+p-1): no window reads more than T-i+p values,
and past T a failing window fails again p indices later, so a witness
search stops once failures have covered every residue modulo p.  An eps
grid (`_grid_witnesses`) is a memo over one kernel pass on the union of
the rate sets, run only as far as some eps asks.  When the sets are not
prefixes of one another, a window of one set below the furthest index
another eps needs is evaluated too.

Windows compare integer cross-products, a/b <= c/d as a*d <= c*b, over
each value's own (numerator, denominator) pair, and only a returned result
becomes a Fraction.  There is no common denominator: the lcm of n coprime
denominators has about linearly many bits (14 400 for 1..10**4), so scaled
values would cost time and memory quadratic in n.  `osc_segment`, the
literal definition, is the oracle the tests hold the kernel to.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .directed import Sampling
from .errors import (
    EmptyRate,
    MalformedInput,
    NonpositiveEpsilon,
    RateTooLarge,
    SamplingDomainError,
    expect,
    json_object,
)
from .rationals import format_rational, parse_rational, rational_reader

Value = Union[Fraction, tuple]


@dataclass(frozen=True)
class Constant:
    """Tail mode: the last prefix value repeats forever."""

    @property
    def period(self) -> int:
        return 1


@dataclass(frozen=True)
class Periodic:
    """Tail mode: the last `period` prefix values repeat verbatim."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")


Tail = Union[Constant, Periodic]

# Largest rate set built on request (`monotone_uniform_rate`, `lo..hi` on the
# command line).  Larger requests are refused before anything is built: the
# command line prints a built rate as a list, and the next doublings (F =
# 2n+1 at eps = 1/40 asks for 2**40 elements) would exhaust memory.
MAX_RATE_SIZE = 1 << 20


def _coerce_value(v) -> Value:
    if isinstance(v, (list, tuple)):
        return tuple(map(_coerce_value, v))
    return parse_rational(v)


def _spread(points: Sequence[tuple]) -> tuple:
    """Diameter of nonempty points under the sup metric, as a pair; each
    point is a tuple of (numerator, denominator) pairs, one per coordinate,
    and a/b < c/d is decided as a*d < c*b (denominators are positive)."""
    diam_n, diam_d = 0, 1
    for coords in zip(*points):
        low_n, low_d = high_n, high_d = coords[0]
        for n, d in coords:
            if n * low_d < low_n * d:
                low_n, low_d = n, d
            elif n * high_d > high_n * d:
                high_n, high_d = n, d
        n, d = high_n * low_d - low_n * high_d, high_d * low_d
        if n * diam_d > diam_n * d:
            diam_n, diam_d = n, d
    return diam_n, diam_d


@dataclass(frozen=True)
class SequenceSpec:
    """A net over ℕ given as a prefix plus a tail declaration.

    The tail applies from index T = len(prefix) - p, where p is the tail
    window length (1 for a constant tail).  `bound` is the declared C with
    all points within C/2 of some anchor, i.e. diameter <= C.
    """

    prefix: tuple
    tail: Tail = Constant()
    bound: Optional[Fraction] = None
    # derived: p, T = len(prefix) - p, and the values as `pairs` gives them
    period: int = field(init=False, repr=False, compare=False)
    tail_start: int = field(init=False, repr=False, compare=False)
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prefix = tuple(map(_coerce_value, self.prefix))
        object.__setattr__(self, "prefix", prefix)
        p = self.tail.period
        if len(prefix) < p or len(prefix) < 1:
            raise ValueError("prefix must cover at least one tail window")
        object.__setattr__(self, "period", p)
        object.__setattr__(self, "tail_start", len(prefix) - p)
        dims = {len(v) if isinstance(v, tuple) else None for v in prefix}
        if len(dims) > 1 or 0 in dims:
            raise ValueError("mixed scalar/tuple values, or an empty point")
        pairs = tuple(
            tuple(map(Fraction.as_integer_ratio, v)) if isinstance(v, tuple)
            else (v.as_integer_ratio(),) for v in prefix)
        object.__setattr__(self, "_pairs", pairs)
        diam = _spread(pairs)
        bound = Fraction(*diam) if self.bound is None \
            else parse_rational(self.bound)
        if diam[0] * bound.denominator > bound.numerator * diam[1]:
            raise ValueError(f"declared bound {bound} smaller than "
                             f"diameter {Fraction(*diam)}")
        object.__setattr__(self, "bound", bound)

    def value(self, n: int) -> Value:
        if n < 0:
            raise IndexError("negative index")
        if n < len(self.prefix):
            return self.prefix[n]
        T, p = self.tail_start, self.period
        return self.prefix[T + (n - T) % p]

    def pairs(self, lo: int, hi: int, cap: int) -> Sequence[tuple]:
        """The values at lo..hi, each a tuple of (numerator, denominator)
        pairs with positive denominators, one pair per coordinate.  The
        window kernel reads only here; reading past `cap`, the largest
        index its rate check may look at, is an internal error."""
        if lo < 0:
            raise IndexError("negative index")
        if hi > cap:
            raise RuntimeError(
                f"finitarity violation: index {hi} beyond cap {cap}")
        stored = self._pairs
        if hi < len(stored):
            return stored[lo:hi + 1]
        T, p = self.tail_start, self.period
        return [stored[j] if j < len(stored) else stored[T + (j - T) % p]
                for j in range(lo, hi + 1)]

    def diameter(self) -> Fraction:
        """Max pairwise distance among all values the sequence ever takes."""
        return Fraction(*_spread(self._pairs))

    def is_constant_tail(self) -> bool:
        return len(set(self._pairs[self.tail_start:])) == 1


def osc_points(points: Sequence[Value]) -> Fraction:
    """Max pairwise distance of a finite set, in O(n) per coordinate."""
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    if isinstance(pts[0], tuple):
        return max(max(coords) - min(coords) for coords in zip(*pts))
    return max(pts) - min(pts)


def osc_segment(seq, S: Iterable[int]) -> Fraction:
    """sup of pairwise distances of the sequence over a finite index set."""
    indices = list(S)
    if not indices:
        raise ValueError("osc_segment needs a nonempty index set")
    return osc_points([seq.value(i) for i in indices])


def _window_oscs(seq: SequenceSpec, eta: Sampling, indices: Iterable[int],
                 last: int) -> Iterator[tuple]:
    """(i, n, d) for each i of the ascending naturals `indices`, the largest
    of which is `last`, with n/d the exact oscillation of eta_i.

    A linear window [i, ki+c] is read only up to min(ki+c, max(i,T)+p-1),
    with T the tail start and p the period: from max(i, T) on, p
    consecutive values hold the whole period, so the clamped window has the
    same extremes.  Values are read lazily through `SequenceSpec.pairs`,
    capped at the largest index any window reads, so a caller that stops
    at a witness i has read nothing past max(eta_i).  Per window, one loop
    per coordinate drops expired fronts, pushes each new value and takes
    the spread.  An index missing from a table raises SamplingDomainError
    before anything is read.
    """
    if eta.table is not None:
        windows = [(i, eta.eta(i)) for i in indices]
        cap = max((window[-1] for _, window in windows), default=0)
        for i, window in windows:
            yield (i, *_spread([seq.pairs(j, j, cap)[0] for j in window]))
        return
    k, c, T, p = eta.k, eta.c, seq.tail_start, seq.period
    cap, stop = k * last + c, (last if last > T else T) + p - 1
    cap = cap if cap < stop else stop
    # per coordinate x, (numerator, denominator, index) entries of
    # increasing (low) and of decreasing (high) values, one entry shared by
    # both: the fronts are the window's extremes
    tracks = [(x, deque(), deque()) for x in range(len(seq._pairs[0]))]
    unread = 0
    for i in indices:
        # both bounds are nondecreasing in i, so the window slides right
        top, stop = k * i + c, (i if i > T else T) + p - 1
        top = top if top < stop else stop
        lo = i if i > unread else unread  # the first index not yet read
        chunk = seq.pairs(lo, top, cap)
        osc_n, osc_d = 0, 1
        for x, low, high in tracks:
            while low and low[0][2] < i:
                low.popleft()
            while high and high[0][2] < i:
                high.popleft()
            for j, point in enumerate(chunk, lo):
                n, d = point[x]
                entry = n, d, j
                while low and low[-1][0] * d >= n * low[-1][1]:
                    low.pop()
                low.append(entry)
                while high and high[-1][0] * d <= n * high[-1][1]:
                    high.pop()
                high.append(entry)
            low_n, low_d, _ = low[0]
            high_n, high_d, _ = high[0]
            n, d = high_n * low_d - low_n * high_d, high_d * low_d
            if n * osc_d > osc_n * d:
                osc_n, osc_d = n, d
        unread = top + 1
        yield i, osc_n, osc_d


def _first_witness(seq: SequenceSpec, eps: tuple, eta: Sampling,
                   indices: Sequence[int], windows=None) -> Optional[int]:
    """First i of the ascending `indices` whose window oscillates <= eps,
    an (n, d) pair; `windows` yields their (i, n, d), by default from a new
    `_window_oscs` pass.  For a linear sampling and i >= T, a failing window
    i fails again at i+p: it sees the same cyclic segment, at least as long.
    So the search stops with None once failures past T cover every residue
    (i-T) mod p that later indices can have: all p of them, or for a range
    of step s the p/gcd(s, p) of one coset.
    """
    eps_n, eps_d = eps
    T, p = seq.tail_start, seq.period
    failed = None  # the residues failed past T, built at the first of them
    if windows is None:
        windows = _window_oscs(seq, eta, indices, indices[-1] if indices else 0)
    for i, n, d in windows:
        if n * eps_d <= eps_n * d:
            return i
        if i >= T and eta.table is None:
            if failed is None:  # a range of step s reaches p/gcd(s, p)
                failed, reachable = set(), p // math.gcd(
                    getattr(indices, "step", 1), p)
            failed.add((i - T) % p)
            if len(failed) == reachable:
                return None
    return None


def _grid_witnesses(seq: SequenceSpec, eta: Sampling,
                    rates: Sequence[tuple]) -> list:
    """`_first_witness` for each (eps, E) of `rates`, each window evaluated
    once: one pass over the longest E when the others are its prefixes,
    else over the merged sets, advanced only when some eps asks."""
    sets = [E for _, E in rates]
    longest = max(sets, key=len, default=())
    union = longest if all(E == longest[:len(E)] for E in sets) \
        else (i for i, _ in groupby(heapq.merge(*sets)))
    last = max((E[-1] for E in sets), default=0)
    stream, memo = _window_oscs(seq, eta, union, last), {}

    def windows(E):
        for i in E:
            while i not in memo:
                window = next(stream)
                memo[window[0]] = window
            yield memo[i]

    return [_first_witness(seq, eps, eta, E, windows(E)) for eps, E in rates]


def _eps_pair(eps) -> tuple:
    """eps as a (numerator, denominator) pair; ValueError below 0."""
    eps = parse_rational(eps)
    if eps < 0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    return eps.as_integer_ratio()


def _sorted_rate(E: Iterable[int]) -> Sequence[int]:
    """E ascending without repeats; a range with positive step as it is."""
    if not (isinstance(E, range) and E.step > 0):
        E = sorted(set(E))
    if not E:
        raise EmptyRate("no sequence has an empty rate")
    if E[0] < 0:
        raise SamplingDomainError(f"index {E[0]} not in ℕ")
    return E


def metastable_witness(seq: SequenceSpec, eps, eta: Sampling,
                       search_bound: int) -> Optional[int]:
    """Smallest i <= search_bound whose window has oscillation <= eps.

    Absence is a value, not an error: metastability itself is infinitary
    and only this bounded search is finitary.
    """
    return _first_witness(seq, _eps_pair(eps), eta, range(search_bound + 1))


def check_rate(seq: SequenceSpec, eps, eta: Sampling, E: Iterable[int]) -> bool:
    """Does some i in E witness [eps, eta]-metastability?

    Evaluates the sequence only up to max_{i in E} max(eta_i); that
    finiteness is the point of the construction and is asserted.
    """
    return rate_witness(seq, eps, eta, E) is not None


def rate_witness(seq: SequenceSpec, eps, eta: Sampling,
                 E: Iterable[int]) -> Optional[int]:
    """First witness in E, or None; same finitarity contract as check_rate."""
    return _first_witness(seq, _eps_pair(eps), eta, _sorted_rate(E))


def monotone_uniform_rate(eps, eta: Sampling) -> range:
    """The uniform rate {0, ..., F^(k)(0)} with k = ceil(1/eps).

    Valid for every monotone nondecreasing sequence in [0, 1]: at least one
    of the k chained window differences cannot exceed eps.  Raises
    RateTooLarge above MAX_RATE_SIZE elements, and UnsupportedSampling for
    an explicit sampling.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise NonpositiveEpsilon(f"epsilon must be > 0, got {eps}")
    top = 0
    for _ in range(math.ceil(1 / eps)):
        top = eta.f(top)
        if top >= MAX_RATE_SIZE:
            raise RateTooLarge(
                f"the monotone rate at epsilon {format_rational(eps)} has more "
                f"than MAX_RATE_SIZE = {MAX_RATE_SIZE} elements"
            )
    return range(top + 1)


def rate_interval(lo: int, hi: int) -> range:
    """The rate {lo..hi}; RateTooLarge above MAX_RATE_SIZE elements."""
    if hi - lo + 1 > MAX_RATE_SIZE:
        raise RateTooLarge(
            f"rate {lo}..{hi} has {hi - lo + 1} elements, more than "
            f"MAX_RATE_SIZE = {MAX_RATE_SIZE}"
        )
    return range(lo, hi + 1)


def _search_range(seq, eta: Sampling, horizon=None) -> range:
    """0..m, holding a first witness if any: m = min(T+p-1, horizon) for kn+c
    (see osc_eta_exact); for a table the horizon, or else its largest index."""
    if eta.table is not None:
        top = max(eta.table, default=-1) if horizon is None else horizon
        return range(top + 1)
    top = seq.tail_start + seq.period - 1
    return range((top if horizon is None else min(horizon, top)) + 1)


def osc_eta_exact(seq: SequenceSpec, eta: Sampling) -> Fraction:
    """Exact inf over all i of the window oscillation osc over eta_i.

    For a table it is the minimum over the table's domain.  For kn+c it is
    the minimum over i < T+p: past T, i -> osc is p-periodic when k = 1,
    and when k >= 2 every window past max(T, p-2) covers a full period.
    """
    domain = sorted(eta.table) if eta.table is not None \
        else range(seq.tail_start + seq.period)
    least = None
    for _, n, d in _window_oscs(seq, eta, domain, domain[-1] if domain else 0):
        if least is None or n * least[1] < least[0] * d:
            least = n, d
    if least is None:
        raise ValueError("an empty table has no window")
    return Fraction(*least)


def osc_total_exact(seq: SequenceSpec) -> Fraction:
    """Exact total oscillation: the diameter of the tail-period values.

    The prefix is irrelevant (the defining quantifier discards every finite
    initial segment); a constant tail gives 0.
    """
    return Fraction(*_spread(seq._pairs[seq.tail_start:]))


def eps_cauchy_exact(seq: SequenceSpec, eps) -> bool:
    """Is the sequence eps-Cauchy?  Equivalent to osc_total_exact <= eps."""
    return osc_total_exact(seq) <= parse_rational(eps)


@dataclass(frozen=True)
class AuditResult:
    """Outcome of a uniform-rate audit over a family of sequences."""

    passed: bool
    counterexample: Optional[SequenceSpec] = None
    index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.passed


def uniform_rate_audit(family: Iterable[SequenceSpec], eps, eta: Sampling,
                       E: Iterable[int]) -> AuditResult:
    """Check a candidate uniform rate against every member of a finite family.

    Returns AllPass (passed=True) or the first counterexample in family
    order; an empty family passes vacuously.
    """
    eps, E = _eps_pair(eps), _sorted_rate(E)
    for idx, seq in enumerate(family):
        if _first_witness(seq, eps, eta, E) is None:
            return AuditResult(False, seq, idx)
    return AuditResult(True)


def brute_min_uniform_rate(family: Sequence[SequenceSpec], eps, eta: Sampling,
                           horizon: Optional[int] = None) -> Optional[range]:
    """Smallest prefix rate {0..m} valid for the whole family, m <= horizon.

    {0..m} is valid for a member exactly when its first witness is at most
    m, so m is the largest first witness.  None means that some member has
    none: at all without a horizon (the search is exact), or within it.
    """
    if horizon is not None and horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    eps, top = _eps_pair(eps), 0
    for seq in family:
        witness = _first_witness(seq, eps, eta, _search_range(seq, eta, horizon))
        if witness is None:
            return None
        top = max(top, witness)
    return range(top + 1)


# -- rate collections ---------------------------------------------------------


@dataclass(frozen=True)
class RateSpec:
    """A metastability rate: one finite set per epsilon, every epsilon above
    a threshold r.  A range is stored as a range, any other set as a
    frozenset.

    A classical Cauchy modulus M_eps is encoded as the singleton rates
    {M_eps}.
    """

    per_epsilon: Mapping[Fraction, Union[range, frozenset]]
    r: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "r", parse_rational(self.r))
        if self.r < 0:
            raise ValueError("threshold r must be >= 0")
        norm = {}
        for eps, E in self.per_epsilon.items():
            eps = parse_rational(eps)
            if eps <= self.r:
                raise ValueError(
                    f"epsilon key {eps} must exceed the threshold {self.r}")
            if not isinstance(E, range):
                E = frozenset(E)
            if not E:
                raise EmptyRate("rate set is empty")
            norm[eps] = E
        object.__setattr__(self, "per_epsilon", norm)

    def epsilons(self) -> tuple:
        return tuple(sorted(self.per_epsilon))

    def rate_for(self, eps) -> Union[range, frozenset]:
        return self.per_epsilon[parse_rational(eps)]


# -- serialization -------------------------------------------------------------


def _value_to_json(v: Value):
    if isinstance(v, tuple):
        return list(map(_value_to_json, v))
    return format_rational(v)


def sequence_to_json(seq: SequenceSpec) -> dict:
    tail = {"constant": True} if isinstance(seq.tail, Constant) \
        else {"period": seq.tail.period}
    return {
        "prefix": list(map(_value_to_json, seq.prefix)),
        "tail": tail,
        "bound": _value_to_json(seq.bound),
    }


def sequence_from_json(data: dict) -> SequenceSpec:
    """The inverse of sequence_to_json (an older "mode" key is ignored);
    MalformedInput on any other shape.  Each distinct value string is
    parsed once."""
    data = json_object(data, "sequence")
    prefix = expect(data.get("prefix"), list, "prefix", "be a list")
    read = rational_reader()
    values = []
    for k, v in enumerate(prefix):
        # a scalar, or a nonempty list of scalars (a point under the sup
        # metric); text that does not parse is left to SequenceSpec
        coords = tuple(map(read, v if isinstance(v, list) and v else [v]))
        if not all(isinstance(x, (Fraction, str)) for x in coords):
            raise MalformedInput(
                f"prefix entry {k} is neither a value nor a list of values: "
                f"{v!r}")
        values.append(coords if isinstance(v, list) else coords[0])
    tail_spec = data.get("tail", {"constant": True})
    period = tail_spec.get("period") if isinstance(tail_spec, dict) else None
    if isinstance(tail_spec, dict) and tail_spec.get("constant"):
        tail: Tail = Constant()
    elif isinstance(period, int) and not isinstance(period, bool):
        tail = Periodic(period)
    else:
        raise MalformedInput(
            '"tail" must be {"constant": true} or {"period": p}, '
            f"got {tail_spec!r}")
    bound = data.get("bound")
    if bound is not None:
        bound = expect(read(bound), (Fraction, str), "bound", "be a value")
    return SequenceSpec(prefix=tuple(values), tail=tail, bound=bound)


def sequence_from_csv(text: str) -> SequenceSpec:
    """One value per line becomes the prefix, with a constant tail.

    Cells are read exactly ("0.1" is 1/10), each distinct cell once.  Blank
    lines are skipped; a line holding more than one value raises
    MalformedInput naming the line.
    """
    values = []
    read = rational_reader()
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            cells = [cell.strip() for cell in row if cell.strip()]
            if len(cells) > 1:
                raise MalformedInput(
                    f"line {reader.line_num}: one value per line, "
                    f"got {len(cells)}")
            values.extend(map(read, cells))
    except csv.Error as exc:
        raise MalformedInput(f"line {reader.line_num}: {exc}") from exc
    return SequenceSpec(prefix=tuple(values), tail=Constant())
