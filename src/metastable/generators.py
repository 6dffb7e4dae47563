"""Seeded generators for sequences, families, structures, and formulas.

Used by the test suite, the demos, and the CLI search commands.  Everything
draws from an explicit random.Random so runs are reproducible; the CLI
seeds it from METASTABLE_SEED.

The monotone-slice class deliberately mixes random members with a
deterministic adversarial core: for each epsilon a staircase climbing in
steps just over epsilon at the sampling's chained window boundaries.  Such
a staircase defeats every prefix rate shorter than the chained bound, so a
brute-force search over any sample containing the core lands on the rate
valid for the whole class, which is what makes held-out validation stable.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from .dct import DirectedFamily
from .directed import Sampling
from .measure import LInfFunction, MeasureStructure
from .errors import RateTooLarge
from .netcore import MAX_RATE_SIZE, Constant, Periodic, SequenceSpec
from .rationals import format_rational, parse_rational

if TYPE_CHECKING:
    from .henson.syntax import Formula, Signature


def random_rational(rng: random.Random, lo=0, hi=1, max_den: int = 32) -> Fraction:
    """lo + num/den: den in 1..max_den, then num in 0..floor((hi-lo)·den)."""
    (a, b), (c, d) = ((q if type(q) is int else parse_rational(q))
                      .as_integer_ratio() for q in (lo, hi))
    den = rng.randint(1, max_den)
    num = rng.randint(0, (c * b - a * d) * den // (b * d))
    return Fraction(a * den + num * b, b * den)


# -- sequences ---------------------------------------------------------------


def random_monotone_sequence(rng: random.Random, max_prefix: int = 8,
                             max_den: int = 32) -> SequenceSpec:
    """Monotone nondecreasing values in [0, 1] with a constant tail."""
    n = rng.randint(1, max_prefix)
    values = sorted(random_rational(rng, 0, 1, max_den) for _ in range(n))
    return SequenceSpec(prefix=tuple(values), tail=Constant(), bound=1)


def step_sequence(M: int, low=0, high=1) -> SequenceSpec:
    """low through index M, then high forever."""
    low, high = parse_rational(low), parse_rational(high)
    return SequenceSpec(prefix=(low,) * (M + 1) + (high,), tail=Constant())


def alternating_sequence(a=1, b=-1) -> SequenceSpec:
    """The period-2 sequence a, b, a, b, ..."""
    return SequenceSpec(prefix=(parse_rational(a), parse_rational(b)),
                        tail=Periodic(2))


def staircase_sequence(eps, eta: Sampling) -> SequenceSpec:
    """The adversarial monotone staircase for a given epsilon and sampling.

    Climbs by eps + delta exactly at the chained window boundaries
    0, F(0), F(F(0)), ... for k - 1 steps (k = ceil(1/eps)), then stays
    constant; delta is chosen so the total climb stays below 1.  Every
    window starting before the last boundary straddles a climb, so no
    prefix rate shorter than {0..F^(k-1)(0)} can witness stability.
    RateTooLarge, from the integer boundaries alone and before any value is
    built, when that prefix would hold more than MAX_RATE_SIZE values.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    jumps = math.ceil(1 / eps) - 1
    step = eps + (1 - jumps * eps) / (2 * jumps) if jumps else 0
    boundaries = [0]
    for _ in range(jumps):
        boundaries.append(eta.f(boundaries[-1]))
        if boundaries[-1] >= MAX_RATE_SIZE:
            raise RateTooLarge(
                f"the staircase at epsilon {format_rational(eps)} has more "
                f"than MAX_RATE_SIZE = {MAX_RATE_SIZE} values")
    values = []
    for count, (start, end) in enumerate(zip(boundaries, boundaries[1:])):
        # indices start..end-1 have climbed at `count` boundaries
        values += [step * count] * (end - start)
    values.append(step * jumps)
    return SequenceSpec(prefix=tuple(values), tail=Constant(), bound=1)


def random_tail_sequence(rng: random.Random, max_prefix: int = 8,
                         max_period: int = 4, dim: int = 1,
                         lo=-1, hi=1, max_den: int = 16) -> SequenceSpec:
    """A random tail-structured sequence; scalar or tuple-valued."""
    period = rng.randint(1, max_period)
    extra = rng.randint(0, max_prefix)

    def point():
        if dim == 1:
            return random_rational(rng, lo, hi, max_den)
        return tuple(random_rational(rng, lo, hi, max_den) for _ in range(dim))

    prefix = tuple(point() for _ in range(extra + period))
    tail = Constant() if period == 1 else Periodic(period)
    return SequenceSpec(prefix=prefix, tail=tail)


# -- measures and families ------------------------------------------------------


def random_probability_measure(rng: random.Random, n: int) -> MeasureStructure:
    omega = tuple(f"w{i}" for i in range(n))
    raw = [rng.randint(1, 8) for _ in range(n)]
    total = sum(raw)
    weights = {w: Fraction(raw[i], total) for i, w in enumerate(omega)}
    return MeasureStructure(omega=omega, weights=weights, kind="probability")


def random_positive_measure(rng: random.Random, n: int,
                            max_den: int = 8) -> MeasureStructure:
    omega = tuple(f"w{i}" for i in range(n))
    weights = {w: random_rational(rng, 0, 2, max_den) for w in omega}
    return MeasureStructure(omega=omega, weights=weights, kind="finite")


def random_signed_measure(rng: random.Random, n: int,
                          max_den: int = 8) -> MeasureStructure:
    omega = tuple(f"w{i}" for i in range(n))
    weights = {w: random_rational(rng, -2, 2, max_den) for w in omega}
    return MeasureStructure(omega=omega, weights=weights, kind="signed")


def random_linf(rng: random.Random, omega: Sequence[str], lo=-2, hi=2,
                max_den: int = 8) -> LInfFunction:
    return LInfFunction({w: random_rational(rng, lo, hi, max_den) for w in omega})


def random_coherent_family(rng: random.Random, max_omega: int = 5,
                           max_period: int = 4, max_prefix: int = 8
                           ) -> DirectedFamily:
    """A random family with tail-structured scalar slices in [-1, 1]."""
    n = rng.randint(1, max_omega)
    measure = (random_probability_measure(rng, n) if rng.random() < 0.5
               else random_positive_measure(rng, n))
    slices = {
        w: random_tail_sequence(rng, max_prefix, max_period, dim=1)
        for w in measure.omega
    }
    return DirectedFamily(measure=measure, slices=slices)


def random_monotone_family(rng: random.Random, n_omega: int = 2,
                           max_prefix: int = 8) -> DirectedFamily:
    """Probability measure with monotone nondecreasing slices in [0, 1]."""
    measure = random_probability_measure(rng, n_omega)
    slices = {
        w: random_monotone_sequence(rng, max_prefix) for w in measure.omega
    }
    return DirectedFamily(measure=measure, slices=slices, norm_phi=1)


def staircase_family(eps, eta: Sampling, n_omega: int = 2) -> DirectedFamily:
    """All slices equal to the adversarial staircase; integral = staircase."""
    stair = staircase_sequence(eps, eta)
    omega = tuple(f"w{i}" for i in range(n_omega))
    measure = MeasureStructure(
        omega=omega,
        weights={w: Fraction(1, n_omega) for w in omega},
        kind="probability",
    )
    return DirectedFamily(measure=measure,
                          slices={w: stair for w in omega}, norm_phi=1)


def monotone_slice_class(eta: Sampling, eps_grid: Iterable, n_random: int,
                         seed: int, n_omega: int = 2) -> List[DirectedFamily]:
    """The adversarial core plus seeded random monotone families."""
    rng = random.Random(seed)
    core = [staircase_family(eps, eta, n_omega) for eps in eps_grid]
    return core + [
        random_monotone_family(rng, n_omega) for _ in range(n_random)
    ]


# -- structures and formulas ------------------------------------------------------
# henson is imported inside these generators, on first use, so that importing
# this module (and the CLI, which uses the sequence generators) leaves it out


_RADII = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def random_finite_structure(rng: random.Random, max_points: int = 4):
    """A one-sort structure with a line or discrete metric, an anchor
    constant, one named point, and a random unary real-valued function."""
    from .henson.structure import FiniteStructure, discrete_sort, line_sort
    from .henson.syntax import REAL, Signature

    n = rng.randint(2, max_points)
    labels = [f"p{i}" for i in range(n)]
    if rng.random() < 0.5:
        coords = {p: random_rational(rng, 0, 3, 8) for p in labels}
        # distinct coordinates keep the identity axiom
        used = set()
        for p in labels:
            while coords[p] in used:
                coords[p] += Fraction(1, 17)
            used.add(coords[p])
        data = line_sort(coords, anchor=labels[0])
    else:
        data = discrete_sort(labels, anchor=labels[0])
    sig = Signature(
        sorts=("X",),
        functions={"h": (("X",), REAL)},
        constants={"b": "X"},
        anchors={"X": "a"},
    )
    interps = {
        "a": labels[0],
        "b": labels[rng.randrange(n)],
        "h": {(p,): random_rational(rng, -2, 2, 8) for p in labels},
    }
    return FiniteStructure(sig, {"X": data}, interps)


def _random_point_term(rng: random.Random, env: dict):
    from .henson.syntax import Const, Var

    pool = [Var(name, sort) for name, sort in env.items() if sort == "X"]
    pool += [Const("a", "X"), Const("b", "X")]
    return rng.choice(pool)


def _random_real_term(rng: random.Random, sig: Signature, env: dict, depth: int):
    from .henson.syntax import METRIC, Lit, apply

    choice = rng.random()
    if depth <= 0 or choice < 0.35:
        if rng.random() < 0.5:
            return apply(sig, METRIC, _random_point_term(rng, env),
                         _random_point_term(rng, env))
        return apply(sig, "h", _random_point_term(rng, env))
    if choice < 0.55:
        return Lit(random_rational(rng, -1, 2, 8))
    op = rng.choice(("add", "sub", "mul", "min", "max"))
    return apply(sig, op,
                 _random_real_term(rng, sig, env, depth - 1),
                 _random_real_term(rng, sig, env, depth - 1))


def random_formula(rng: random.Random, sig: Signature, depth: int = 2,
                   env: Optional[dict] = None, _next_var: int = 0) -> Formula:
    """A random positive bounded formula over the one-sort test signature."""
    from .henson.syntax import And, AtomGe, AtomLe, Exists, Forall, Or, Var

    env = dict(env or {})
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        name = f"v{_next_var}"
        var = Var(name, "X")
        env[name] = "X"
        body = random_formula(rng, sig, depth - 1, env, _next_var + 1)
        node = Exists if rng.random() < 0.5 else Forall
        return node(rng.choice(_RADII), var, body)
    if depth > 0 and roll < 0.6:
        left = random_formula(rng, sig, depth - 1, env, _next_var)
        right = random_formula(rng, sig, depth - 1, env, _next_var + 7)
        node = And if rng.random() < 0.5 else Or
        return node(left, right)
    term = _random_real_term(rng, sig, env, 1)
    bound = random_rational(rng, -1, 3, 8)
    return AtomLe(term, bound) if rng.random() < 0.5 else AtomGe(term, bound)
