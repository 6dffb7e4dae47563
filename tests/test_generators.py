"""The seeded generators' draws, pinned by digest.

The benchmark's inputs, the demos and the held-out validation sets are all
drawn from these generators, so a rewrite must keep every draw.  Each
digest is the sha-256 of the printed draws for fixed seeds, recorded from
the `Fraction`-based `random_rational` that the integer version replaced.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from metastable import (
    family_to_json,
    format_rational,
    parse_f_expression,
    sequence_to_json,
)
from metastable.generators import (
    monotone_slice_class,
    random_coherent_family,
    random_finite_structure,
    random_formula,
    random_monotone_sequence,
    random_rational,
    random_tail_sequence,
)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def as_text(data) -> str:
    return json.dumps(data, sort_keys=True)


def rational_draws():
    bounds = [(0, 1), (-1, 1), (-2, 2), (0, 3), (3, 3), (F(1, 8), F(1, 2)),
              (F(-3, 7), F(5, 3)), ("1/3", "2")]
    for seed, (lo, hi) in enumerate(bounds):
        for max_den in (1, 8, 16, 32, 1000):
            rng = random.Random(seed * 1000 + max_den)
            for _ in range(400):
                yield format_rational(random_rational(rng, lo, hi, max_den))


def sequence_draws():
    for seed in range(40):
        rng = random.Random(seed)
        yield as_text(sequence_to_json(random_monotone_sequence(rng)))
        yield as_text(sequence_to_json(random_tail_sequence(rng)))
        yield as_text(sequence_to_json(random_tail_sequence(rng, dim=2)))


def family_draws():
    for seed in range(40):
        yield as_text(family_to_json(random_coherent_family(random.Random(seed))))
    grid = [F(1), F(1, 2), F(2, 5), F(1, 4)]
    for F_text, seed in (("n+1", 5), ("2n+1", 2001), ("3n+2", 7)):
        for fam in monotone_slice_class(parse_f_expression(F_text), grid, 12,
                                        seed, n_omega=3):
            yield as_text(family_to_json(fam))


def formula_draws():
    from metastable.henson import format_formula, structure_to_json

    for seed in range(60):
        rng = random.Random(seed)
        structure = random_finite_structure(rng)
        yield as_text(structure_to_json(structure))
        yield format_formula(random_formula(rng, structure.signature, depth=3))


@pytest.mark.parametrize("draws, expected", [
    (rational_draws,
     "59bcaff90863c64ab8756199c6c9cac63c17667909328883ed66a8c30af80ab6"),
    (sequence_draws,
     "41d32b34a72c913a8758f9cad5ccab98a7251ece393dd43c7a6f01108fe48277"),
    (family_draws,
     "547c66dcdb29ed76ce3460b17273874e074d34547d4158cb23be1a5ad87e8d5b"),
    (formula_draws,
     "f23ec01c3017bf5adbfbf7ca12750fbf5443e729aa5119e8b8671508bb2bdbcb"),
])
def test_draws_are_pinned(draws, expected):
    assert digest(draws()) == expected
