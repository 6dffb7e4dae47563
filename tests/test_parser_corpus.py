"""The parser's answers on a fixed corpus of texts, pinned by digest.

`parser_corpus.json` holds about 3000 (signature, text, digest) rows, written
once from the parser at commit c7af8d7 and never regenerated: a row that no
longer matches is a change in what `parse_formula` answers.  The texts are
`format_formula(random_formula(...))` on the `random_finite_structure`
signature ("one"), one to three character or token mutations of those texts
(deletions, insertions, swaps, duplicated spans, replaced tokens, tokens
rejoined by Unicode whitespace), the two-sort texts of the parser tests and
their mutations ("two"), and token soup with Unicode whitespace and digits.
Window formulas are left out: their shape is not part of the parser.

The digest is the first 16 hex digits of the sha-256 of `repr` of the tree,
or of "class|message|position" for a refusal.
"""

import hashlib
import json
from pathlib import Path

from metastable import MetastableError
from metastable.henson import Signature, parse_formula
from metastable.henson.syntax import REAL

CORPUS = Path(__file__).with_name("parser_corpus.json")

SIGNATURES = {
    # the signature of generators.random_finite_structure
    "one": Signature(sorts=("X",), functions={"h": (("X",), REAL)},
                     constants={"b": "X"}, anchors={"X": "a"}),
    "two": Signature(sorts=("X", "Y"),
                     functions={"f": (("X",), "Y"), "g": (("Y",), "R"),
                                "h": (("X", "Y"), "R")},
                     constants={"a": "X", "b": "Y"}),
}


def outcome(sig: str, text: str) -> str:
    try:
        return repr(parse_formula(text, SIGNATURES[sig]))
    except MetastableError as err:
        return f"{type(err).__name__}|{err}|{getattr(err, 'position', None)}"


def digest(sig: str, text: str) -> str:
    return hashlib.sha256(outcome(sig, text).encode()).hexdigest()[:16]


def test_corpus_answers_are_unchanged():
    rows = json.loads(CORPUS.read_text())
    assert len(rows) > 2900
    mismatches = []
    for sig, text, expected in rows:
        got = digest(sig, text)
        if got != expected:
            mismatches.append(f"{sig} {text!r}: recorded {expected}, now {got}")
    assert not mismatches, "\n".join(mismatches[:20])
