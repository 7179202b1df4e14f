"""The parser and the printer against a corpus recorded before either
read or wrote RatFuncs directly.

`tests/data/golden/printer_corpus.txt` holds one input expression per
line, a tab, and then the text the program printed for its canonical
form, or `!` and the name of the exception the input raised.  The
inputs are every metric and generator expression of the bundled and
test data, the expressions the tests write as rf("...") literals, and
about 1,800 seeded random trees from the generators of
test_symexpr_properties and test_calculus (depths 3 and 4, trig
reciprocals, ln, arctan and fractional powers included), most fully
parenthesized by reference_calculus.text and some written by
plain_text with the grammar's precedence.
"""

from pathlib import Path

import pytest

from liesym.symexpr import parse_expr

CORPUS = Path(__file__).parent / "data" / "golden" / "printer_corpus.txt"


def _entries():
    return [line.split("\t") for line in CORPUS.read_text().splitlines()]


def _outcome(text):
    try:
        return parse_expr(text)[0]
    except (ValueError, ZeroDivisionError) as exc:
        return exc


def test_corpus_parses_and_prints_as_recorded():
    entries = _entries()
    assert len(entries) > 1800
    mismatches = []
    for text, expected in entries:
        got = _outcome(text)
        printed = "!" + type(got).__name__ if isinstance(got, Exception) else str(got)
        if printed != expected:
            mismatches.append((text, expected, printed))
    assert not mismatches, mismatches[:5]


def test_printed_text_parses_back_to_the_same_ratfunc():
    failures = []
    for text, expected in _entries():
        if expected.startswith("!"):
            continue
        rf = parse_expr(text)[0]
        if parse_expr(str(rf))[0] != rf:
            failures.append(text)
    assert not failures, failures[:5]
