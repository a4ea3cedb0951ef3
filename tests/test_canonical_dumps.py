"""Differential test of the report and document encoder: canonical_dumps
must write exactly what json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False) writes, and a newline, on every report in
tests/golden/cli.json, every fixture document, and generated nested
documents (non-ASCII and escaped strings, ints, elapsed_ms floats,
bools, None, tuples, empty and deep containers).  A value of a type it
does not handle is refused, never written as some string."""
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lincat import registry
from lincat.formats import canonical_dumps

GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def golden_reports() -> list:
    """The JSON reports and diagnostics recorded in the golden file."""
    out = []
    for entry in json.loads(GOLDEN.read_text(encoding="utf-8")).values():
        for stream in ("stdout", "stderr"):
            text = entry.get(stream, "")
            if text.startswith("{"):
                out.append(json.loads(text))
    return out


def fixture_documents() -> list:
    names = [n for n in registry.fixture_names() if n != "cyclic-cover-n"]
    return [doc for n in names + ["cyclic-cover-5"]
            for doc in registry.fixture_files(n).values()
            if isinstance(doc, dict)]


@pytest.mark.parametrize("doc", golden_reports() + fixture_documents())
def test_recorded_documents_encode_as_json_does(doc):
    assert canonical_dumps(doc) == reference(doc)


def test_golden_reports_are_many():
    assert len(golden_reports()) >= 20


strings = st.text() | st.sampled_from(
    ["", "é∘ü", "a\"b\\c", "tab\there\nnew", "\x00\x1f\x7f", " ",
     "😀", "g∘f", "1/2", "-3 mod 5"])
elapsed = st.floats(min_value=0, max_value=1e7,
                    allow_nan=False).map(lambda t: round(t, 3))
leaves = (st.none() | st.booleans() | st.integers() | strings | elapsed
          | st.floats(allow_nan=False, allow_infinity=False))
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(strings, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_generated_documents_encode_as_json_does(doc):
    assert canonical_dumps(doc) == reference(doc)


@given(st.integers(min_value=0, max_value=60), leaves)
def test_deep_documents_encode_as_json_does(depth, leaf):
    doc = leaf
    for i in range(depth):
        doc = {"k": doc} if i % 2 else [doc, {}, []]
    assert canonical_dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc,error", [
    ({1: "a"}, TypeError),
    ({"a": Fraction(1, 2)}, TypeError),
    ([{"a", "b"}], TypeError),
    ({"a": [object()]}, TypeError),
    ({"a": b"bytes"}, TypeError),
    ({"a": float("nan")}, ValueError),
    ([float("inf")], ValueError),
])
def test_unhandled_values_are_refused(doc, error):
    with pytest.raises(error):
        canonical_dumps(doc)
