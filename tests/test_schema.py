"""The CLI's in-repo schema checker against jsonschema as the oracle.

The oracle is jsonschema's Draft202012Validator with one change, the
checker's documented integer rule: an "integer" is a JSON integer, so 1.0
and true are not.
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.validators import extend

import mobiusq.cli as cli_mod
from mobiusq.cli import _SCHEMA_KEYWORDS, MINFIND_SCHEMA, TRANSFORM_SCHEMA, _validate

DATA = Path(__file__).parent / "data"

Oracle = extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _checker, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)

FIXTURES = {
    "mobius3_sweep_shots5000.json": TRANSFORM_SCHEMA,
    "marginal5_n0_3_sweep_shots5000.json": TRANSFORM_SCHEMA,
    "minfind18_classical.json": MINFIND_SCHEMA,
}
DOCS = {name: json.loads((DATA / name).read_text()) for name in FIXTURES}
INSERTS = [True, 1.0, "01\n", "012", [], None]


def _accepts(value, schema) -> bool:
    try:
        _validate(value, schema)
    except ValueError:
        return False
    return True


def _paths(doc, prefix=()):
    """Every location below the root of a JSON document, as key/index tuples."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_committed_fixtures_pass_both_checkers(name):
    assert _accepts(DOCS[name], FIXTURES[name])
    assert Oracle(FIXTURES[name]).is_valid(DOCS[name])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(FIXTURES)), st.data())
def test_validate_agrees_with_the_oracle_on_mutated_fixtures(name, data):
    schema, doc = FIXTURES[name], copy.deepcopy(DOCS[name])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = data.draw(st.sampled_from(INSERTS + ["delete"]), label="edit")
        if edit == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(edit)
    assert _accepts(doc, schema) == Oracle(schema).is_valid(doc)


@pytest.mark.parametrize("value", [3.0, True])
def test_integer_rule_is_the_one_difference_from_jsonschema(value):
    doc = copy.deepcopy(DOCS["mobius3_sweep_shots5000.json"])
    doc["n"] = value
    assert not _accepts(doc, TRANSFORM_SCHEMA)
    assert not Oracle(TRANSFORM_SCHEMA).is_valid(doc)
    # stock jsonschema takes 3.0 as an integer, and rejects true as this checker does
    assert Draft202012Validator(TRANSFORM_SCHEMA).is_valid(doc) == (value == 3.0)


def _keywords(schema: dict):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    if "items" in schema:
        yield from _keywords(schema["items"])


@pytest.mark.parametrize("schema", [TRANSFORM_SCHEMA, MINFIND_SCHEMA], ids=["transform", "minfind"])
def test_schemas_use_only_keywords_validate_implements(schema):
    assert set(_keywords(schema)) <= _SCHEMA_KEYWORDS


# one (schema, instance) per implemented keyword, failing on that keyword alone
KEYWORD_FAILURES = {
    "type": ({"type": "string"}, 1),
    "required": ({"required": ["a"]}, {}),
    "properties": ({"properties": {"a": {"type": "string"}}}, {"a": 1}),
    "items": ({"items": {"type": "string"}}, [1]),
    "minItems": ({"minItems": 1}, []),
    "enum": ({"enum": [0, 1]}, False),
    "const": ({"const": "minfind"}, "mobius"),
    "pattern": ({"pattern": "^[01]+$"}, "012"),
    "minimum": ({"minimum": 1}, 0),
}


def test_every_listed_keyword_is_enforced():
    assert set(KEYWORD_FAILURES) == _SCHEMA_KEYWORDS
    for keyword, (schema, instance) in KEYWORD_FAILURES.items():
        assert not Oracle(schema).is_valid(instance), keyword
        with pytest.raises(ValueError, match=r"^\$"):
            _validate(instance, schema)


def test_importing_the_cli_loads_no_jsonschema():
    """jsonschema is a test-only oracle: the CLI's cold start never pays for it."""
    code = (
        "import sys, mobiusq.cli; "
        "print(sorted(m for m in ('jsonschema', 'referencing', 'attrs', 'rpds') if m in sys.modules))"
    )
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
