"""Fuzz of the front door: edited theory files, model blocks and JSON model
files go through `parse_theory` and every CLI subcommand.  Each run must
end in exit code 0, 1 or 2 with no exception escaping and no traceback on
stderr; `parse_theory` may only raise the library's own errors."""
import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abslog import parse_theory
from abslog.cli import main
from abslog.errors import AbslogError

CORPUS = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
TOKEN = re.compile(r"\s+|[\w′]+|:=|->|==>|[^\w\s]")

MODEL_THEORY = """logic D
model m {
  carrier T, F
  true := T
  imp := { (T, T) -> T, (T, F) -> F, (F, T) -> T, (F, F) -> T }
  all := { ([T, T]) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F }
}
theorem t: A -> true
proof
  s1: ax D2
  s2: subst s1 { A := true, B := A } ==> A -> true
qed
"""
MODEL_JSON = {
    "carrier": ["T", "F"],
    "interp": {
        "true": "T",
        "imp": {"T;T": "T", "T;F": "F", "F;T": "T", "F;F": "T"},
        "all": {"T,T": "T", "T,F": "F", "F,T": "F", "F,F": "F"},
    },
}
SOURCES = {
    "prelude": ((CORPUS / "prelude_k.al").read_text(encoding="utf-8"), "boolean"),
    "peano": ((CORPUS / "peano.al").read_text(encoding="utf-8"), "degenerate"),
    "model-block": (MODEL_THEORY, "m"),
}
# tokens spliced into a source besides its own
SPLICE = ("(", ")", "[", "]", "{", "}", ".", ",", ":=", "->", "==>", "/",
          "all", "∀", "x", "A", "T", "X", "0", "99", "model", "carrier",
          "axiom", "theorem", "proof", "qed", "subst", "mp", "ax", "\n", "")

# (position, operation, position of the token to copy, token to put)
edits = st.lists(st.tuples(st.integers(0, 10**6),
                           st.sampled_from(("drop", "copy", "put")),
                           st.integers(0, 10**6), st.sampled_from(SPLICE)),
                 min_size=1, max_size=3)
json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-1, 3),
                      st.sampled_from(("T", "F", "X", "", "T,T", "T;F", "T,F,T")))
json_values = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(("T", "F", "T;T", "T,F", "true", "imp", "all", "carrier")),
        inner, max_size=3),
    max_leaves=6)


def _edit_tokens(text: str, plan) -> str:
    tokens = TOKEN.findall(text)
    for at, op, other, splice in plan:
        i = at % len(tokens)
        if op == "drop":
            del tokens[i]
        elif op == "copy":
            tokens.insert(i, tokens[other % len(tokens)])
        else:
            tokens[i] = splice
        if not tokens:
            tokens = [""]
    return "".join(tokens)


def _paths(node, path=()):
    """Every path from the root of a JSON document to a node below it."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, sub in items:
        yield path + (key,)
        yield from _paths(sub, path + (key,))


def _edit_json(doc, draw):
    """doc with one node below the root replaced or (in an object)
    deleted."""
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))
    if not paths:
        return doc
    *way, key = draw(st.sampled_from(paths))
    parent = doc
    for k in way:
        parent = parent[k]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


def _run(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("front_door")


def _check_exit_codes(theory: Path, text: str, spec: str) -> None:
    theory.write_text(text, encoding="utf-8")
    try:
        parse_theory(text)
    except AbslogError:
        pass
    _run(["check", str(theory)])
    _run(["model-check", str(theory), "--model", spec, "--arity-cap", "1"])
    _run(["eval", str(theory), "--term", "(all x. x -> A)", "--model", spec])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SOURCES)), plan=edits)
def test_edited_theory_ends_in_an_exit_code(workdir, kind, plan):
    source, spec = SOURCES[kind]
    _check_exit_codes(workdir / "theory.al", _edit_tokens(source, plan), spec)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_edited_json_model_ends_in_an_exit_code(workdir, data):
    doc = MODEL_JSON
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _edit_json(doc, data.draw)
    spec = workdir / "model.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    _check_exit_codes(workdir / "theory.al", "logic D\n", str(spec))
