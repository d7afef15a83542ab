import json
import re
import time
from pathlib import Path

import pytest

from abslog import check_theory, parse_theory
from abslog.cli import main
from abslog.driver import build_model, model_for
from abslog.errors import (
    AbslogError,
    BadTableKey,
    DuplicateRow,
    EmptyCarrier,
    MissingInterpretation,
    MissingRow,
    ModelError,
    UnknownValue,
)
from abslog.logics import SIG_D

CORPUS = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
DATA = Path(__file__).parent / "data"


def test_check_corpus_exit_zero(capsys):
    for name in ("prelude_k.al", "peano.al"):
        assert main(["check", str(CORPUS / name)]) == 0
        out = capsys.readouterr().out
        assert "failed" not in out


def test_check_bad_script_exit_one(capsys):
    assert main(["check", str(DATA / "bad_mp_notimp.al")]) == 1
    out = capsys.readouterr().out
    assert "failed" in out and "NotAnImplication" in out


def test_check_missing_file_exit_two(capsys):
    assert main(["check", "no_such_file.al"]) == 2


def test_check_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "broken.al"
    bad.write_text("logic D\naxiom Q: (all x. x")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "broken.al:2:" in err


@pytest.mark.parametrize("text, where", [
    ("logic D\naxiom Z: A\nlogic K\ntheorem t: true\nproof\n  s1: ax D1\nqed\n",
     "3:1: error: [SyntaxError]"),
    ("logic D\nabstraction model (0; {})\n", "2:13: error: [SyntaxError]"),
    ("logic D\nabstraction box (0; {})\nabstraction box (0; {})\n",
     "3:13: error: [DuplicateAbstraction]"),
    ("logic Q\n", "1:7: error: [UnknownLogic]"),
    ("logic D\nabstraction q (2; {0})\n", "2:13: error: [DegenerateShape]"),
    ("logic D\nabstraction q (1; {1})\n", "2:13: error: [IndexOutOfRange]"),
    ("logic D\nabstraction q (2; {0, 1})\naxiom Q: (q x x. A)\n",
     "3:11: error: [DuplicateBinder]"),
    ("logic D\ntheorem t: true\nproof\n  s1: ax D1\n"
     "  s2: subst s1 { A/2 := [x x. x] }\nqed\n",
     "5:18: error: [DuplicateBinder]"),
], ids=["second-logic", "keyword-abstraction", "duplicate-abstraction",
        "unknown-logic", "degenerate-shape", "index-out-of-range",
        "repeated-binder", "repeated-template-parameter"])
def test_bad_declaration_exit_two(tmp_path, capsys, text, where):
    path = tmp_path / "decl.al"
    path.write_text(text)
    for argv in (["check", str(path)],
                 ["model-check", str(path), "--model", "degenerate"]):
        assert main(argv) == 2
        assert f"decl.al:{where}" in capsys.readouterr().err


def test_theory_without_a_logic_exits_two(tmp_path, capsys):
    path = tmp_path / "bare.al"
    path.write_text("theorem t: A\nproof\n  s: ax D1\nqed\n")
    for argv in (["check", str(path)],
                 ["model-check", str(path), "--model", "degenerate"]):
        assert main(argv) == 2
        assert "[NotLogicSignature]" in capsys.readouterr().err


def test_check_json_schema(capsys):
    assert main(["check", str(CORPUS / "prelude_k.al"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["file"].endswith("prelude_k.al")
    names = [b["name"] for b in doc["blocks"]]
    assert "efq" in names and "dichotomy" in names
    for block in doc["blocks"]:
        assert set(block) == {"name", "kind", "verdict", "diagnostics"}
        assert block["verdict"] == "proved"


def test_check_json_reports_diagnostics(capsys):
    assert main(["check", str(DATA / "bad_ax.al"), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    diags = [d for b in doc["blocks"] for d in b["diagnostics"]]
    assert diags and diags[0]["code"] == "NotAnAxiom"
    assert diags[0]["line"] > 0


def test_model_check_cli(capsys):
    assert main(["model-check", str(CORPUS / "prelude_k.al"),
                 "--model", "boolean", "--arity-cap", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("holds") == 21


def test_model_check_failure_reported(tmp_path, capsys):
    bad = tmp_path / "inconsistent.al"
    bad.write_text("logic D\naxiom BAD: all x. x\n")
    assert main(["model-check", str(bad), "--model", "boolean"]) == 1
    out = capsys.readouterr().out
    assert "BAD: fails" in out


def test_model_check_failure_in_carrier_names(tmp_path, capsys):
    bad = tmp_path / "z.al"
    bad.write_text("logic D\n\n  axiom Z: A\n")
    message = "axiom evaluates to F; A/0 := [F]"
    assert main(["model-check", str(bad), "--model", "boolean"]) == 1
    assert f"Z: fails\n  {message}\n" in capsys.readouterr().out
    assert main(["model-check", str(bad), "--model", "boolean", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    z = [b for b in doc["blocks"] if b["name"] == "Z"][0]
    assert [d["message"] for d in z["diagnostics"]] == [message]
    assert [(d["line"], d["col"]) for d in z["diagnostics"]] == [(3, 3)]
    # an axiom of the base logic is located at the `logic` line
    assert parse_theory(bad.read_text()).axiom_positions["D4"] == (1, 1)


def test_eval_cli(capsys):
    assert main(["eval", str(CORPUS / "prelude_k.al"),
                 "--term", "(all x. x)", "--model", "boolean"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "(all x. x) = F"
    assert main(["eval", str(CORPUS / "prelude_k.al"),
                 "--term", "not A", "--model", "boolean",
                 "--assign", "A=F"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "not A = T"


def test_eval_bad_assignment(capsys):
    assert main(["eval", str(CORPUS / "prelude_k.al"),
                 "--term", "A", "--model", "boolean",
                 "--assign", "A=Maybe"]) == 2


def test_one_process_answers_alike_every_time(capsys):
    """The parser is built once per process, so no call, a usage error
    included, may leave behind anything that changes the next."""
    prelude = str(CORPUS / "prelude_k.al")
    calls = [["check", prelude],
             ["model-check", prelude, "--model", "boolean", "--arity-cap", "1"],
             ["eval", prelude, "--term", "not A", "--model", "boolean",
              "--assign", "A=F"],
             ["check", prelude, "--model", "boolean"],  # usage error
             ["eval", prelude, "--term", "A", "--model", "boolean"]]

    def run_all():
        answers = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            answers.append((code, capsys.readouterr().out))
        return answers

    first = run_all()
    assert [code for code, _ in first] == [0, 0, 0, 2, 0]
    assert run_all() == first


# driver-level behavior


def test_lemmas_usable_across_blocks():
    tf = parse_theory("""
        logic D
        theorem top: true
        proof
          s1: ax D1
        qed
        theorem top_again: true
        proof
          s1: lemma top
        qed
        """)
    assert check_theory(tf).passed


def test_claim_mismatch_diagnostic():
    tf = parse_theory("""
        logic D
        theorem t: true
        proof
          s1: ax D1 ==> A -> A
        qed
        """)
    report = check_theory(tf)
    assert not report.passed
    assert report.results[0].diagnostics[0].code == "ClaimMismatch"


def test_conclusion_mismatch_diagnostic():
    tf = parse_theory("""
        logic D
        theorem t: A -> A
        proof
          s1: ax D1
        qed
        """)
    report = check_theory(tf)
    assert report.results[0].diagnostics[0].code == "ConclusionMismatch"


def test_duplicate_step_diagnostic():
    tf = parse_theory("""
        logic D
        theorem t: true
        proof
          s1: ax D1
          s1: ax D1
        qed
        """)
    assert check_theory(tf).results[0].diagnostics[0].code == "DuplicateStep"


def test_unknown_step_reference():
    tf = parse_theory("""
        logic D
        theorem t: true
        proof
          s2: mp s0 s1
        qed
        """)
    report = check_theory(tf)
    assert not report.passed
    assert report.results[0].diagnostics[0].code == "UnknownStep"


def test_failure_does_not_poison_later_blocks():
    tf = parse_theory("""
        logic D
        theorem broken: A
        proof
          s1: ax D1
        qed
        theorem fine: true
        proof
          s1: ax D1
        qed
        """)
    report = check_theory(tf)
    assert [r.verdict for r in report.results] == ["failed", "proved"]


def test_build_model_validation():
    good = """
        logic D
        model two {
          carrier T, F
          true := T
          imp := { (T, T) -> T, (T, F) -> F, (F, T) -> T, (F, F) -> T }
          all := { ([T, T]) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F }
        }
        """
    tf = parse_theory(good)
    alg = build_model(tf.model_block("two"), SIG_D)
    assert alg.size == 2
    with pytest.raises(AbslogError):
        # the table for imp is incomplete
        parse = parse_theory(good.replace(", (F, F) -> T", ""))
        build_model(parse.model_block("two"), SIG_D)
    with pytest.raises(AbslogError):
        parse = parse_theory(good.replace("true := T", "true := X"))
        build_model(parse.model_block("two"), SIG_D)


def test_model_for_resolution(tmp_path):
    tf = parse_theory("logic D\n")
    assert model_for(tf, "degenerate").size == 1
    # boolean needs the full classical signature behind the theory
    with pytest.raises(AbslogError):
        model_for(parse_theory("logic D\nabstraction box (0; {})\n"), "boolean")
    with pytest.raises(FileNotFoundError):
        model_for(tf, str(tmp_path / "missing.json"))


@pytest.mark.parametrize("argv", [
    ["check", "{dir}"],
    ["check", "{latin1}"],
    ["model-check", "{ok}", "--model", "{dir}"],
    ["model-check", "{ok}", "--model", "{broken}"],
    ["model-check", "{ok}", "--model", "{latin1}"],
    ["eval", "{ok}", "--term", "true", "--model", "{broken}"],
    ["check", "{deep}"],
    ["model-check", "{deep}", "--model", "boolean"],
    ["check", "{tall}"],
], ids=["check-dir", "check-not-utf8", "model-dir", "model-not-json",
        "model-not-utf8", "eval-model-not-json", "check-too-deep",
        "model-too-deep", "check-too-deep-for-the-kernel"])
def test_io_errors_exit_two(tmp_path, capsys, argv):
    files = {"dir": tmp_path / "a_dir", "latin1": tmp_path / "latin1.al",
             "ok": tmp_path / "ok.al", "broken": tmp_path / "broken.json",
             "deep": tmp_path / "deep.al", "tall": tmp_path / "tall.al"}
    files["dir"].mkdir()
    files["latin1"].write_bytes(b"logic D\naxiom caf\xe9: true\n")
    files["ok"].write_text("logic D\n")
    files["broken"].write_text('{"carrier": ["T", "F"], ')
    files["deep"].write_text("logic D\naxiom Z: " + " -> ".join(["A"] * 1501) + "\n")
    # parses, but its instance is too deep for the kernel's term walkers
    files["tall"].write_text("logic D\naxiom Z: " + " -> ".join(["A"] * 700) + "\n"
                             "theorem t: true\nproof\n  s1: ax Z\n"
                             "  s2: subst s1 { A := true }\n  s3: ax D1\nqed\n")
    assert main([a.format(**files) for a in argv]) == 2
    err = capsys.readouterr().err
    if "deep" in argv[1]:
        # the parser names the token it was reading when the nesting ran out
        where = re.escape(str(files["deep"]))
        assert re.fullmatch(where + r":2:\d+: error: \[TooDeep\] [^\n]*\n", err)
    else:
        assert err.startswith("error:")
    assert "Traceback" not in err


_GOOD_INTERP = """
  true := T
  imp := { (T, T) -> T, (T, F) -> F, (F, T) -> T, (F, F) -> T }
  all := { ([T, T]) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F }
"""
_GOOD_JSON = {
    "carrier": ["T", "F"],
    "interp": {
        "true": "T",
        "imp": {"T;T": "T", "T;F": "F", "F;T": "T", "F;F": "T"},
        "all": {"T,T": "T", "T,F": "F", "F,T": "F", "F,F": "F"},
    },
}


def _json_with(**interp):
    doc = json.loads(json.dumps(_GOOD_JSON))
    for name, spec in interp.items():
        if spec is None:
            del doc["interp"][name]
        else:
            doc["interp"][name] = spec
    return doc


# (JSON document, or its text where a dict cannot say it; model block body
# or None where blocks cannot say it; error)
MALFORMED = {
    "value-outside-carrier": (
        _json_with(true="X"),
        _GOOD_INTERP.replace("true := T", "true := X"),
        UnknownValue),
    "missing-row": (
        _json_with(imp={"T;T": "T", "T;F": "F", "F;T": "T"}),
        _GOOD_INTERP.replace(", (F, F) -> T", ""),
        MissingRow),
    "missing-abstraction": (
        _json_with(all=None),
        _GOOD_INTERP.split("  all :=")[0],
        MissingInterpretation),
    "empty-carrier": (
        dict(_GOOD_JSON, carrier=[]), None, EmptyCarrier),
    "top-level-array": (
        [_GOOD_JSON], None, ModelError),
    "nested-array-for-all": (
        _json_with(all=["T", "F"]),
        _GOOD_INTERP.replace(
            "all := { ([T, T]) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F }",
            "all := { (T) -> T, (F) -> F }"),
        BadTableKey),
    "duplicate-row": (
        json.dumps(_GOOD_JSON).replace('"T;T": "T"', '"T;T": "T", "T;T": "F"'),
        _GOOD_INTERP.replace("(T, T) -> T,", "(T, T) -> T, (T, T) -> F,"),
        DuplicateRow),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_model_is_a_named_error(tmp_path, capsys, case):
    doc, block, error = MALFORMED[case]
    path = tmp_path / "model.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    source = "logic D\n"
    if block is not None:
        source += "model bad {\n  carrier T, F\n" + block + "}\n"
    theory = tmp_path / "theory.al"
    theory.write_text(source)
    tf = parse_theory(source)
    specs = [str(path)] + (["bad"] if block is not None else [])
    for spec in specs:
        with pytest.raises(error):
            model_for(tf, spec)
        assert main(["model-check", str(theory), "--model", spec]) == 2
        err = capsys.readouterr().err
        assert f"[{error.code}]" in err and "Traceback" not in err
        if spec == "bad":
            # placed at the block's `model` keyword
            assert err.startswith(f"{theory}:2:1: error: [{error.code}] ")


def test_missing_row_in_a_wide_table_is_found_at_once(tmp_path, capsys):
    # ∀ over 9 values has 9^9 argument keys; the totality check must stop
    # at the first missing row instead of listing them all
    carrier = [f"v{i}" for i in range(9)]
    imp = [["v1" if a == "v0" and b != "v0" else "v0" for b in carrier]
           for a in carrier]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"carrier": carrier, "interp": {"true": "v0", "imp": imp, "all": {}}}))
    theory = tmp_path / "theory.al"
    theory.write_text("logic D\n")
    start = time.perf_counter()
    assert main(["model-check", str(theory), "--model", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "[MissingRow]" in err and "table for ∀" in err
