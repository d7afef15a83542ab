import re

import pytest

from abslog import (
    Abs,
    BINOP_SHAPE,
    Var,
    make_shape,
    parse_term,
    parse_theory,
    print_term,
    print_theory,
    signature,
)
from abslog.logics import AND, SIG_D, SIG_K, all_, imp, neg, op2, v
from abslog.syntax import ParseError

from conftest import random_signature, random_term


def test_binder_extends_right():
    t = parse_term("all x. A[x] -> B", SIG_K)
    assert t == all_("x", imp(v("A", v("x")), v("B")))


def test_empty_brackets_are_arity_zero():
    assert parse_term("x[]", SIG_K) == Var("x")


def test_integral_example():
    integral = make_shape(1, [(), (0,)])
    sig = signature([("integral", integral)])
    t = parse_term("(integral x. D x)", sig)
    assert t == Abs("integral", integral, ("x",), (v("D"), v("x")))


def test_precedence():
    sig = SIG_K
    assert parse_term("A -> B -> C", sig) == parse_term("A -> (B -> C)", sig)
    assert parse_term("A /\\ B \\/ C", sig) == parse_term("(A /\\ B) \\/ C", sig)
    assert parse_term("A \\/ B -> C", sig) == parse_term("(A \\/ B) -> C", sig)
    assert parse_term("A -> B <-> C", sig) == parse_term("(A -> B) <-> C", sig)
    assert parse_term("not A = B", sig) == parse_term("not (A = B)", sig)
    assert parse_term("not A -> B", sig) == parse_term("(not A) -> B", sig)
    assert parse_term("x = y /\\ u", sig) == parse_term("(x = y) /\\ u", sig)
    assert parse_term("A <-> B <-> C", sig) == parse_term("(A <-> B) <-> C", sig)
    assert parse_term("A \\/ B \\/ C", sig) == parse_term("(A \\/ B) \\/ C", sig)
    assert parse_term("A /\\ B /\\ C", sig) == parse_term("(A /\\ B) /\\ C", sig)
    assert parse_term("not not A", sig) == neg(neg(v("A")))
    a, b, c = v("A"), v("B"), v("C")
    assert print_term(op2(AND, op2(AND, a, b), c)) == "A /\\ B /\\ C"
    assert print_term(op2(AND, a, op2(AND, b, c))) == "A /\\ (B /\\ C)"
    assert print_term(imp(imp(a, b), c)) == "(A -> B) -> C"


def test_eq_does_not_associate():
    for text in ("x = y = z", "x != y = z", "A = not B"):
        with pytest.raises(ParseError):
            parse_term(text, SIG_K)


def test_trailing_commas():
    text = """
logic D
abstraction box (0; {},)
abstraction q (1; {0,})
theorem t: true
proof
  s1: ax D1
  s2: subst s1 { A := true, }
qed
model two {
  carrier T, F
  true := T
  imp := { (T, T,) -> T, (T, F) -> F, (F, T) -> T, (F, F) -> T, }
  all := { ([T, T],) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F, }
}
"""
    tf = parse_theory(text)
    assert [d.shape for d in tf.decls] == [make_shape(0, [()]),
                                           make_shape(1, [(0,)])]
    assert len(tf.theorems[0].steps[1].sigma) == 1
    _, imp_rows = tf.model_block("two").interp[1]
    _, all_rows = tf.model_block("two").interp[2]
    assert imp_rows[0] == (("T", "T"), "T") and len(imp_rows) == 4
    assert all_rows[0] == ((("T", "T"),), "T") and len(all_rows) == 4
    assert tf == parse_theory(re.sub(r",(\s*[)}])", r"\1", text))
    f = signature([("f", BINOP_SHAPE)])
    for bad in ("f(A, B,)", "x[A,]"):
        with pytest.raises(ParseError):
            parse_term(bad, f)


def test_undeclared_operator_rejected():
    with pytest.raises(ParseError):
        parse_term("A /\\ B", SIG_D)
    with pytest.raises(ParseError) as e:
        parse_term("A ->\n  /\\ B", SIG_D)
    assert e.value.line == 2


def test_glyph_input():
    sig = SIG_K
    assert parse_term("∀ x. x ⇒ ⊥", sig) == parse_term("all x. x -> false", sig)
    assert parse_term("¬A ∧ ⊤", sig) == parse_term("not A /\\ true", sig)
    assert parse_term("∃₁ u. u = x", builtin_logic_u_sig()) == \
        parse_term("ex1 u. u = x", builtin_logic_u_sig())


def builtin_logic_u_sig():
    from abslog import builtin_logic
    return builtin_logic("U").signature


def test_function_style_application():
    from abslog import builtin_logic
    sig = builtin_logic("P").signature
    t = parse_term("add(suc(zero), zero)", sig)
    assert print_term(t) == "add(suc(zero), zero)"


def test_print_parse_roundtrip_random(rnd):
    for _ in range(150):
        sig = random_signature(rnd)
        t = random_term(rnd, sig, depth=4)
        assert parse_term(print_term(t), sig) == t
    for _ in range(150):
        t = random_term(rnd, SIG_K, depth=4)
        assert parse_term(print_term(t), SIG_K) == t
        assert parse_term(print_term(t, unicode=True), SIG_K) == t


def test_theory_roundtrip_corpus():
    from pathlib import Path
    corpus = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
    for path in sorted(corpus.glob("*.al")):
        tf = parse_theory(path.read_text())
        assert parse_theory(print_theory(tf)) == tf


def test_theory_declarations():
    tf = parse_theory("""
        logic D
        abstraction box (0; {})
        axiom BOX: box(A) -> A
        """)
    assert tf.base == "D"
    assert tf.decls[0].name == "box"
    logic = tf.logic()
    assert logic.labels[-1] == "BOX"
    assert len(logic.axioms) == 6


def test_duplicate_axiom_label_rejected():
    with pytest.raises(ParseError):
        parse_theory("logic D\naxiom D1: true")


@pytest.mark.parametrize("text, pos", [
    ("logic D\naxiom Z: A\nlogic K\n", (3, 1)),
    ("logic D\nabstraction model (0; {})\n", (2, 13)),
], ids=["second-logic", "keyword-abstraction"])
def test_bad_declaration_rejected(text, pos):
    with pytest.raises(ParseError) as e:
        parse_theory(text)
    assert (e.value.line, e.value.col) == pos


def test_subst_literal_arity_check():
    bad = """
    logic D
    theorem t: true
    proof
      s1: ax D1
      s2: subst s1 { A/2 := [u. u] }
    qed
    """
    with pytest.raises(ParseError):
        parse_theory(bad)


def test_unknown_rule_rejected():
    with pytest.raises(ParseError):
        parse_theory("logic D\ntheorem t: true\nproof\n s1: zap D1\nqed")


def test_model_block_roundtrip():
    text = """
logic D
model two {
  carrier T, F
  true := T
  imp := { (T, T) -> T, (T, F) -> F, (F, T) -> T, (F, F) -> T }
  all := { ([T, T]) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F }
}
"""
    tf = parse_theory(text)
    assert tf.model_block("two").carrier == ("T", "F")
    assert tf.model_block("nope") is None
    assert parse_theory(print_theory(tf)) == tf


def test_parse_error_has_span():
    with pytest.raises(ParseError) as e:
        parse_theory("logic D\naxiom Q: (all x. x")
    assert e.value.line == 2
    assert e.value.col > 0
