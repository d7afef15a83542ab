import gc
import weakref

import pytest

from abslog import logics
from abslog import builtin_logic, check_wellformed, is_extension, parse_term
from abslog.errors import NotLogicSignature, UnknownLogic
from abslog.logics import BUILTIN_NAMES, SIG_D, SIG_P, Logic
from abslog.shape import Signature
from abslog.term import alpha_eq

D = builtin_logic("D")
K = builtin_logic("K")
P = builtin_logic("P")


def test_counts():
    assert len(D.signature.decls) == 3
    assert D.labels == ("D1", "D2", "D3", "D4", "D5")
    assert len(K.signature.decls) == 11
    assert len(K.axioms) == 21
    assert len(P.axioms) == 21 + 9
    assert builtin_logic("U").labels[-4:] == ("U1", "U2", "U3", "U4")
    assert builtin_logic("U'").labels[-4:] == ("U1", "U2", "U'3", "U'4")


def test_axioms_against_parsed_text():
    cases = {
        "D2": "A -> B -> A",
        "D4": "(all x. A[x]) -> A[x]",
        "D5": "(all x. A -> B[x]) -> A -> (all x. B[x])",
        "E1": "x = x",
        "E3": "A -> A = true",
        "F1": "false = (all x. x)",
        "F2": "(not A) = (A -> false)",
        "I7": "(A <-> B) = ((A -> B) /\\ (B -> A))",
        "I9": "(ex x. A[x]) -> (all x. A[x] -> B) -> B",
        "K": "A \\/ not A",
    }
    for label, text in cases.items():
        assert alpha_eq(K.axiom(label), parse_term(text, K.signature)), label


def test_peano_axioms_against_parsed_text():
    sig = P.signature
    cases = {
        "P1": "nat(zero)",
        "P3": "nat(n) -> suc(n) != zero",
        "P5": "P[zero] -> (all n. nat(n) -> P[n] -> P[suc(n)]) -> nat(n) -> P[n]",
        "P6": "nat(n) -> add(n, zero) = n",
        "P7": "nat(n) /\\ nat(m) -> add(n, suc(m)) = suc(add(n, m))",
        "P9": "nat(n) /\\ nat(m) -> mul(n, suc(m)) = add(mul(n, m), n)",
    }
    for label, text in cases.items():
        assert alpha_eq(P.axiom(label), parse_term(text, sig)), label


def test_undefinedness_axioms_against_parsed_text():
    U = builtin_logic("U")
    u2 = "(ex1 x. A[x]) = (ex x. A[x] /\\ (all y. A[y] -> x = y))"
    assert alpha_eq(U.axiom("U2"), parse_term(u2, U.signature))
    u3 = "(ex1 x. A[x]) -> (A[x] <-> (the x. A[x]) = x)"
    assert alpha_eq(U.axiom("U3"), parse_term(u3, U.signature))
    Up = builtin_logic("U'")
    up3 = "A[x] -> A[(some x. A[x])]"
    assert alpha_eq(Up.axiom("U'3"), parse_term(up3, Up.signature))


def test_all_axioms_wellformed():
    for name in BUILTIN_NAMES:
        logic = builtin_logic(name)
        for _, axiom in logic.axioms:
            check_wellformed(axiom, logic.signature)


def test_extension_chain():
    chain = [builtin_logic(n) for n in ("D", "E", "F", "I", "K", "P")]
    for parent, child in zip(chain, chain[1:]):
        assert is_extension(child, parent)
        assert not is_extension(parent, child)
    assert is_extension(builtin_logic("U"), K)
    assert is_extension(builtin_logic("U'"), K)
    for logic in chain:
        assert is_extension(logic, logic)


def test_extension_modulo_alpha():
    renamed = D.extend("D2", axioms=[("D4x", parse_term(
        "(all y. A[y]) -> A[x]", D.signature))])
    # the alpha-variant D4 does not add strength; D2 still extends D
    assert is_extension(renamed, D)


def test_extension_verdict_is_kept_while_the_logics_live(monkeypatch):
    compared = []
    alpha = logics.alpha_eq
    monkeypatch.setattr(logics, "alpha_eq",
                        lambda s, t: compared.append(1) or alpha(s, t))
    parent = D.extend("D+", axioms=[("X", parse_term("A -> A", D.signature))])
    child = K.extend("K+", axioms=parent.axioms[-1:])
    assert is_extension(child, parent) and not is_extension(parent, child)
    first = len(compared)
    assert first > 0
    for _ in range(3):
        assert is_extension(child, parent) and not is_extension(parent, child)
    assert len(compared) == first
    # the verdicts live on the child, so they free both logics with it
    refs = weakref.ref(child), weakref.ref(parent)
    del child, parent
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_a_logic_declares_the_core_abstractions():
    # the kernel's ALL builds ∀ nodes without checking them
    no_all = Signature(tuple(d for d in SIG_D.decls if d.name != "∀"))
    for sig in (Signature(()), no_all):
        with pytest.raises(NotLogicSignature):
            Logic("bare", sig, ())


def test_peano_base_flag():
    pi = builtin_logic("P", peano_base="I")
    assert len(pi.axioms) == 20 + 9
    assert is_extension(P, builtin_logic("K"))
    assert is_extension(pi, builtin_logic("I"))
    assert not is_extension(pi, builtin_logic("K"))
    with pytest.raises(UnknownLogic):
        builtin_logic("P", peano_base="E")


def test_unknown_logic():
    with pytest.raises(UnknownLogic):
        builtin_logic("Z")


def test_peano_has_no_small_models():
    # Any model of the arithmetic logic is a model of every subset of its
    # axioms and of their substitution instances, so an exhaustive search
    # coming up empty for such a subset refutes models of the whole logic.
    # The subset: successor facts P1-P4 plus the equality and falsehood
    # axioms that give =, != and false their meaning, plus instances that
    # pin down universal instantiation and equality transport.
    from abslog import (Substitution, Template, apply_subst, find_models,
                        signature)
    from abslog.logics import const, eq, op2, v

    keep = {"⊤", "⇒", "∀", "=", "⊥", "¬", "≠", "nat", "zero", "suc"}
    sig = signature([(d.name, d.shape)
                     for d in P.signature.decls if d.name in keep])
    axioms = [P.axiom(l)
              for l in ("E1", "F1", "F2", "F3", "P1", "P2", "P3", "P4")]
    templates = [
        Template(("u",), v("u")),
        Template(("u",), eq(v("u"), v("x"))),
        Template(("u",), op2("≠", v("u"), const("zero"))),
    ]
    axioms.append(apply_subst(
        Substitution({("A", 1): templates[0]}), P.axiom("D4")))
    for tmpl in templates:
        axioms.append(apply_subst(
            Substitution({("A", 1): tmpl}), P.axiom("E2")))
    for axiom in axioms:
        check_wellformed(axiom, sig)
    assert len(find_models(sig, axioms, 1)) == 1  # only the degenerate model
    assert find_models(sig, axioms, 2) == []
    assert find_models(sig, axioms, 3) == []


def test_builtin_logics_are_built_once():
    assert builtin_logic("K") is builtin_logic("K")
    assert builtin_logic("P", peano_base="I") is builtin_logic("P", peano_base="I")


def test_label_lookup():
    assert K.axiom("nope") is None
    assert K.axiom("D1") == D.axiom("D1")
    assert P.signature.names == SIG_P.names


def test_a_file_logic_checks_only_its_own_axioms(monkeypatch):
    """Extending a signature keeps every declaration it had, so building a
    file's logic checks the file's axioms and not the base logic's."""
    from abslog import parse_theory
    from abslog.errors import UnknownAbstraction
    from abslog.logics import v
    from abslog.syntax import TheoryFile
    from abslog.term import Abs

    checked = []
    wellformed = logics.check_wellformed
    monkeypatch.setattr(logics, "check_wellformed",
                        lambda t, sig: checked.append(t) or wellformed(t, sig))
    tf = parse_theory("logic K\naxiom X: A -> A\n")
    logic = tf.logic()
    assert checked == [tf.axioms[0][1]]
    assert logic.axioms == K.axioms + tf.axioms and logic.signature == K.signature
    bad = Abs("nope", SIG_D.get("⇒").shape, (), (v("A"), v("A")))
    with pytest.raises(UnknownAbstraction):
        TheoryFile(base="K", axioms=(("X", bad),)).logic()
    with pytest.raises(UnknownAbstraction):
        D.extend("D+", axioms=[("X", bad)])
