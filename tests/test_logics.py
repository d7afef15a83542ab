import gc
import random
import weakref

import pytest

from abslog import logics
from abslog import builtin_logic, check_wellformed, is_extension, parse_term, parse_theory
from abslog.errors import (DuplicateAxiom, MalformedTerm, NotLogicSignature,
                           UnknownAbstraction, UnknownLogic)
from abslog.logics import BUILTIN_NAMES, SIG_D, SIG_P, Logic
from abslog.shape import VALUE_SHAPE, AbstractionDecl, Signature, extends_signature
from abslog.subst import Template, _named
from abslog.syntax import ParseError
from abslog.term import Abs, Var, alpha_eq

from oracles import alpha_oracle, free_vars_oracle, rename_binders, subst_oracle

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
    # each logic builds its α-classes once, from every axiom, on the first
    # is_extension that reads them; later calls strip no hints
    stripped = []
    strip = logics.strip_hints
    monkeypatch.setattr(logics, "strip_hints",
                        lambda node: stripped.append(1) or strip(node))
    parent = D.extend("D+", axioms=[("X", parse_term("A -> A", D.signature))])
    child = K.extend("K+", axioms=parent.axioms[-1:])
    assert is_extension(child, parent) and not is_extension(parent, child)
    first = len(stripped)
    assert first == len(parent.axioms) + len(child.axioms)
    for _ in range(3):
        assert is_extension(child, parent) and not is_extension(parent, child)
    assert len(stripped) == first
    # is_extension holds neither logic, so both are freed with their names
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
    from abslog.logics import v
    from abslog.syntax import TheoryFile

    checked = []
    wellformed = logics.check_wellformed
    monkeypatch.setattr(logics, "check_wellformed",
                        lambda t, sig: checked.append(t) or wellformed(t, sig))
    tf = parse_theory("logic K\naxiom X: A -> A\n")
    logic = tf.logic()
    assert checked == [tf.axioms[0][1]]
    assert logic.axiom("X") is tf.axioms[0][1]  # the parser's node, kept
    assert logic.axioms == K.axioms + tf.axioms and logic.signature == K.signature
    bad = Abs("nope", SIG_D.get("⇒").shape, (), (v("A"), v("A")))
    with pytest.raises(UnknownAbstraction):
        TheoryFile(base="K", axioms=(("X", bad),)).logic()
    with pytest.raises(UnknownAbstraction):
        D.extend("D+", axioms=[("X", bad)])


def test_a_repeated_axiom_label_is_a_named_error():
    a_a = parse_term("A -> A", D.signature)
    with pytest.raises(DuplicateAxiom, match="axiom label 'D1' already used"):
        D.extend("L", axioms=[("D1", a_a)])
    with pytest.raises(DuplicateAxiom, match="'X'"):
        D.extend("L", axioms=[("X", a_a), ("X", a_a)])
    with pytest.raises(DuplicateAxiom, match="'X'"):
        Logic("L", SIG_D, (("X", a_a), ("Y", a_a), ("X", a_a)))
    # a file that uses a label before the logic line that brings it in
    with pytest.raises(ParseError, match="axiom label 'D1' already used") as e:
        parse_theory("axiom D1: x\nlogic D\n")
    assert (e.value.line, e.value.col) == (2, 1)


def test_an_ill_formed_axiom_is_named_in_its_error():
    bad = Abs("nope", VALUE_SHAPE)
    message = "axiom L1: abstraction 'nope' is not declared"
    with pytest.raises(UnknownAbstraction, match=message):
        D.extend("L", axioms=[("L0", parse_term("A", D.signature)), ("L1", bad)])
    with pytest.raises(UnknownAbstraction, match=message):
        Logic("L", SIG_D, (("L1", bad),))
    with pytest.raises(MalformedTerm, match="axiom L2: "):
        Logic("L", SIG_D, (("L2", ("b", 0)),))


def test_is_extension_agrees_with_its_definition():
    """Children built from a builtin logic's axioms, with every binder
    renamed, one axiom dropped, one free variable renamed (a new α-class),
    or a declaration added: is_extension, both ways, is what the definition
    says over the named terms, α-equivalence by the oracle."""
    outcomes = set()
    for seed in range(60):
        rnd = random.Random(seed)
        parent = builtin_logic(rnd.choice(BUILTIN_NAMES))
        parent_terms = [_named(a, []) for a in parent.axiom_terms]
        terms = [rename_binders(t) for t in parent_terms]
        if rnd.random() < 0.5:
            del terms[rnd.randrange(len(terms))]
        if rnd.random() < 0.5:
            k = rnd.randrange(len(terms))
            fvs = sorted(free_vars_oracle(terms[k]))
            if fvs:
                name, arity = rnd.choice(fvs)
                params = tuple(f"p{i}" for i in range(arity))
                fresh = Template(params, Var("Z", tuple(map(Var, params))))
                terms[k] = subst_oracle({(name, arity): fresh}, terms[k])
        rnd.shuffle(terms)
        decls = [AbstractionDecl("q", VALUE_SHAPE)] if rnd.random() < 0.3 else []
        child = Logic("child", parent.signature.extend(decls),
                      tuple((f"C{i}", t) for i, t in enumerate(terms)))
        for a, b, a_terms, b_terms in ((child, parent, terms, parent_terms),
                                       (parent, child, parent_terms, terms)):
            want = extends_signature(a.signature, b.signature) and all(
                any(alpha_oracle(x, y) for y in a_terms) for x in b_terms)
            assert is_extension(a, b) == want, seed
            outcomes.add((a is child, want))
    assert len(outcomes) == 4
