"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL line, so the suite doubles as a release checklist:

1. the classical axioms all hold in the two-element boolean model,
2. every builtin logic holds in the one-element model,
3. an inconsistent logic proves anything and has no small models,
4. evaluation commutes with substitution (the substitution lemma),
5. alpha-equivalence coincides with de Bruijn identity and is respected
   by evaluation,
6. the shipped proof corpus checks end to end,
7. every classical corpus theorem is valid in the boolean model,
8. each kernel error code is triggered by a dedicated bad script with a
   correct source span.
"""
import functools
import json
import random
import time
from pathlib import Path

from abslog import (
    Ax,
    alpha_eq,
    apply_subst,
    boolean_model,
    builtin_logic,
    check_model,
    check_proof,
    check_theory,
    degenerate_model,
    eval_term,
    find_models,
    free_vars,
    inconsistency_expand,
    parse_term,
    parse_theory,
    to_debruijn,
    valuation_from_subst,
)
from abslog.cli import main
from abslog.logics import BUILTIN_NAMES, SIG_K, all_, v
from abslog.subst import _named

from conftest import (
    ACCEPTANCE_LINES,
    random_algebra,
    random_signature,
    random_substitution,
    random_term,
    random_valuation,
    size_cap,
)
from oracles import alpha_oracle, rename_binders

CORPUS = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
DATA = Path(__file__).parent / "data"
BOOL = boolean_model()
K = builtin_logic("K")


def criterion(label):
    # one verdict line per criterion; echoed after the run by the terminal
    # summary hook in conftest so capture cannot swallow it
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                ACCEPTANCE_LINES.append(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
            ACCEPTANCE_LINES.append(f"{label}: PASS")
        return wrapper
    return deco


@criterion("1. boolean model verifies the 21 classical axioms (cap 1, <5s)")
def test_boolean_model_of_classical_logic():
    t0 = time.monotonic()
    report = check_model(BOOL, K.axiom_terms, arity_cap=1)
    elapsed = time.monotonic() - t0
    assert len(report.verdicts) == 21
    assert report.passed
    assert elapsed < 5.0


@criterion("2. every builtin logic holds in the one-element model")
def test_degenerate_model_of_every_builtin():
    for name in BUILTIN_NAMES:
        logic = builtin_logic(name)
        alg = degenerate_model(logic.signature)
        assert check_model(alg, logic.axiom_terms, arity_cap=2).passed, name


@criterion("3. an inconsistent logic proves anything and has no small models")
def test_inconsistency_expands_and_kills_models():
    D = builtin_logic("D")
    bad = D.extend("D+", axioms=[("BAD", all_("x", v("x")))])
    for text in ("true", "A -> B[x]", "all x. x"):
        target = parse_term(text, bad.signature)
        proof = inconsistency_expand(bad, Ax("BAD"), target)
        assert alpha_eq(check_proof(bad, proof).statement, target)
    for size in (2, 3):
        assert find_models(bad.signature, bad.axiom_terms, size, limit=1) == []


@criterion("4. substitution lemma over 1000 random triples (<60s)")
def test_substitution_lemma_at_scale():
    rnd = random.Random(411)
    t0 = time.monotonic()
    sizes_seen = set()
    for i in range(1000):
        sig = SIG_K if i % 3 == 0 else random_signature(rnd)
        size = rnd.randint(1, size_cap(sig))
        sizes_seen.add(size)
        alg = random_algebra(rnd, sig, size)
        t = random_term(rnd, sig, depth=5)
        sigma = random_substitution(rnd, sig, t)
        fvs = set(free_vars(t))
        for _, tmpl in sigma.items():
            fvs |= free_vars(tmpl.body)
        nu = random_valuation(rnd, size, fvs)
        lhs = eval_term(alg, valuation_from_subst(nu, sigma, alg), t)
        rhs = eval_term(alg, nu, apply_subst(sigma, t))
        assert lhs == rhs
    assert sizes_seen == {1, 2, 3}
    assert time.monotonic() - t0 < 60.0


@criterion("5. alpha-equivalence is de Bruijn identity, respected by eval "
           "(10000 pairs)")
def test_alpha_equivalence_at_scale():
    rnd = random.Random(511)
    sig = SIG_K
    algebras = [random_algebra(rnd, sig, rnd.randint(1, 3)) for _ in range(20)]

    def agree(s, t):
        same = to_debruijn(s) == to_debruijn(t)
        assert alpha_oracle(s, t) == same
        assert alpha_eq(s, t) == same
        if same:
            for alg in algebras:
                fvs = free_vars(s) | free_vars(t)
                nu = random_valuation(rnd, alg.size, fvs)
                assert eval_term(alg, nu, s) == eval_term(alg, nu, t)
        return same

    checked = equal = 0
    # systematic binder renames of every classical axiom
    for node in K.axiom_terms:
        term = _named(node, [])
        assert agree(term, rename_binders(term))
        checked += 1
    # shadowing: the inner binder wins, whatever the outer one is called
    for outer in ("x", "y", "z"):
        s = all_(outer, all_("x", v("x")))
        t = all_("u", all_("w", v("w")))
        assert agree(s, t)
        # the occurrence of outer is captured iff the inner binder shadows it
        assert agree(all_(outer, all_("x", v(outer))), t) == (outer == "x")
        checked += 2
    while checked < 10000:
        s = random_term(rnd, sig, depth=4)
        if checked % 2:
            t = rename_binders(s)
        else:
            t = random_term(rnd, sig, depth=4)
        equal += agree(s, t)
        checked += 1
    assert checked >= 10000 and equal >= 4000


@criterion("6. shipped proof corpus checks end to end")
def test_proof_corpus():
    for name in ("prelude_k.al", "peano.al"):
        assert main(["check", str(CORPUS / name)]) == 0
    prelude = parse_theory((CORPUS / "prelude_k.al").read_text())
    names = {b.name for b in prelude.theorems}
    assert {"efq", "explosion", "dichotomy"} <= names
    peano = parse_theory((CORPUS / "peano.al").read_text())
    sig = peano.signature
    stmts = {b.name: b.statement for b in peano.theorems}
    assert stmts["nat_two"] == parse_term("nat(suc(suc(zero)))", sig)
    assert stmts["add_one_zero"] == parse_term(
        "add(suc(zero), zero) = suc(zero)", sig)


@criterion("7. every classical corpus theorem is valid in the boolean model")
def test_corpus_theorems_valid_in_boolean_model():
    tf = parse_theory((CORPUS / "prelude_k.al").read_text())
    report = check_theory(tf)
    assert report.passed
    statements = [r.statement for r in report.results]
    assert len(statements) == 9
    assert check_model(BOOL, statements, arity_cap=2).passed


@criterion("8. each kernel error code fires with a correct source span")
def test_negative_scripts(capsys):
    expected = {
        "bad_ax.al": ("NotAnAxiom", 5),
        "bad_subst.al": ("SubstMismatch", 6),
        "bad_mp_notimp.al": ("NotAnImplication", 6),
        "bad_mp_mismatch.al": ("MpMismatch", 7),
        "bad_all.al": ("AllMismatch", 6),
    }
    for name, (code, line) in expected.items():
        assert main(["check", str(DATA / name), "--json"]) == 1, name
        doc = json.loads(capsys.readouterr().out)
        diags = [d for b in doc["blocks"] for d in b["diagnostics"]]
        assert len(diags) == 1, name
        assert diags[0]["code"] == code, name
        assert diags[0]["line"] == line and diags[0]["col"] == 3, name
