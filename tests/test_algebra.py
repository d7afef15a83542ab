import json
import random
import re
from math import prod

import pytest

from abslog import (
    AbstractionAlgebra,
    OperationTable,
    Substitution,
    Template,
    Universe,
    Valuation,
    Var,
    boolean_model,
    check_model,
    constant_table,
    degenerate_model,
    eval_term,
    find_models,
    free_vars,
    is_logic_algebra,
    load_model,
    make_shape,
    pure_shape,
    signature,
    table_from_rows,
    valuation_from_subst,
)
from abslog.algebra import all_tables, argument_keys
from abslog.errors import (
    ArityCapExceeded,
    MissingRow,
    IllFormedTerm,
    NotLogicSignature,
)
from abslog.logics import (
    ALL,
    FALSE,
    IMP,
    SIG_D,
    SIG_K,
    TRUE,
    all_,
    builtin_logic,
    const,
    eq,
    imp,
    v,
)

from conftest import (BINDER_POOL, random_algebra, random_signature,
                      random_term, random_valuation, size_cap)
from oracles import (check_model_oracle, enumerate_algebras, eval_oracle,
                     free_vars_oracle, tabulate_oracle)

BOOL = boolean_model()
T, F = 0, 1


def test_operation_table_shape_checked():
    with pytest.raises(Exception):
        OperationTable(2, pure_shape(2), (0, 1, 0))
    t = OperationTable(2, pure_shape(2), (0, 1, 1, 1))
    assert t.apply((0, 0)) == 0 and t.apply((1, 0)) == 1


def test_argument_keys_counts():
    assert len(list(argument_keys(2, make_shape(0, [(), ()])))) == 4
    # a binder position ranges over all 4 unary tables
    assert len(list(argument_keys(2, make_shape(1, [(0,)])))) == 4
    assert len(list(argument_keys(3, make_shape(1, [(0,)])))) == 27


def test_eval_variable_is_valuation_lookup():
    nu = Valuation(2, {("x", 0): constant_table(2, 0, 1)})
    assert eval_term(BOOL, nu, v("x")) == 1
    # unmapped variables default to the constant value-0 operation
    assert eval_term(BOOL, nu, v("y")) == 0
    assert eval_term(BOOL, nu, v("A", v("x"))) == 0


def test_eval_boolean_examples():
    nu = Valuation(2)
    assert eval_term(BOOL, nu, const(TRUE)) == T
    assert eval_term(BOOL, nu, const(FALSE)) == F
    assert eval_term(BOOL, nu, all_("x", v("x"))) == F
    # axiom F1 holds under any valuation
    f1 = eq(const(FALSE), all_("x", v("x")))
    assert eval_term(BOOL, nu, f1) == T


def test_eval_requires_wellformed():
    with pytest.raises(IllFormedTerm):
        eval_term(BOOL, Valuation(2), const("nope"))


def test_valuation_from_subst():
    nu = Valuation(2, {("x", 0): constant_table(2, 0, 1)})
    # unmapped variables fall through
    nu2 = valuation_from_subst(nu, Substitution({}), BOOL)
    assert nu2.get("x", 0).apply(()) == 1
    nu3 = valuation_from_subst(nu, Substitution({("x", 0): const(TRUE)}), BOOL)
    assert nu3.get("x", 0).apply(()) == T
    # the identity template yields the identity operation as a table
    sigma = Substitution({("A", 1): Template(("u",), Var("u"))})
    nu4 = valuation_from_subst(nu, sigma, BOOL)
    assert nu4.get("A", 1).entries == (0, 1)


def test_valuation_from_subst_imp_template():
    # [u. u -> u] is constantly true in the booleans
    from abslog.logics import imp
    sigma = Substitution({("A", 1): Template(("u",), imp(v("u"), v("u")))})
    nu = valuation_from_subst(Valuation(2), sigma, BOOL)
    assert nu.get("A", 1).entries == (T, T)


def test_is_logic_algebra():
    assert is_logic_algebra(BOOL)
    assert is_logic_algebra(degenerate_model(SIG_D))
    broken_interp = dict(BOOL.interp)
    broken_interp[IMP] = OperationTable(
        2, make_shape(0, [(), ()]),
        tuple(T for key in argument_keys(2, make_shape(0, [(), ()]))))
    broken = AbstractionAlgebra(BOOL.universe, SIG_K, broken_interp)
    assert not is_logic_algebra(broken)
    from abslog import signature
    with pytest.raises(NotLogicSignature):
        from abslog.algebra import is_logic_algebra as ila
        ila(degenerate_model(signature([])))


def test_check_model_fail_reports_value():
    report = check_model(BOOL, [const(FALSE)], arity_cap=0)
    assert not report.passed
    verdict = report.verdicts[0]
    assert verdict.value == F
    assert verdict.failing_valuation == ()


def test_check_model_arity_cap():
    with pytest.raises(ArityCapExceeded):
        check_model(BOOL, [v("A", v("x"), v("y"))], arity_cap=1)


def test_eval_depends_only_on_free_vars(rnd):
    for _ in range(40):
        sig = random_signature(rnd)
        alg = random_algebra(rnd, sig, rnd.randint(1, size_cap(sig)))
        t = random_term(rnd, sig, depth=3)
        from abslog import free_vars
        fvs = free_vars(t)
        nu = random_valuation(rnd, alg.size, fvs)
        base = eval_term(alg, nu, t)
        # perturbing an irrelevant variable cannot change the value
        junk = dict(nu.overrides)
        junk[("unused_name", 2)] = OperationTable(
            alg.size, pure_shape(2), tuple(rnd.randrange(alg.size)
                               for _ in range(alg.size ** 2)))
        assert eval_term(alg, Valuation(alg.size, junk), t) == base


def test_closed_terms_are_valuation_independent(rnd):
    closed = all_("x", eq(v("x"), v("x")))
    for _ in range(10):
        nu = random_valuation(rnd, 2, [("x", 0), ("A", 1)])
        assert eval_term(BOOL, nu, closed) == eval_term(BOOL, Valuation(2), closed)


def test_substitution_lemma(rnd):
    for _ in range(200):
        sig = random_signature(rnd)
        size = rnd.randint(1, size_cap(sig))
        alg = random_algebra(rnd, sig, size)
        t = random_term(rnd, sig, depth=4)
        from abslog import apply_subst, free_vars
        from conftest import random_substitution
        sigma = random_substitution(rnd, sig, t)
        nu = random_valuation(rnd, size, free_vars(t) | {
            fv for tmpl in dict(sigma.items()).values()
            for fv in free_vars(tmpl.body)})
        lhs = eval_term(alg, valuation_from_subst(nu, sigma, alg), t)
        rhs = eval_term(alg, nu, apply_subst(sigma, t))
        assert lhs == rhs


def test_enumerate_algebras_counts():
    # over the minimal logic signature at size 2: 2 tops, 16 imps, 16 alls
    algs = list(enumerate_algebras(SIG_D, 2))
    assert len(algs) == 2 * 16 * 16
    with pytest.raises(ArityCapExceeded):
        list(enumerate_algebras(SIG_D, 3, limit=10))


def test_all_tables():
    assert len(list(all_tables(2, 1))) == 4
    assert len(list(all_tables(3, 0))) == 3


def test_load_model_json(tmp_path):
    from abslog.syntax import ALIAS
    # imp as a nested array, then as an object keyed by ";"-joined arguments
    for imp in ([["T", "F"], ["T", "T"]],
                {"T;T": "T", "T;F": "F", "F;T": "T", "F;F": "T"}):
        doc = {
            "carrier": ["T", "F"],
            "interp": {
                "true": "T",
                "imp": imp,
                "all": {"T,T": "T", "T,F": "F", "F,T": "F", "F,F": "F"},
            },
        }
        path = tmp_path / "bool_d.json"
        path.write_text(json.dumps(doc))
        alg = load_model(str(path), SIG_D, ALIAS)
        assert is_logic_algebra(alg)
        report = check_model(alg, builtin_logic("D").axiom_terms, arity_cap=1)
        assert report.passed


def test_find_models_agrees_with_exhaustive_enumeration():
    # every logic algebra over SIG_D at size 2 is the oracle: a search for a
    # model of an axiom set succeeds iff one of them passes check_model
    oracle = [alg for alg in enumerate_algebras(SIG_D, 2) if is_logic_algebra(alg)]
    assert len(oracle) == 128
    rnd = random.Random(5)
    axiom_sets = []
    for _ in range(60):
        axioms, count = [], rnd.randint(1, 3)
        while len(axioms) < count:
            t = random_term(rnd, SIG_D, depth=3)
            if all(arity <= 1 for _, arity in free_vars(t)):
                axioms.append(t)
        axiom_sets.append(axioms)
    # random sets seldom hinge on one logic-algebra condition; each of these
    # has a model only if the search drops that condition
    axiom_sets += [[imp(const(TRUE), v("B"))],
                   [imp(all_("x", const(TRUE)), v("B"))]]
    with_model = 0
    for axioms in axiom_sets:
        found = find_models(SIG_D, axioms, 2, limit=1)
        exists = any(check_model(alg, axioms, arity_cap=1).passed for alg in oracle)
        assert bool(found) == exists, axioms
        assert all(check_model(m, axioms, arity_cap=1).passed for m in found)
        with_model += exists
    assert 0 < with_model < len(axiom_sets) - 2


def _random_logic_algebra(rnd, sig, size):
    """A random algebra over sig plus ⊤/⇒/∀ that is a logic algebra: ⊤ is
    0, ⊤ ⇒ u is u, ∀ of the constant-⊤ operation is ⊤, the rest random."""
    alg = random_algebra(rnd, SIG_D.extend(sig.decls), size)
    interp = dict(alg.interp)
    interp[TRUE] = OperationTable(size, interp[TRUE].shape, (0,))
    interp[IMP] = OperationTable(size, interp[IMP].shape, tuple(
        c if a == 0 else rnd.randrange(size) for a, c in interp[IMP].rule))
    interp[ALL] = OperationTable(size, interp[ALL].shape, tuple(
        0 if not any(f) else rnd.randrange(1, size) for (f,) in interp[ALL].rule))
    return AbstractionAlgebra(alg.universe, alg.signature, interp)


def test_evaluation_agrees_with_named_oracle():
    # random terms over valence-2 shapes with overlapping binder sets, whose
    # binders shadow one another and share names with free variables,
    # against the named evaluator that updates a valuation per binder value
    rnd = random.Random(8)
    sizes, wide, shadowed = set(), 0, 0
    for _ in range(120):
        sig = random_signature(rnd)
        size = size_cap(sig)
        sizes.add(size)
        wide += any(len(p) == 2 for d in sig.decls for p in d.shape.binder_sets)
        alg = _random_logic_algebra(rnd, sig, size)
        t = random_term(rnd, alg.signature, depth=4)
        fvs = free_vars(t)
        assert fvs == free_vars_oracle(t)
        shadowed += any(x in BINDER_POOL for x, _ in fvs)
        nu = random_valuation(rnd, size, fvs | {(x, 0) for x in BINDER_POOL})
        assert eval_term(alg, nu, t) == eval_oracle(alg, nu, t), t
        mapping = {}
        for name, arity in sorted(fvs):
            binders = tuple(rnd.sample(BINDER_POOL, arity))
            mapping[(name, arity)] = Template(
                binders, random_term(rnd, alg.signature, 3, binders))
        nu_sigma = valuation_from_subst(nu, Substitution(mapping), alg)
        for (name, arity), tmpl in mapping.items():
            assert nu_sigma.get(name, arity).entries == tabulate_oracle(
                alg, nu, tmpl.binders, tmpl.body), tmpl
        axioms = [a for a in (t, *(tm.body for tm in mapping.values()))
                  if prod(size ** size ** n for _, n in free_vars(a)) <= 3000]
        report = check_model(alg, axioms)
        assert [(v.passed, v.failing_valuation, v.value) for v in report.verdicts] \
            == check_model_oracle(alg, axioms)
    assert sizes == {2, 3} and wide > 10 and shadowed > 10


def test_partial_operator_is_a_missing_row():
    rule = dict(BOOL.interp[IMP].rule)
    del rule[(F, T)]
    with pytest.raises(MissingRow, match=re.escape(f"table for {IMP} has no row for (F, T)")):
        table_from_rows(IMP, BOOL.universe, BOOL.interp[IMP].shape, rule.items())


def test_row_rule_agrees_with_argument_keys():
    # a key's row is its digits in base size; over every builtin-signature
    # shape and random shapes up to valence 2, at sizes 1-3, that row is
    # the key's place in argument_keys, and a model's rule, spelt in carrier
    # names, rebuilds the model
    from abslog.algebra import model_from_spec
    from abslog.logics import BUILTIN_NAMES
    from conftest import random_shape
    rnd = random.Random(11)
    shapes = {d.shape for name in BUILTIN_NAMES
              for d in builtin_logic(name).signature.decls}
    shapes |= {random_shape(rnd) for _ in range(60)}
    assert max(len(p) for s in shapes for p in s.binder_sets) == 2
    checked = 0
    for size in (1, 2, 3):
        names = tuple(f"v{i}" for i in range(size))
        fits = sorted((s for s in shapes if size ** sum(
            size ** len(p) for p in s.binder_sets) <= 20000), key=str)
        sig = signature([(f"f{i}", s) for i, s in enumerate(fits)])
        interp, spec = {}, []
        for d in sig.decls:
            keys = argument_keys(size, d.shape)
            table = OperationTable(size, d.shape, tuple(
                rnd.randrange(size) for _ in keys))
            rule = table.rule
            assert list(rule) == list(keys)
            assert all(table.apply(key) == rule[key] for key in keys)
            interp[d.name] = table
            named = tuple((tuple(tuple(names[e] for e in part)
                                 if isinstance(part, tuple) else names[part]
                                 for part in key), names[value])
                          for key, value in rule.items())
            spec.append((d.name, named if d.shape.arity else names[rule[()]]))
            checked += len(keys)
        alg = AbstractionAlgebra(Universe(names), sig, interp)
        assert model_from_spec("m", names, spec, sig) == alg
    assert checked > 10000
