import json
import random
import re
import sys
from collections import Counter
from collections.abc import Mapping
from functools import partial
from itertools import product
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
    parse_term,
    parse_theory,
    pure_shape,
    signature,
    table_from_rows,
    valuation_from_subst,
)
from abslog import algebra
from abslog.algebra import all_tables, argument_keys
from abslog.errors import (
    ArityCapExceeded,
    LabelCountMismatch,
    MissingRow,
    IllFormedTerm,
    NotLogicSignature,
    SearchLimitOutOfRange,
    SearchSizeOutOfRange,
    SearchTooLarge,
    TermTooDeep,
)
from abslog.logics import (
    ALL,
    BUILTIN_NAMES,
    FALSE,
    IMP,
    SIG_D,
    SIG_E,
    SIG_K,
    TRUE,
    all_,
    builtin_logic,
    const,
    eq,
    imp,
    v,
)
from abslog.subst import _named
from abslog.term import encode

from conftest import (BINDER_POOL, random_algebra, random_shape, random_signature,
                      random_term, random_valuation, size_cap)
import oracles
from oracles import (check_model_oracle, enumerate_algebras, eval_oracle,
                     find_models_oracle, free_vars_oracle, tabulate_oracle)

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


def test_check_model_refuses_labels_that_do_not_pair_with_the_axioms():
    # paired by zip, the failing second axiom would go unchecked and the
    # report would pass
    axioms = [builtin_logic("K").axiom("D1"), parse_term("A -> B", SIG_K)]
    assert not check_model(BOOL, axioms, labels=["D1", "AB"]).passed
    for labels in (["only"], ["D1", "AB", "extra"]):
        with pytest.raises(LabelCountMismatch):
            check_model(BOOL, axioms, labels=labels)


class _CountingInterp(Mapping):
    """A dict of tables that counts how often each one is read."""

    def __init__(self, tables):
        self.tables, self.reads = tables, Counter()

    def __getitem__(self, name):
        self.reads[name] += 1
        return self.tables[name]

    def __iter__(self):
        return iter(self.tables)

    def __len__(self):
        return len(self.tables)


def test_evaluation_reads_each_table_at_most_once_per_call():
    interp = _CountingInterp(dict(BOOL.interp))
    alg = AbstractionAlgebra(BOOL.universe, SIG_K, interp)
    logic = builtin_logic("K")
    calls = [lambda: check_model(alg, logic.axiom_terms, arity_cap=1),
             lambda: check_model(alg, [parse_term("A -> B", SIG_K)]),
             lambda: is_logic_algebra(alg),
             lambda: eval_term(alg, Valuation(2), parse_term("all x. x /\\ A", SIG_K))]
    for call in calls:
        interp.reads.clear()
        call()
        assert interp.reads and max(interp.reads.values()) == 1, interp.reads


def test_a_term_too_deep_to_evaluate_is_a_named_error():
    chain, bound = const(TRUE), const(TRUE)
    for _ in range(3000):
        chain = imp(v("A"), chain)
        bound = imp(v("x"), bound)
    alg = degenerate_model(SIG_D)
    # under a binder as well: whichever walker runs out of depth first (the
    # encoding, or the grounding closures, which recurse when they are
    # built and when they are called), find_models names the error
    for walk in (lambda: find_models(SIG_D, [chain], 2),
                 lambda: find_models(SIG_D, [all_("x", bound)], 2),
                 lambda: check_model(alg, [chain]),
                 lambda: eval_term(alg, Valuation(1), chain)):
        with pytest.raises(TermTooDeep) as err:
            walk()
        assert err.value.code == "TooDeep"


def _with_limit(margin: int, call):
    """call(), with the recursion limit `margin` frames above this one."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + margin)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


def _first_margin(call, margins, failures=TermTooDeep) -> int:
    """The first of margins at which call() returns, from under
    _with_limit, where each lower one raised one of failures."""
    for margin in margins:
        try:
            _with_limit(margin, call)
            return margin
        except failures:
            pass
    raise AssertionError(f"no margin in {margins} is enough")


def test_every_failure_at_the_recursion_limit_is_term_too_deep():
    """From the lowest recursion limit that can be set to the first at
    which each succeeds, find_models, check_model and eval_term fail only
    with TermTooDeep, also where too few frames are left to call a Python
    function: building it takes none.  Each call is a partial, so the
    first frame above _with_limit is the entry point's own."""
    def settable(margin):
        try:
            _with_limit(margin, int)
            return True
        except (RecursionError, ValueError):
            return False

    lowest = next(m for m in range(-5, 100) if settable(m))
    K = builtin_logic("K")
    for call in (partial(find_models, SIG_D, builtin_logic("D").axiom_terms, 2),
                 partial(check_model, boolean_model(), K.axiom_terms, 1),
                 partial(eval_term, boolean_model(), Valuation(2), K.axiom_terms[-1])):
        assert _first_margin(call, range(lowest, lowest + 100)) > lowest


def test_a_search_takes_no_frame_per_branching_choice(monkeypatch):
    """Under the smallest recursion limit at which find_models finds D's
    model of size 2, it finds D's model of size 4 as well, after 265
    search nodes: the search runs in one loop, however many branching
    choices deep it goes.  The limit is found, not fixed, as frames per
    call differ across Python versions."""
    d = builtin_logic("D")
    search = lambda size: lambda: find_models(d.signature, d.axiom_terms, size)
    nodes = _count_calls(monkeypatch, algebra, "_propagate")
    # a bare RecursionError where the limit leaves no room to raise at all
    margin = _first_margin(search(2), range(1, 300), (TermTooDeep, RecursionError))
    nodes[0] = 0
    assert len(_with_limit(margin, search(4))) == 1
    assert nodes == [265]


def test_a_search_and_a_term_each_within_the_limit_are_searched_together():
    """D's axioms at size 3 and a 16-level ⇒ chain ending in a ∀: under
    the first limit at which the search on either alone finds a model, the
    search on both finds the same model as with room to spare, as it walks
    the chain at the same depth however many branching choices it has
    made.  The limit is found, not fixed, as frames per level differ
    across Python versions."""
    d = builtin_logic("D")
    chain = parse_term("all x. A", d.signature)
    for _ in range(16):
        chain = imp(v("A"), chain)
    search = lambda axioms: lambda: find_models(d.signature, axioms, 3)
    # a bare RecursionError where the limit leaves no room to raise at all
    margin = max(_first_margin(search(axioms), range(1, 300),
                               (TermTooDeep, RecursionError))
                 for axioms in (d.axiom_terms, [chain]))
    both = d.axiom_terms + (chain,)
    models = _with_limit(margin, search(both))
    assert len(models) == 1
    assert models == find_models(d.signature, both, 3)


@pytest.mark.parametrize("head", ["⇒", "F"])
def test_the_search_walks_a_term_in_the_frames_find_models_checks(head):
    """The walkers the search calls (_grounder and its closures, _value)
    take no more frames per level of a term than _node_size does: under a
    limit a few frames above the one at which _node_size walks a 150-level
    node, find_models searches it, and under each lower limit it raises
    TermTooDeep.  A walker with a frame per comprehension (two per level
    in Python 3.11) would need 150 more."""
    node = ("v", "A", ())
    for _ in range(150):
        node = (("A", IMP, SIG_D.get(IMP).shape, (), (("v", "A", ()), node))
                if head == IMP else ("v", "F", (node,)))
    walked = _first_margin(lambda: algebra._node_size(node), range(140, 400),
                           RecursionError)
    margin = _first_margin(lambda: find_models(SIG_D, [node], 2), range(140, 400))
    assert 140 < walked < margin <= walked + 15


def test_a_named_term_is_as_deep_to_find_models_as_its_node():
    """find_models searches a 100-level F(F(…A)) under the same recursion
    limit, within a few frames, whether it comes as a named term or as a
    node: encode takes one frame per level of a variable's arguments, as
    _check_node does."""
    named, node = v("A"), ("v", "A", ())
    for _ in range(100):
        named, node = v("F", named), ("v", "F", (node,))
    margins = [_first_margin(lambda: find_models(SIG_D, [axiom], 2), range(50, 400))
               for axiom in (named, node)]
    assert abs(margins[0] - margins[1]) <= 3, margins


def test_evaluation_reads_only_the_tables_its_term_uses(monkeypatch):
    """eval_term reads no table of the model for a lone variable, and only
    the tables of the heads a term uses, each once, from a model that
    find_models returned."""
    (model,) = find_models(SIG_K, [], 2)
    reads = Counter()
    packed = type(model.interp)
    full = packed.__getitem__
    monkeypatch.setattr(packed, "__getitem__",
                        lambda self, name: reads.update([name]) or full(self, name))
    for text, heads in [("A", {}), ("A -> B -> A", {IMP: 1}),
                        ("(all x. x) -> A /\\ not B", {IMP: 1, ALL: 1, "∧": 1, "¬": 1}),
                        ("true = false", {"=": 1, TRUE: 1, FALSE: 1})]:
        reads.clear()
        value = eval_term(model, Valuation(2), parse_term(text, SIG_K))
        assert reads == heads, text
        assert value == algebra._eval(algebra._tables(model), 2, Valuation(2),
                                      encode(parse_term(text, SIG_K), []), ())


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
        alg = load_model(str(path), SIG_D)
        assert is_logic_algebra(alg)
        report = check_model(alg, builtin_logic("D").axiom_terms, arity_cap=1)
        assert report.passed


def test_a_json_model_names_an_abstraction_as_a_term_does(tmp_path):
    # "and" is the declared abstraction, as it is in a term, not the ∧ its
    # ASCII alias stands for; "true", "imp" and "all" are not declared, so
    # they are aliases of ⊤, ⇒ and ∀
    tf = parse_theory("logic D\nabstraction and (0; {}, {})\naxiom X: and(A, B) -> A\n")
    doc = {"carrier": ["T", "F"],
           "interp": {"true": "T", "imp": [["T", "F"], ["T", "T"]],
                      "all": {"T,T": "T", "T,F": "F", "F,T": "F", "F,F": "F"},
                      "and": [["T", "F"], ["F", "F"]]}}
    path = tmp_path / "and.json"
    path.write_text(json.dumps(doc))
    alg = load_model(str(path), tf.signature)
    assert alg.interp["and"].entries == (T, F, F, F)
    logic = tf.logic()
    assert check_model(alg, logic.axiom_terms, labels=logic.labels).passed
    doc["interp"]["and"] = [["T", "F"], ["T", "F"]]  # and(A, B) is B
    path.write_text(json.dumps(doc))
    report = check_model(load_model(str(path), tf.signature), logic.axiom_terms,
                         labels=logic.labels)
    assert [v.label for v in report.verdicts if not v.passed] == ["X"]


def test_find_models_agrees_with_exhaustive_enumeration():
    # every logic algebra over D's, then E's, signature at size 2 is the
    # oracle: a search for a model of an axiom set succeeds iff one of them
    # passes check_model
    for sig, algebras, sets in ((SIG_D, 128, 60), (SIG_E, 2048, 30)):
        oracle = [alg for alg in enumerate_algebras(sig, 2) if is_logic_algebra(alg)]
        assert len(oracle) == algebras
        rnd = random.Random(5)
        axiom_sets = []
        for _ in range(sets):
            axioms, count = [], rnd.randint(1, 3)
            while len(axioms) < count:
                t = random_term(rnd, sig, depth=3)
                if all(arity <= 1 for _, arity in free_vars(t)):
                    axioms.append(t)
            axiom_sets.append(axioms)
        # random sets seldom hinge on one logic-algebra condition; each of
        # these has a model only if the search drops that condition
        axiom_sets += [[imp(const(TRUE), v("B"))],
                       [imp(all_("x", const(TRUE)), v("B"))]]
        with_model = 0
        for axioms in axiom_sets:
            found = find_models(sig, axioms, 2, limit=1)
            exists = any(check_model(alg, axioms, arity_cap=1).passed for alg in oracle)
            assert bool(found) == exists, axioms
            assert all(check_model(m, axioms, arity_cap=1).passed for m in found)
            with_model += exists
        assert 0 < with_model < len(axiom_sets) - 2


def _small_axiom_set(rnd, sig, size):
    """One to three random axioms whose free variables are at most unary
    and whose instances at `size` number at most 200 together."""
    axioms, instances, count = [], 0, rnd.randint(1, 3)
    while len(axioms) < count:
        t = random_term(rnd, sig, depth=3)
        arities = [arity for _, arity in free_vars(t)]
        tables = prod(size ** size ** arity for arity in arities)
        if max(arities, default=0) <= 1 and instances + tables <= 200:
            axioms.append(t)
            instances += tables
    return axioms


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Replace module.name by a wrapper that counts its calls, recursive
    ones included, in the returned one-element list."""
    calls, fn = [0], getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_find_models_matches_the_search_before_ground_instances(monkeypatch):
    # find_models grounds each axiom instance once and re-reads one only
    # when a cell it read has been assigned; the oracle re-evaluates every
    # instance's nameless form in each propagation round.  Both make the
    # same propagation and branching choices, so they visit the same search
    # nodes and return the same model lists, in the same order.  The
    # program reads the builtin axioms as nodes, the oracle as named terms,
    # so the two also sort the axioms by the same size.
    problems = [(builtin_logic(name).signature, builtin_logic(name).axiom_terms,
                 size, 10 ** 6)
                for name in BUILTIN_NAMES for size in (1, 2)]
    rnd = random.Random(15)
    for sig in (SIG_D, SIG_K):
        for _ in range(100):
            problems.append((sig, _small_axiom_set(rnd, sig, 2), 2, 10 ** 6))
        for _ in range(60):
            problems.append((sig, _small_axiom_set(rnd, sig, 3), 3, 1))
    # first models, and the first five, where several exist: the order in
    # which they come out is where a changed propagation step shows
    d = builtin_logic("D")
    for n in range(8):
        labels = [l for k, l in enumerate(("D1", "D2", "D3")) if n >> k & 1] + ["D4"]
        for limit in (1, 5):
            problems.append((SIG_D, [d.axiom(l) for l in labels], 3, limit))
    # searches that backtrack, where a constraint status kept past the
    # assignment of a cell it read would show: an enumeration of many
    # models (422 nodes), a refutation that branches on ∀ rows until every
    # unary f is seen to map ∀x. ∀y. x to ⊤ (151 nodes), and two that
    # propagation alone refutes
    problems += [(SIG_D, [d.axiom("D4")], 3, 200),
                 (SIG_D, [v("f", all_("x", all_("y", v("x"))))], 3, 1),
                 (SIG_K, [*builtin_logic("K").axiom_terms, eq(v("x"), v("y"))], 3, 1),
                 (SIG_D, [*d.axiom_terms, all_("x", v("x"))], 3, 1)]
    nodes = _count_calls(monkeypatch, algebra, "_propagate")
    oracle_nodes = _count_calls(monkeypatch, oracles, "_solve_oracle")
    counts = []
    for sig, axioms, size, limit in problems:
        found = find_models(sig, axioms, size, limit)
        named = [_named(a, []) if type(a) is tuple else a for a in axioms]
        assert found == find_models_oracle(sig, named, size, limit), (axioms, size)
        assert nodes == oracle_nodes, (axioms, size)
        counts.append(len(found))
    # refutations, first models and many-model enumerations all occur
    assert 0 in counts and 1 in counts and max(counts) > 100
    assert counts[-4:] == [200, 0, 0, 0]


def test_find_models_at_size_four():
    # a value set of four values is a mask wider than the three bits that
    # sizes up to 3 use; the oracle search is too slow at this size, so the
    # first model is checked directly
    for name in ("D", "E"):
        logic = builtin_logic(name)
        (model,) = find_models(logic.signature, logic.axiom_terms, 4, limit=1)
        assert model.size == 4 and is_logic_algebra(model)
        assert check_model(model, logic.axiom_terms, arity_cap=1).passed


def test_find_models_refuses_a_size_outside_one_to_256():
    # a found model keeps one byte per table entry; the size is checked, by
    # exact type as the limit is, before any work, so 256 gets as far as the
    # signature check and True is not taken for 1
    for size in (0, -1, 257, 2.0, "2", True):
        with pytest.raises(SearchSizeOutOfRange):
            find_models(SIG_D, [], size)
    with pytest.raises(NotLogicSignature):
        find_models(signature([("f", pure_shape(1))]), [], 256)
    (model,) = find_models(SIG_D, builtin_logic("D").axiom_terms, 1)
    assert model.size == 1


def test_find_models_refuses_a_store_above_max_search_cells(monkeypatch):
    # the search keeps one int per value and per table entry, a number the
    # signature and the size give, so a search whose store would hold more
    # than MAX_SEARCH_CELLS is refused before it grounds an instance or
    # builds the store: U at size 7 needs 3,294,483 cells, and D at size 6,
    # with 46,699, is searched (here up to the store, with _solve stubbed)
    grounded = _count_calls(monkeypatch, algebra, "_instances")
    stores = []
    monkeypatch.setattr(algebra, "_solve",
                        lambda cs, val, size, limit, found: stores.append(len(val)))
    u, d = builtin_logic("U"), builtin_logic("D")
    with pytest.raises(SearchTooLarge, match="3,294,483 cells"):
        find_models(u.signature, u.axiom_terms, 7)
    # w's table at size 16 has 16^4096 entries, more digits than str() gives
    w = SIG_D.extend(signature([("w", make_shape(3, [(0, 1, 2)]))]).decls)
    with pytest.raises(SearchTooLarge, match=r"store of over 2\^16384 cells"):
        find_models(w, [], 16)
    assert grounded == [0] and stores == []
    assert find_models(d.signature, d.axiom_terms, 6) == [] and stores == [46_699]
    assert algebra.MAX_SEARCH_CELLS == 2 ** 20
    # the bound admits a store of exactly MAX_SEARCH_CELLS: D's at size 2 has 11
    monkeypatch.setattr(algebra, "MAX_SEARCH_CELLS", 11)
    assert find_models(d.signature, d.axiom_terms, 2) == [] and stores[-1] == 11
    monkeypatch.setattr(algebra, "MAX_SEARCH_CELLS", 10)
    with pytest.raises(SearchTooLarge):
        find_models(d.signature, d.axiom_terms, 2)
    assert len(stores) == 2


def test_find_models_refuses_a_limit_below_one():
    # D has a model of size 2, so an empty list for limit 0 would misreport
    # that none exists; the limit is checked before the signature
    axioms = builtin_logic("D").axiom_terms
    for limit in (0, -1, 1.0):
        with pytest.raises(SearchLimitOutOfRange):
            find_models(SIG_D, axioms, 2, limit=limit)
    with pytest.raises(SearchLimitOutOfRange):
        find_models(signature([("f", pure_shape(1))]), [], 2, limit=0)
    (model,) = find_models(SIG_D, axioms, 2, limit=1)
    assert check_model(model, axioms, arity_cap=1).passed


def _grounding_problems(rnd):
    """(signature, size) pairs at sizes 1, 2 and 3: D's and K's signatures,
    and D's extended by random shapes up to valence 2 (at size 3 only those
    whose tables are small), by w, whose one position binds two variables,
    and by t, whose three positions bind none."""
    extra = [("w", make_shape(2, [(0, 1)])), ("t", make_shape(0, [(), (), ()]))]
    for size in (1, 2, 3):
        yield SIG_D, size
        yield SIG_K, size
        for _ in range(15):
            shapes = [random_shape(rnd) for _ in range(4)]
            if size == 3:
                shapes = [s for s in shapes if algebra._row_count(3, s) <= 729]
            decls = [(f"f{i}", s) for i, s in enumerate(shapes)]
            yield SIG_D.extend(signature(decls + extra).decls), size


def _binding_facts(t, bound=frozenset()) -> set[str]:
    """Which of "nested", "shadowed" and "two" (a position that binds two
    variables) occur in the named term t."""
    if isinstance(t, Var):
        return set().union(*(_binding_facts(a, bound) for a in t.args))
    facts = set()
    if t.binders:
        facts |= {"nested"} if bound else set()
        facts |= {"shadowed"} if bound & set(t.binders) else set()
    for p, a in zip(t.shape.binder_sets, t.args):
        facts |= {"two"} if len(p) == 2 else set()
        facts |= _binding_facts(a, bound | {t.binders[j] for j in p})
    return facts


def _grounding_paths(monkeypatch, seen: set) -> None:
    """Make _grounder note in seen, as (size, path), each grounding path
    a ground term comes out of: the two-argument head that binds nothing
    and the variable applied to one argument, each only where a kid is not
    a value, and the generic paths of a head of three or more arguments,
    of a position that binds two variables and of a variable of arity 2."""
    grounder = algebra._grounder

    def noting(node, pos, bases, size, top):
        ground = grounder(node, pos, bases, size, top)
        tag, args = node[0], node[-1]
        sets = node[2].binder_sets if tag == "A" else ()
        if tag == "A" and sets == ((), ()):
            path, kid_not_value = "two-argument head, a kid not a value", True
        elif tag == "v" and len(args) == 1:
            path, kid_not_value = "unary variable, its kid not a value", True
        elif tag == "A" and len(args) >= 3:
            path, kid_not_value = "head of arity ≥ 3", False
        elif any(len(p) == 2 for p in sets):
            path, kid_not_value = "two-variable position", False
        elif tag == "v" and len(args) == 2:
            path, kid_not_value = "binary variable", False
        else:
            return ground

        def noted(tables, env):
            g = ground(tables, env)
            if g.__class__ is tuple or not kid_not_value:
                seen.add((size, path))
            return g
        return noted
    monkeypatch.setattr(algebra, "_grounder", noting)


def test_grounding_agrees_with_evaluation(monkeypatch):
    # each instance's ground term, read with every cell (an entry's number
    # in the search's layout) of a random algebra with ⊤ = 0 except ⊤'s own
    # (the search fixes ⊤, so no ground term may read it; read, it would
    # give its cell, not a value), has the value _eval gives the node under
    # the instance's valuation; and _instances yields each distinct ground
    # term once, in the order the instances first give it, across nodes as
    # well.  Every grounding path is taken at every size.
    rnd = random.Random(19)
    seen, checked = set(), 0
    _grounding_paths(monkeypatch, seen)
    for sig, size in _grounding_problems(rnd):
        algs = []
        for _ in range(2):
            alg = random_algebra(rnd, sig, size)
            interp = dict(alg.interp)
            interp[TRUE] = OperationTable(size, interp[TRUE].shape, (0,))
            algs.append(AbstractionAlgebra(alg.universe, sig, interp))
        bases, end = algebra._cell_bases(sig, size)
        stores = [_store({bases[d.name] + row: e for d in sig.decls if d.name != TRUE
                          for row, e in enumerate(a.interp[d.name].entries)}, end)
                  for a in algs]
        by_name = [algebra._tables(a) for a in algs]
        for _ in range(6):
            t = random_term(rnd, sig, depth=4)
            fvs = sorted(free_vars(t))
            if prod(size ** size ** n for _, n in fvs) > 300:
                continue
            seen |= {(size, f) for f in _binding_facts(t) | {
                f"arity {n}" for _, n in fvs}}
            node = algebra.encode(t, [], sig)
            ground = algebra._grounder(node, {v: i for i, v in enumerate(fvs)},
                                       bases, size, 0)
            grounds = []
            for tables in product(*(all_tables(size, n) for _, n in fvs)):
                g = ground(tuple(tb.entries for tb in tables), ())
                nu = Valuation(size, dict(zip(fvs, tables)))
                for alg_tables, val in zip(by_name, stores):
                    assert algebra._value(g, val, size) \
                        == algebra._eval(alg_tables, size, nu, node, ()), (t, g)
                grounds.append(g)
                checked += 1
            distinct = list(dict.fromkeys(grounds))
            for nodes in ([node], [node, node]):
                assert [c for c, *_ in algebra._instances(nodes, bases, size, 0)] \
                    == distinct
    assert seen >= {(size, f) for size in (2, 3) for f in (
        "nested", "shadowed", "two", "arity 0", "arity 1")} | {(2, "arity 2")}
    assert seen >= {(size, f) for size in (1, 2, 3) for f in (
        "two-argument head, a kid not a value", "unary variable, its kid not a value",
        "head of arity ≥ 3", "two-variable position")} | {
            (1, "binary variable"), (2, "binary variable")}
    assert checked > 2000


def _store(cells: dict[int, int], end: int) -> list[int]:
    """The search's store of the ints below end under the partial
    assignment cells: an assigned cell's value, and every other int
    itself."""
    val = list(range(end))
    for c, u in cells.items():
        val[c] = u
    return val


def _first_read(g, cells, size):
    """A reference reader of ground term g: (its value, "value") or (the
    first cell it reads that cells leaves unassigned, where it was read:
    "kid i" or "head").  Kids are read left to right, the head last."""
    if isinstance(g, int):
        value = cells.get(g, g)
        return value, "value" if value < size else "head"
    head, kids = g
    values = []
    for i, kid in enumerate(kids):
        value, _ = _first_read(kid, cells, size)
        if value >= size:
            return value, f"kid {i}"
        values.append(value)
    row = sum(value * size ** k for k, value in enumerate(reversed(values)))
    if isinstance(head, tuple):  # a variable's entries
        return head[row], "value"
    return _first_read(head + row, cells, size)


def _random_ground(rnd, size, depth):
    """A random ground term over size: leaves are values and the cells
    size..size + 5, heads a variable's entries or the first cell of a
    table from size + 6 on, with one, two or three kids."""
    if depth == 0 or rnd.random() < 0.3:
        return rnd.randrange(size + 6)
    n = rnd.choice((1, 2, 2, 3))
    kids = tuple(_random_ground(rnd, size, depth - 1) for _ in range(n))
    if rnd.random() < 0.5:
        return tuple(rnd.randrange(size) for _ in range(size ** n)), kids
    return size + 6 + rnd.randrange(4) * size ** 3, kids


def test_value_returns_the_first_unassigned_cell_in_evaluation_order():
    """Under a partial assignment _value gives the first cell that the
    evaluation reads unassigned, kids left to right and the head last, or
    the value once every cell it reads is assigned: for one, two and three
    kids, under a variable's entries and under a cell head, and at each
    place such a cell can be read."""
    # the two-kid path, step by step: kid a, kid b, the head's cell, a value
    g = (20, (10, 11))
    for cells, want in [({}, 10), ({11: 0}, 10), ({10: 1}, 11),
                        ({10: 1, 11: 0}, 22), ({10: 1, 11: 0, 22: 1}, 1)]:
        assert algebra._value(g, _store(cells, 32), 2) == want, cells
    # a nested kid a: a unary variable's entries over a cell head's term
    nested = ((0, 1, 1, 0), (((0, 1), ((30, (12,)),)), 11))
    for cells, want in [({}, 12), ({12: 0}, 30), ({12: 0, 30: 1}, 11),
                        ({12: 0, 30: 1, 11: 1}, 0), ({12: 1, 31: 0, 11: 1}, 1)]:
        assert algebra._value(nested, _store(cells, 32), 2) == want, cells
    rnd = random.Random(28)
    seen = set()
    for size in (1, 2, 3):
        for _ in range(3000):
            g = _random_ground(rnd, size, rnd.randint(1, 3))
            end = size + 6 + 4 * size ** 3
            cells = {c: rnd.randrange(size) for c in range(size, end)
                     if rnd.random() < 0.6}
            want, where = _first_read(g, cells, size)
            assert algebra._value(g, _store(cells, end), size) == want, (g, cells)
            if not isinstance(g, int):
                head, kids = g
                kind = "entries" if isinstance(head, tuple) else "cell"
                seen.add((size, min(len(kids), 3), kind, where))
    for size in (1, 2, 3):
        for n in (1, 2, 3):
            for kind in ("entries", "cell"):
                wheres = [f"kid {i}" for i in range(n)] + ["value"]
                wheres += ["head"] if kind == "cell" else []
                for where in wheres:
                    assert (size, n, kind, where) in seen, (size, n, kind, where)


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
        value = eval_term(alg, nu, t)
        assert value == eval_oracle(alg, nu, t), t
        # eval_term reads a table only once the term reaches its head
        assert value == algebra._eval(algebra._tables(alg), size, nu,
                                      encode(t, [], alg.signature), ()), t
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
