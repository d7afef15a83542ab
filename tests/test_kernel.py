import ast
import copy
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abslog import (
    All,
    Ax,
    Lemma,
    Logic,
    Mp,
    Subst,
    Substitution,
    Template,
    Theorem,
    TheoremDB,
    Var,
    alpha_eq,
    apply_subst,
    boolean_model,
    builtin_logic,
    check_model,
    check_proof,
    check_theory,
    free_vars,
    inconsistency_expand,
    parse_theory,
)
from abslog import errors, kernel, nameless
from abslog.errors import (
    AllMismatch,
    ArityMismatch,
    BadSubstitution,
    IllFormed,
    KernelPrivilege,
    MalformedTerm,
    MpMismatch,
    NotAnAxiom,
    NotAnImplication,
    NotLogicSignature,
    PreconditionFailed,
    ProofError,
    ShapeError,
    SubstMismatch,
    UnknownLemma,
)
from abslog.logics import BUILTIN_NAMES, IMP, TRUE, all_, const, eq, imp, neg, v
from abslog.shape import (BINDER_SHAPE, BINOP_SHAPE, AbstractionDecl, Shape, Signature,
                          make_shape)
from abslog.subst import _named
from abslog.term import Abs, encode, same_class

from conftest import ClaimInt, ClaimsEveryClass, ClaimStr, ClaimTuple
from oracles import check_proof_oracle, rename_binders

D = builtin_logic("D")
K = builtin_logic("K")
P = builtin_logic("P")
TOP = const(TRUE)


def test_ax_by_label_and_by_term():
    assert check_proof(D, Ax("D1")).statement == TOP
    assert check_proof(D, Ax(TOP)).statement == TOP
    # literal terms are matched modulo alpha
    d4 = imp(all_("y", v("A", v("y"))), v("A", v("x")))
    assert alpha_eq(check_proof(D, Ax(d4)).statement, D.axiom("D4"))


def test_axiom_by_term_finds_the_labelled_axiom():
    # AX given a term or node looks its α-class up in the logic's classes:
    # every builtin axiom, as a term with its binders renamed and as that
    # term's node, gives the by-label theorem, the axiom's own node with
    # its own binder names; the term is checked, not kept
    hints_differ = 0
    for name in BUILTIN_NAMES:
        logic = builtin_logic(name)
        for label, node in logic.axioms:
            by_label = kernel.axiom(logic, label)
            term = rename_binders(_named(node, []))
            renamed = encode(term, [], logic.signature)
            hints_differ += renamed != node
            by_term = kernel.axiom(logic, term)
            assert by_term.node is by_label.node is node
            assert by_term.statement == _named(node, [])
            assert kernel.axiom(logic, renamed).node is node
    assert hints_differ > 30
    # of two α-equivalent axioms the first wins, by term and by node
    d4 = D.axiom("D4")
    twice = D.extend("D+", axioms=[("D4x", rename_binders(_named(d4, [])))])
    again = twice.axiom("D4x")
    assert again != d4 and same_class(again, d4)
    assert kernel.axiom(twice, again).node is d4
    assert kernel.axiom(twice, "D4x").node is again
    # the map is read-only, so no caller can make a term an axiom, and a
    # logic that has built it still pickles
    with pytest.raises(TypeError):
        twice.classes[("v", "A", ())] = ("v", "A", ())
    assert pickle.loads(pickle.dumps(twice)).classes == twice.classes
    # a non-axiom, as a term or as a node, is not one
    for t in (imp(v("A"), v("A")), encode(imp(v("A"), v("A")), [], D.signature),
              all_("x", v("A", v("x")))):
        with pytest.raises(NotAnAxiom):
            kernel.axiom(D, t)


def test_subst_rule():
    target = imp(all_("x", v("x")), v("x"))
    p = Subst(target, Substitution({("A", 1): Template(("x",), v("x"))}),
              Ax("D4"))
    assert alpha_eq(check_proof(D, p).statement, target)


def test_mp_rule():
    d2_inst = Subst(imp(TOP, imp(v("B"), TOP)),
                    Substitution({("A", 0): TOP}), Ax("D2"))
    p = Mp(imp(v("B"), TOP), Ax("D1"), d2_inst)
    assert alpha_eq(check_proof(D, p).statement, imp(v("B"), TOP))


def test_all_rule():
    p = All(all_("x", TOP), "x", Ax("D1"))
    assert alpha_eq(check_proof(D, p).statement, all_("x", TOP))


def test_error_codes_and_paths():
    with pytest.raises(NotAnAxiom):
        check_proof(D, Ax("E1"))
    with pytest.raises(NotAnAxiom):
        check_proof(D, Ax(v("A")))
    with pytest.raises(SubstMismatch):
        check_proof(D, Subst(v("B"), Substitution({}), Ax("D1")))
    with pytest.raises(NotAnImplication):
        check_proof(D, Mp(TOP, Ax("D1"), Ax("D1")))
    with pytest.raises(MpMismatch):
        check_proof(D, Mp(imp(v("B"), v("A")), Ax("D1"), Ax("D2")))
    with pytest.raises(AllMismatch):
        check_proof(D, All(all_("x", v("x")), "x", Ax("D1")))
    # the error path points into the proof tree
    bad = Mp(TOP, Ax("E1"), Ax("D2"))
    with pytest.raises(NotAnAxiom) as e:
        check_proof(D, bad)
    assert e.value.path == (0,)


def test_theorem_privilege():
    with pytest.raises(KernelPrivilege):
        Theorem(TOP, D)
    with pytest.raises(KernelPrivilege):  # a token equal to every object
        Theorem(D, D.axiom("D1"), _token=_AnyStr("token"))
    thm = check_proof(D, Ax("D1"))
    with pytest.raises(KernelPrivilege):
        thm.statement = v("x")
    for name in ("node", "logic", "_statement"):
        with pytest.raises(KernelPrivilege):
            delattr(thm, name)
    assert thm.node is D.axiom("D1") and thm.logic is D


def test_theorem_db():
    db = TheoremDB()
    thm = check_proof(D, Ax("D1"))
    db.add("top", thm)
    assert db.get("top") is thm
    assert db.names() == ("top",)
    with pytest.raises(KernelPrivilege):
        db.add("fake", TOP)
    with pytest.raises(KernelPrivilege):
        db.add("top", thm)


def test_proof_nodes_are_immutable_and_equal_only_within_their_class():
    """A proof node equals a node of its own class with equal fields, and
    nothing else, not even a tuple of those fields; no attribute of it can
    be set or deleted.  Each has the fields the fold and the benchmark's
    tracer read (`sub`, `sub_h`, `sub_g`), and no other."""
    ax = Ax("D1")
    nodes = [ax, Lemma("D1"), Subst(None, Substitution({}), ax),
             All(None, "x", ax), Mp(None, ax, ax)]
    for i, node in enumerate(nodes):
        again = type(node)(*node)
        assert again == node and not again != node
        assert type(node) is Subst or hash(again) == hash(node)
        assert node != tuple(node) and tuple(node) != node
        assert all(node != other for other in nodes[:i] + nodes[i + 1:])
        for name in (node._fields[0], "line", "_fields"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert [f for f in ("sub", "sub_h", "sub_g") if hasattr(node, f)] == {
            Subst: ["sub"], All: ["sub"], Mp: ["sub_h", "sub_g"]}.get(type(node), [])
    assert Ax("D1") != Ax("D2") and Mp(None, ax, ax) != Mp(None, ax, Ax("D2"))


def test_lemma_rule_and_logic_guard():
    db = TheoremDB()
    db.add("top", check_proof(D, Ax("D1")))
    assert check_proof(K, Lemma("top"), db).statement == TOP  # K extends D
    db.add("em", check_proof(K, Ax("K")))
    with pytest.raises(UnknownLemma):
        check_proof(D, Lemma("em"), db)  # D does not extend K
    with pytest.raises(UnknownLemma):
        check_proof(D, Lemma("missing"), db)
    with pytest.raises(UnknownLemma):
        check_proof(D, Lemma("top"))  # no store given


def test_weakening():
    proofs = [
        Ax("D1"),
        Subst(imp(all_("x", v("x")), v("x")),
              Substitution({("A", 1): Template(("x",), v("x"))}), Ax("D4")),
        All(all_("x", TOP), "x", Ax("D1")),
    ]
    for p in proofs:
        in_d = check_proof(D, p)
        in_k = check_proof(K, p)
        assert alpha_eq(in_d.statement, in_k.statement)


def test_inconsistency_expand():
    bad = D.extend("D+", axioms=[("BAD", all_("x", v("x")))])
    for target in (const(TRUE), v("y"), imp(v("A"), v("B"))):
        p = inconsistency_expand(bad, Ax("BAD"), target)
        assert alpha_eq(check_proof(bad, p).statement, target)


def test_inconsistency_expand_preconditions():
    bad = D.extend("D+", axioms=[("BAD", all_("x", v("x")))])
    with pytest.raises(PreconditionFailed):
        inconsistency_expand(bad, Ax("D1"), v("y"))  # premise proves the top
    with pytest.raises(PreconditionFailed):
        inconsistency_expand(bad, Ax("BAD"), const("nope"))  # ill-formed target


# --- the rules, called directly --------------------------------------------------

def test_rules_take_only_theorems():
    class Fake:
        statement, logic = TOP, D

    d1 = kernel.axiom(D, "D1")
    d2 = kernel.axiom(D, "D2")
    for rule in (lambda t: kernel.inst(t, Substitution({})),
                 lambda t: kernel.mp(t, d2), lambda t: kernel.mp(d1, t),
                 lambda t: kernel.gen(t, "x"), lambda t: kernel.lift(t, K)):
        for fake in (Fake(), TOP, None):
            with pytest.raises(KernelPrivilege):
                rule(fake)


def test_mp_premises_share_one_logic():
    h = kernel.axiom(D, "D1")
    g = kernel.inst(kernel.axiom(K, "D2"), Substitution({("A", 0): TOP}))
    with pytest.raises(MpMismatch):
        kernel.mp(h, g)
    thm = kernel.mp(kernel.lift(h, K), g)
    assert thm.logic is K and alpha_eq(thm.statement, imp(v("B"), TOP))
    # a logic equal to D is still another logic
    twin = Logic(D.name, D.signature, D.axioms)
    assert twin == D and twin is not D
    with pytest.raises(MpMismatch):
        kernel.mp(h, kernel.inst(kernel.axiom(twin, "D2"), Substitution({("A", 0): TOP})))
    assert kernel.lift(h, twin).logic is twin


def test_mp_reads_the_head_and_shape_of_an_implication_by_value():
    """An implication whose head and shape equal ⇒'s, but are other
    objects, is taken apart as one."""
    head, shape = IMP.encode().decode(), Shape(0, ((), ()))
    assert (head, shape) == (IMP, BINOP_SHAPE)
    assert head is not IMP and shape is not BINOP_SHAPE
    a, b = ("v", "A", ()), ("v", "B", ())
    logic = Logic("L", D.signature, (("H", a), ("G", ("A", head, shape, (), (a, b)))))
    assert kernel.mp(kernel.axiom(logic, "H"), kernel.axiom(logic, "G")).node == b


def test_lift_needs_an_extension():
    top, em = kernel.axiom(D, "D1"), kernel.axiom(K, "K")
    assert kernel.lift(top, D) is top
    assert kernel.lift(top, K).logic is K
    with pytest.raises(UnknownLemma):
        kernel.lift(em, D)
    with pytest.raises(UnknownLemma):
        kernel.lift(top, Logic("bare", D.signature, ()))  # no D axioms


def test_inst_checks_every_template():
    nope = Substitution({("A", 0): const("nope")})
    # A does not occur in D1, so only the template check can see it
    with pytest.raises(IllFormed):
        kernel.inst(kernel.axiom(D, "D1"), nope)
    with pytest.raises(IllFormed):
        kernel.inst(kernel.axiom(D, "D2"), nope, imp(TOP, imp(v("B"), TOP)))


def test_inst_checks_its_substitution_again():
    # a Substitution cannot be changed after it was checked, in its
    # mapping or by rebinding the mapping
    sigma = Substitution({})
    with pytest.raises(TypeError):
        sigma.mapping[("A", 1)] = Template(("p", "q"), v("q"))
    with pytest.raises(KernelPrivilege):
        sigma.mapping = {("A", 0): _FORGED}
    with pytest.raises(KernelPrivilege):
        del sigma.mapping
    assert sigma.mapping == {}
    with pytest.raises(BadSubstitution):  # keys are exactly (str, int)
        Substitution({(_AnyStr("A"), 0): TOP})
    # a copy or a pickled one is built through the same checks
    sigma = Substitution({("A", 1): Template(("p",), v("p"))})
    for again in (copy.copy(sigma), copy.deepcopy(sigma),
                  pickle.loads(pickle.dumps(sigma))):
        assert type(again) is Substitution and again == sigma
    # a plain dict holding a bare term is normalised as apply_subst does
    plain = kernel.inst(kernel.axiom(D, "D2"), {("A", 0): TOP})
    assert plain.statement == kernel.inst(
        kernel.axiom(D, "D2"), Substitution({("A", 0): TOP})).statement


# --- forged inputs --------------------------------------------------------------

# one binder, for a variable of arity 0: instantiated at no arguments, its
# body stays as it is, an index that no binder of the premise encloses
_FORGED = Template(("x",), ("b", 0))


def _forall_z(forge):
    """A derivation of ∀z. z in D that goes through only if D5 instantiated
    by `forge()`, which binds A/0 to _FORGED, is minted."""
    x = v("x")
    # (∀x. x ⇒ B[x]) ⇒ (b0 ⇒ ∀x. B[x]), b0 dangling; then B/1 := [y. y]
    d5 = kernel.inst(kernel.axiom(D, "D5"), forge())
    d5 = kernel.inst(d5, {("B", 1): Template(("y",), v("y"))})
    # ∀x. x ⇒ x, from D2 and D3; then MP gives b0 ⇒ ∀x. x
    d3 = kernel.inst(kernel.axiom(D, "D3"),
                     {("A", 0): x, ("B", 0): imp(x, x), ("C", 0): x})
    d2 = lambda b: kernel.inst(kernel.axiom(D, "D2"), {("A", 0): x, ("B", 0): b})
    refl = kernel.gen(kernel.mp(d2(x), kernel.mp(d2(imp(x, x)), d3)), "x")
    # ALL binds the dangling index: ∀y. y ⇒ ∀x. x
    captured = kernel.gen(kernel.mp(refl, d5), "y")
    # (∀x. x ⇒ ∀z. z) ⇒ (⊤ ⇒ ∀z. z), then MP with it and with D1
    d4 = kernel.inst(kernel.axiom(D, "D4"), {
        ("A", 1): Template(("y",), imp(v("y"), all_("z", v("z"))))})
    d4 = kernel.inst(d4, {("x", 0): TOP})
    return kernel.mp(kernel.axiom(D, "D1"), kernel.mp(captured, d4))


def _rebound():
    sigma = Substitution({})
    sigma.mapping = {("A", 0): _FORGED}
    return sigma


class _YieldsForged(Substitution):
    def items(self):
        return [(("A", 0), _FORGED)]


class _Arity0(Template):
    @property
    def arity(self):
        return 0


class _Miscounted:
    """Binder names that count none and iterate none, yet read x backwards."""
    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())

    def __reversed__(self):
        return iter(("x",))


class _AnyStr(str):
    """A name equal to every object."""
    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = str.__hash__


class _AnyInt(int):
    """An arity equal to every int, hashed as 0."""
    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __hash__(self):
        return 0


class _ClaimsArity0(_Arity0, metaclass=ClaimsEveryClass):
    """A template of arity 0 whose class claims to be Template."""


class _ClaimsSubstitution(metaclass=ClaimsEveryClass):
    """Claims to be a Substitution, and maps A/0 to _FORGED."""
    mapping = {("A", 0): _FORGED}

    def items(self):
        return self.mapping.items()


FORGERIES = {
    "mapping rebound": (_rebound, KernelPrivilege),
    "items overridden": (lambda: _YieldsForged({}), ArityMismatch),
    "binders miscounted": (
        lambda: Substitution({("A", 0): Template(_Miscounted(), v("x"))}),
        BadSubstitution),
    "arity equal to any int": (
        lambda: Substitution({("A", _AnyInt(1)): _FORGED}), BadSubstitution),
    "template arity overridden": (
        lambda: Substitution({("A", 0): _Arity0(("x",), ("b", 0))}), ArityMismatch),
    "template claims to be a Template": (
        lambda: Substitution({("A", 0): _ClaimsArity0(("x",), ("b", 0))}), ArityMismatch),
    "claims to be a Substitution": (_ClaimsSubstitution, ArityMismatch),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_a_forged_substitution_derives_nothing(forgery):
    """Each forgery gets a template with one binder past the arity check
    for A/0, and with it `_forall_z` once minted ∀z. z in D.  Each now
    raises a named error before a rule uses it.  An honest A := x leaves
    no index for ALL to capture, so the same derivation fails at MP."""
    forge, error = FORGERIES[forgery]
    with pytest.raises(error):
        _forall_z(forge)
    with pytest.raises(MpMismatch):
        _forall_z(lambda: Substitution({("A", 0): v("x")}))


def test_a_subclass_gets_past_no_rule():
    """A subclass can override what a rule reads: a Theorem whose node is
    ∀x. x, a Logic whose axiom() answers ∀x. x, a term that reads as x ⇒ x
    when checked and encodes as b0 ⇒ b0, a variable named when checked
    and not when encoded, a name equal to every name, a shape equal to
    every shape, a signature that declares every name, an object whose
    class claims to equal Theorem and Logic.  Each once got a rule to mint
    it, or the store to keep it, or would with `==` for `is` in a type
    check; each is refused."""
    forall_x = encode(all_("x", v("x")), [], D.signature)

    class Fake(Theorem):
        node, logic, _statement = forall_x, D, None

        def __init__(self):
            pass

    class Claims(metaclass=ClaimsEveryClass):  # to be a Theorem, and a Logic
        node, logic = forall_x, D

    fake = Fake()
    for probe in (lambda: kernel.lift(fake, K), lambda: kernel.gen(fake, "y"),
                  lambda: TheoremDB().add("fake", fake), lambda: kernel.gen(Claims(), "y"),
                  lambda: kernel.lift(kernel.axiom(D, "D1"), Claims())):
        with pytest.raises(KernelPrivilege):
            probe()

    class Liar(Logic):
        def axiom(self, label):
            return forall_x

    liar = Liar("D", D.signature, D.axioms)
    with pytest.raises(KernelPrivilege):
        kernel.lift(kernel.axiom(liar, "D1"), D)
    with pytest.raises(KernelPrivilege):
        kernel.lift(kernel.axiom(D, "D1"), liar)

    class Shifty(Abs):
        reads = 0

        @property
        def shape(self):  # the second read is the one that scopes the binder
            Shifty.reads += 1
            return make_shape(1, [{0}, {0}]) if Shifty.reads == 2 else BINOP_SHAPE

        @property
        def binders(self):
            return ("x",) if Shifty.reads == 2 else ()

    body = object.__new__(Shifty)
    object.__setattr__(body, "name", IMP)
    object.__setattr__(body, "args", (v("x"), v("x")))
    with pytest.raises(IllFormed):
        kernel.inst(kernel.axiom(D, "D2"), {("A", 0): Template((), body)})

    class Unnamed(Var):
        reads = 0

        @property
        def name(self):  # named when checked, 5 when encoded
            Unnamed.reads += 1
            return "x" if Unnamed.reads == 1 else 5

    body = object.__new__(Unnamed)
    object.__setattr__(body, "args", ())
    with pytest.raises(IllFormed):
        kernel.inst(kernel.axiom(D, "D2"), {("A", 0): Template((), body)})

    # a head ⇒ that is also =: from x ⇒ ⊤ it proved x = ⊤, and so x, in E
    E = builtin_logic("E")
    for body in (Abs(_AnyStr(IMP), BINOP_SHAPE, (), (v("x"), TOP)), v(_AnyStr("x")),
                 ("A", "∀", BINDER_SHAPE, (_AnyStr("y"),), (_TOP_NODE,))):
        with pytest.raises(IllFormed):
            kernel.inst(kernel.axiom(E, "D2"), {("A", 0): Template((), body)})
    with pytest.raises(MalformedTerm):
        all_(_AnyStr("y"), TOP)
    with pytest.raises(IllFormed):  # it would bind A and B at once
        kernel.gen(kernel.axiom(D, "D2"), _AnyStr("A"))

    class AnyShape(Shape):
        def __eq__(self, other):
            return True

        __hash__ = Shape.__hash__

    # an ⇒ that binds x in both arguments, taken apart by MP as x ⇒ x
    shifty = ("A", IMP, AnyShape(1, ((0,), (0,))), ("x",), (("b", 0), ("b", 0)))
    with pytest.raises(IllFormed):
        kernel.inst(kernel.axiom(D, "D2"), {("A", 0): Template((), shifty)})
    with pytest.raises(ShapeError):  # the same ⇒, its valence equal to every int
        Shape(_AnyInt(1), ((0,), (0,)))

    class Open(Signature):
        def get(self, name):  # declares every name, as ⇒
            return super().get(name) or super().get(IMP)

    with pytest.raises(NotLogicSignature):  # its theorems lifted into D
        Logic("D", Open(D.signature.decls), D.axioms)


@pytest.mark.parametrize("body", [Var("x", (5,)), Var(5), Var(""), Var("x", ("y",))])
def test_malformed_template_is_ill_formed(body):
    """A variable without a name, or an argument that is not a term, is
    an ill-formed template body, whether it occurs in the premise or not."""
    for label in ("D1", "D2"):
        with pytest.raises(IllFormed) as err:
            kernel.inst(kernel.axiom(D, label), {("A", 0): body})
        assert isinstance(err.value.__cause__, MalformedTerm)
    with pytest.raises(IllFormed) as err:
        check_proof(D, Subst(None, Substitution({("A", 0): body}), Ax("D2")))
    assert err.value.path == ()


class _NoneLike:
    """An object equal to None alone."""
    def __eq__(self, other):
        return other is None

    __hash__ = object.__hash__


def test_malformed_target_and_binder_are_ill_formed():
    d1 = kernel.axiom(D, "D1")
    for target in (imp(TOP, Var(5)), imp(Var("x", (5,)), TOP), all_("x", Var("")),
                   _NoneLike()):
        with pytest.raises(IllFormed):
            kernel.gen(d1, "x", target)
    for binder in (5, "", None, ClaimStr("x")):
        with pytest.raises(IllFormed):
            kernel.gen(d1, binder)
        with pytest.raises(IllFormed):
            check_proof(D, All(None, binder, Ax("D1")))
    with pytest.raises(MalformedTerm):
        Abs("∀", all_("x", TOP).shape, (5,), (TOP,))  # so no target hides one


def test_targets_match_modulo_alpha():
    """Each rule takes a target and a premise that differ from what it
    derived in their binder names only.  The target is checked, not kept:
    the theorem is the node the rule derived, with its own binder names."""
    d4 = kernel.axiom(D, "D4")  # (∀x. A[x]) ⇒ A[x]
    sigma = {("A", 1): Template(("y",), v("y"))}
    target = imp(all_("z", v("z")), v("x"))
    thm = kernel.inst(d4, sigma, target)
    derived = imp(all_("x", v("x")), v("x"))
    assert thm.node == kernel.inst(d4, sigma).node == encode(derived, [])
    assert thm.statement == derived and same_class(thm.node, encode(target, []))
    h = kernel.gen(kernel.axiom(D, "D1"), "y", all_("z", TOP))
    assert h.statement == all_("y", TOP)
    g = kernel.inst(kernel.axiom(D, "D2"), {("A", 0): all_("w", TOP)})
    assert kernel.mp(h, g).statement == imp(v("B"), all_("w", TOP))
    thm = kernel.mp(h, g, imp(v("B"), all_("u", TOP)))
    assert thm.node is g.node[4][1]
    assert thm.statement == imp(v("B"), all_("w", TOP))
    with pytest.raises(MpMismatch):
        kernel.mp(kernel.axiom(D, "D1"), g)


def test_a_target_equal_to_what_the_rule_derived_needs_no_node_check(monkeypatch):
    """A target equal to the derived node, even as another object, is taken
    without a node check, and the theorem keeps the derived node."""
    calls = []
    check = kernel._check_node
    monkeypatch.setattr(kernel, "_check_node", lambda *a: calls.append(a) or check(*a))
    d1 = kernel.axiom(D, "D1")
    target = encode(all_("y", TOP), [])
    derived = kernel.gen(d1, "y").node
    assert target == derived and target is not derived
    thm = kernel.gen(d1, "y", target)
    assert calls == [] and thm.node == derived and thm.node is not target


class _Str(str):
    pass


def _other(x):
    """x with each str in it, through tuples, replaced by an equal str that
    is another object: not the one a literal in the source gives, even for
    one character."""
    if type(x) is str:
        return str(_Str(x))
    return tuple(map(_other, x)) if type(x) is tuple else x


def test_rules_compare_tags_and_names_by_value():
    """Tags and names are compared by value, never by identity: the same
    derivation in a logic and in a copy whose axioms, and the derivation's
    inputs, hold other but equal strs gives equal nodes."""
    DT = D.extend("DT", axioms=[("T", imp(TOP, TOP))])
    copy = Logic("DT", DT.signature, [(label, _other(a)) for label, a in DT.axioms])

    def derive(logic, fresh):
        d2, d4 = kernel.axiom(logic, "D2"), kernel.axiom(logic, "D4")
        # A[x] := [y. ∀x. y ⇒ x]: lifted under ∀x, where its x is renamed
        body = fresh(encode(all_("x", imp(v("y"), v("x"))), [("y",)]))
        return [kernel.inst(d4, {("A", 1): Template(fresh(("y",)), body)}).node,
                kernel.inst(d4, {("B", 0): TOP}).node,
                kernel.gen(d2, "A").node,
                kernel.mp(kernel.axiom(logic, "D1"), kernel.axiom(logic, "T")).node,
                kernel.axiom(logic, fresh(d4.node)).node,
                nameless.free_in(d4.node)]

    assert derive(copy, _other) == derive(DT, lambda x: x)


def test_statement_is_built_when_read(monkeypatch):
    """The rules work on the nameless form: a statement that no target
    gave is decoded once, when it is first read, with the binder names a
    substitution into named syntax would choose."""
    built = []
    named = kernel._named
    monkeypatch.setattr(kernel, "_named",
                        lambda *args: built.append(args) or named(*args))
    # ∀x. A ⇒ B ⇒ A, then A := x renames the binder
    sub = Subst(None, Substitution({("A", 0): v("x")}), All(None, "x", Ax("D2")))
    thm = check_proof(D, All(None, "x", sub))
    assert built == []
    renamed = all_("x′", imp(v("x"), imp(v("B"), v("x"))))
    assert thm.statement == all_("x", renamed) and len(built) == 1
    assert thm.statement is thm.statement and len(built) == 1
    assert thm.node == encode(thm.statement, [])
    assert check_proof(D, sub).statement == apply_subst(
        {("A", 0): v("x")}, all_("x", D.axiom("D2")))


@pytest.mark.parametrize("levels, proves", [(450, True), (600, True), (2000, False)])
def test_deep_proof_tree_is_a_named_error(levels, proves):
    p = Ax("D1")
    for _ in range(levels):
        p = Subst(None, Substitution({("B", 0): TOP}), p)
    if proves:
        assert check_proof(D, p).statement == TOP
        return
    with pytest.raises(ProofError) as err:
        check_proof(D, p)
    assert err.value.code == "TooDeep"


def test_deep_term_in_a_shallow_proof_is_not_a_proof_error():
    # the CLI reports a RecursionError as terms too deep to process (exit 2)
    t = TOP
    for _ in range(2000):
        t = imp(t, TOP)
    with pytest.raises(RecursionError):
        check_proof(D, Ax(t))


# non-blank lines of kernel.py above its untrusted line plus those of
# nameless.py: the trusted base; lower it when the base shrinks
TRUSTED_LINES = 407


def _non_blank(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def test_only_the_rules_mint_theorems():
    """Only the rules construct a Theorem or use the kernel's token, and
    nothing below the untrusted line does either.  The rules rest on
    nameless.py alone: it imports nothing of abslog but shapes, errors and
    the value base, and the rules take every walker from it.  What the
    converter makes goes straight to the node check."""
    source = Path(kernel.__file__).read_text(encoding="utf-8")
    boundary = next(i for i, line in enumerate(source.splitlines(), 1)
                    if line.startswith("# --- untrusted below"))
    tree = ast.parse(source)
    minting = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "_KERNEL_TOKEN"
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Theorem"):
                assert node.lineno < boundary, ast.dump(node)
                minting.add(getattr(top, "name", "<module>"))
    assert minting == {"<module>", "Theorem", "axiom", "inst", "mp", "gen", "lift"}
    below = {getattr(top, "name", None) for top in tree.body if top.lineno > boundary}
    assert {"check_proof", "_fold", "TheoremDB", "Ax", "Lemma"} <= below
    # nameless.py imports only from .shape, .errors, .value and the standard
    # library, and defines each name the rules take from it
    base = Path(nameless.__file__).read_text(encoding="utf-8")
    base_tree = ast.parse(base)
    for node in ast.walk(base_tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module in ("shape", "errors", "value") if node.level
                    else node.module.split(".")[0] in sys.stdlib_module_names), node.module
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] in sys.stdlib_module_names
                       for a in node.names)
    defined = {t.id for top in base_tree.body if isinstance(top, ast.Assign)
               for t in top.targets} | {top.name for top in base_tree.body
                                         if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
    # above the line: error classes, walkers from nameless, and these others
    imported = {(top.module, a.asname or a.name) for top in tree.body
                if isinstance(top, ast.ImportFrom) and top.lineno < boundary
                for a in top.names}
    assert not [top for top in tree.body if isinstance(top, ast.Import)
                and top.lineno < boundary]
    assert all(issubclass(getattr(errors, name), errors.AbslogError)
               for module, name in imported if module == "errors")
    assert {name for module, name in imported if module == "nameless"} <= defined
    assert {(module, name) for module, name in imported
            if module not in ("errors", "nameless")} == {
        ("__future__", "annotations"), ("typing", "Union"),
        ("logics", "ALL"), ("logics", "IMP"), ("logics", "Logic"), ("logics", "is_extension"),
        ("shape", "BINDER_SHAPE"), ("shape", "BINOP_SHAPE"),
        ("subst", "_named"), ("term", "_convert"), ("term", "alpha_eq")}
    # the converter's every result is the node check's first argument,
    # _named builds only the statement a theorem shows, and alpha_eq is
    # imported for the tracer alone
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    uses = {name: [] for name in ("_convert", "_named", "alpha_eq")}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in uses:
                uses[node.id].append((top, node))
    assert uses["_convert"] and all(
        isinstance(parent[parent[n]], ast.Call) and parent[parent[n]].args[0] is parent[n]
        and getattr(parent[parent[n]].func, "id", None) == "_check_node"
        for _, n in uses["_convert"])
    assert [top.name for top, _ in uses["_named"]] == ["Theorem"]
    assert uses["alpha_eq"] == []
    assert "nameless.py" in ast.get_docstring(tree)
    # the trusted base, docstrings and imports included, within its budget
    above = "\n".join(source.splitlines()[:boundary - 1])
    assert _non_blank(above) + _non_blank(base) <= TRUSTED_LINES


# --- nodes from outside ----------------------------------------------------------

_Q = make_shape(2, [{0, 1}])
DQ = Logic("DQ", D.signature.extend([AbstractionDecl("q", _Q)]), D.axioms)
_X, _TOP_NODE = ("v", "x", ()), ("A", TRUE, TOP.shape, (), ())


class _ClaimsShape(Shape, metaclass=ClaimsEveryClass):
    """A shape equal to every shape, whose class claims to be Shape."""
    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = Shape.__hash__


def _tampered(term, **fields):
    """term with fields set past its constructor's check."""
    for name, value in fields.items():
        object.__setattr__(term, name, value)
    return term


# nodes, and two terms, that are not nameless terms over DQ, each named by
# its fault
_BAD_NODES = {
    "undeclared head": ("A", "nope", BINOP_SHAPE, (), (_X, _X)),
    "head not a name": ("A", 5, BINOP_SHAPE, (), (_X, _X)),
    "head unhashable": ("A", [IMP], BINOP_SHAPE, (), (_X, _X)),
    "wrong shape": ("A", IMP, BINDER_SHAPE, ("y",), (_X,)),
    "shape not a shape": ("A", IMP, "(0; {}, {})", (), (_X, _X)),
    "too few arguments": ("A", IMP, BINOP_SHAPE, (), (_X,)),
    "too many arguments": ("A", IMP, BINOP_SHAPE, (), (_X, _X, _X)),
    "too many hints": ("A", IMP, BINOP_SHAPE, ("y",), (_X, _X)),
    "too few hints": ("A", "∀", BINDER_SHAPE, (), (("b", 0),)),
    "hint not a name": ("A", "∀", BINDER_SHAPE, (5,), (("b", 0),)),
    "repeated hints": ("A", "q", _Q, ("y", "y"), (("b", 0),)),
    "dangling index": ("A", IMP, BINOP_SHAPE, (), (("b", 0), _X)),
    "dangling under a binder": ("A", "∀", BINDER_SHAPE, ("y",), (("b", 1),)),
    "negative index": ("A", "∀", BINDER_SHAPE, ("y",), (("b", -1),)),
    "index not an int": ("A", "∀", BINDER_SHAPE, ("y",), (("b", False),)),
    "bound node too long": ("A", "∀", BINDER_SHAPE, ("y",), (("b", 0, 0),)),
    "variable node too long": ("v", "x", (), ()),
    "variable name not a str": ("A", IMP, BINOP_SHAPE, (), (("v", 5, ()), _X)),
    "empty variable name": ("v", "f", (("v", "", ()),)),
    "sub-node not a tuple": ("A", IMP, BINOP_SHAPE, (), (["v", "x", ()], _X)),
    "sub-node a named term": ("A", IMP, BINOP_SHAPE, (), (Var("x"), _X)),
    "arguments not a tuple": ("A", IMP, BINOP_SHAPE, (), [_X, _X]),
    "variable arguments not a tuple": ("v", "f", [_X]),
    "hints not a tuple": ("A", "∀", BINDER_SHAPE, ["y"], (("b", 0),)),
    "too short": ("A", IMP, BINOP_SHAPE, ()),
    "unknown tag": ("B", "x", ()),
    "tag equal to every tag": (_AnyStr("A"), IMP, BINOP_SHAPE, (), (_X, _X)),
    "node claims a tuple": ClaimTuple(_X),
    "tag claims a str": (ClaimStr("v"), "x", ()),
    "index claims an int": ("A", "∀", BINDER_SHAPE, ("y",), (("b", ClaimInt(0)),)),
    "variable arguments claim a tuple": ("v", "f", ClaimTuple((_X,))),
    "head claims a str": ("A", ClaimStr(IMP), BINOP_SHAPE, (), (_X, _X)),
    "shape claims a Shape": ("A", IMP, _ClaimsShape(0, ((), ())), (), (_X, _X)),
    "hints claim a tuple": ("A", "∀", BINDER_SHAPE, ClaimTuple(("y",)), (("b", 0),)),
    "hint claims a str": ("A", "∀", BINDER_SHAPE, (ClaimStr("y"),), (("b", 0),)),
    "arguments claim a tuple": ("A", IMP, BINOP_SHAPE, (), ClaimTuple((_X, _X))),
    "sub-node claims a tuple": ("A", IMP, BINOP_SHAPE, (), (ClaimTuple(_X), _X)),
    "sub-node tag claims a str": ("A", IMP, BINOP_SHAPE, (), ((ClaimStr("v"), "x", ()), _X)),
    "sub-node name claims a str": ("A", IMP, BINOP_SHAPE, (), (("v", ClaimStr("x"), ()), _X)),
    "sub-node arguments claim a tuple": (
        "A", IMP, BINOP_SHAPE, (), (("v", "x", ClaimTuple()), _X)),
    "term with its shape changed": _tampered(imp(v("x"), v("x")), shape="nope"),
    "term with its binders changed": _tampered(all_("x", v("x")), binders=()),
    "empty": (),
}


@pytest.mark.parametrize("fault", sorted(_BAD_NODES))
def test_a_bad_node_is_ill_formed_at_every_entry(fault, monkeypatch):
    """A node from outside is checked against the signature before any
    rule uses it: as an axiom literal, as a template body, whether its
    variable occurs in the premise or not, and as a target that differs
    from what the rule derived.  So is the node a named term converts to:
    the kernel does not trust the converter, here made to return the bad
    node for one named term."""
    node = _BAD_NODES[fault]
    d1 = kernel.axiom(DQ, "D1")
    g = kernel.inst(kernel.axiom(DQ, "D2"), {("A", 0): TOP})
    named = imp(v("x"), v("x"))
    convert = kernel._convert
    monkeypatch.setattr(kernel, "_convert",
                        lambda t, frames: node if t is named else convert(t, frames))
    for bad in (node, named):
        with pytest.raises(IllFormed):
            kernel.axiom(DQ, bad)
        for label in ("D1", "D2"):
            with pytest.raises(IllFormed):
                kernel.inst(kernel.axiom(DQ, label), {("A", 0): Template((), bad)})
        for rule in (lambda: kernel.inst(d1, {}, bad), lambda: kernel.mp(d1, g, bad),
                     lambda: kernel.gen(d1, "y", bad)):
            with pytest.raises(IllFormed):
                rule()


def test_node_entry_counts_template_parameters_and_bound_names():
    d2 = kernel.axiom(DQ, "D2")  # A ⇒ B ⇒ A
    with pytest.raises(IllFormed):
        kernel.axiom(DQ, ["v", "x", ()])
    with pytest.raises(IllFormed):  # one parameter: index 1 dangles
        kernel.inst(d2, {("B", 1): Template(("p",), ("b", 1))})
    thm = kernel.inst(kernel.axiom(DQ, "D4"),  # (∀x. A[x]) ⇒ A[x]
                      {("A", 1): Template(("p",), ("v", "f", (("b", 0),)))})
    assert alpha_eq(thm.statement, imp(all_("x", v("f", v("x"))), v("f", v("x"))))
    assert kernel.axiom(DQ, D.axiom("D4")).statement == _named(D.axiom("D4"), [])


def test_a_node_target_that_does_not_match_is_the_rules_mismatch():
    """A well-formed node target that is not what the rule derived raises
    the rule's own mismatch; one that differs in binder names only is
    taken, and the theorem keeps the node the rule derived, so a target
    whose names would capture a free variable cannot rename the statement."""
    d1, d4 = kernel.axiom(DQ, "D1"), kernel.axiom(DQ, "D4")
    g = kernel.inst(kernel.axiom(DQ, "D2"), {("A", 0): TOP})  # ⊤ ⇒ B ⇒ ⊤
    wrong = ("A", IMP, BINOP_SHAPE, (), (_X, _X))
    with pytest.raises(SubstMismatch):
        kernel.inst(d1, {}, wrong)
    with pytest.raises(MpMismatch):
        kernel.mp(d1, g, wrong)
    with pytest.raises(AllMismatch):
        kernel.gen(d1, "y", wrong)
    with pytest.raises(NotAnAxiom):
        kernel.axiom(DQ, wrong)
    thm = kernel.gen(d1, "y", ("A", "∀", BINDER_SHAPE, ("z",), (_TOP_NODE,)))
    assert thm.node == ("A", "∀", BINDER_SHAPE, ("y",), (_TOP_NODE,))
    # ∀y. (∀x. A[x]) ⇒ A[x], with the outer hint x over the free x
    capture = ("A", "∀", BINDER_SHAPE, ("x",), kernel.gen(d4, "y").node[4])
    thm = kernel.gen(d4, "y", capture)
    assert free_vars(thm.statement) == {("A", 1), ("x", 0)}
    assert thm.node == encode(thm.statement, [])
    claim = encode(imp(v("B"), TOP), [])
    assert kernel.mp(d1, g, claim).node == claim
    assert kernel.inst(d1, {}, _TOP_NODE).statement == TOP


# --- the memoised fold -----------------------------------------------------------

def test_memo_hit_respects_the_lemma_logic_guard():
    db = TheoremDB()
    db.add("em", check_proof(K, Ax("K")))
    node = Lemma("em")
    assert alpha_eq(check_proof(P, node, db).statement, K.axiom("K"))  # P extends K
    with pytest.raises(UnknownLemma):
        check_proof(D, node, db)  # same node, same store, D does not extend K


def test_memo_hit_respects_the_logic_of_an_axiom():
    db = TheoremDB()
    node = Ax("K")
    check_proof(K, node, db)
    with pytest.raises(NotAnAxiom):
        check_proof(D, node, db)


def test_failing_node_fails_the_same_way_every_time():
    db = TheoremDB()
    good = Subst(None, Substitution({("A", 0): TOP}), Ax("D2"))
    bad = Mp(None, Ax("D1"), Subst(None, Substitution({}), Ax("E1")))
    tree = Mp(None, Mp(None, Ax("D1"), good), bad)
    for _ in range(2):
        with pytest.raises(NotAnAxiom) as e:
            check_proof(D, tree, db)
        assert e.value.code == "NotAnAxiom" and e.value.path == (1, 1, 0)


def test_rules_derive_an_absent_target():
    d2_top = Subst(None, Substitution({("A", 0): TOP}), Ax("D2"))
    assert alpha_eq(check_proof(D, d2_top).statement,
                    imp(TOP, imp(v("B"), TOP)))
    assert alpha_eq(check_proof(D, Mp(None, Ax("D1"), d2_top)).statement,
                    imp(v("B"), TOP))
    assert alpha_eq(check_proof(D, All(None, "y", d2_top)).statement,
                    all_("y", imp(TOP, imp(v("B"), TOP))))


def test_absent_target_still_needs_an_implication():
    with pytest.raises(NotAnImplication):
        check_proof(D, Mp(None, Ax("D1"), Ax("D1")))


def _chain(levels: int) -> str:
    """Each level cites the step before it twice, so the proof tree of the
    last step doubles in size per level."""
    lines = ["logic D", "", "theorem chain: true", "proof",
             "  x0: ax D1", "  d: ax D2"]
    for k in range(1, levels + 1):
        lines += [f"  i{k}: subst d {{ A := true, B := true }}",
                  f"  j{k}: mp x{k - 1} i{k}",
                  f"  x{k}: mp x{k - 1} j{k}"]
    lines[-1] += " ==> true"
    return "\n".join(lines + ["qed", ""])


@pytest.mark.parametrize("levels", [8, 67])
def test_shared_premise_chain_checks_in_linear_time(levels, monkeypatch):
    calls = []
    rule = kernel.inst

    def counting(thm, sigma, target=None):
        calls.append(thm)
        assert len(calls) <= levels, "a certified node was derived again"
        return rule(thm, sigma, target)

    monkeypatch.setattr(kernel, "inst", counting)
    tf = parse_theory(_chain(levels))
    assert len(tf.theorems[0].steps) == 3 * levels + 2
    assert check_theory(tf).passed
    assert len(calls) == levels


# --- soundness fuzz: random proof DAGs over K ---------------------------------------

BOOLEAN = boolean_model()


def _term(rnd, depth=2, bound=()):
    """A term over K whose free variables have arity at most 1."""
    kind = rnd.randrange(7 if depth > 0 else 2)
    sub = lambda: _term(rnd, depth - 1, bound)
    if kind == 0:
        return Var(rnd.choice(("A", "B", "x") + bound))
    if kind == 1:
        return TOP
    if kind == 2:
        return v("A", sub())
    if kind == 3:
        return imp(sub(), sub())
    if kind == 4:
        return eq(sub(), sub())
    if kind == 5:
        return neg(sub())
    return all_("y", _term(rnd, depth - 1, bound + ("y",)))


def _outcome(p, db=None):
    """The statement a node proves, or the code and path of its error."""
    try:
        return check_proof(K, p, db).statement
    except ProofError as e:
        return (e.code, e.path)


def _proved(outcome) -> bool:
    return not isinstance(outcome, tuple)


def _is_imp(outcome) -> bool:
    return _proved(outcome) and getattr(outcome, "name", None) == IMP


def _random_step(rnd, nodes, seen):
    """A new node over the earlier ones, as a function of its target, and
    the conclusion its rule derives (None where there is none)."""
    i = rnd.randrange(len(nodes))
    rule = rnd.choice(("ax", "subst", "subst", "mp", "mp", "all"))
    if rule == "ax":
        return Ax(rnd.choice(K.labels) if rnd.random() < 0.8 else _term(rnd)), None
    if rule == "subst":
        proved = [t for t in seen if _proved(t)]
        mapping = {}
        for name, arity in sorted(free_vars(seen[i])) if _proved(seen[i]) else ():
            params = ("p",) * arity
            if rnd.random() < 0.2:
                continue
            if not arity and rnd.random() < 0.7:
                body = rnd.choice(proved)  # so that MP premises come to match
            else:
                body = _term(rnd, 2, params)
            mapping[(name, arity)] = Template(params, body)
        sigma = Substitution(mapping)
        derived = apply_subst(sigma, seen[i]) if _proved(seen[i]) else None
        return lambda t: Subst(t, sigma, nodes[i]), derived
    if rule == "mp":
        # mostly an implication whose antecedent is proved, sometimes any node
        usable = [j for j, t in enumerate(seen) if _is_imp(t) and any(
            _proved(h) and alpha_eq(h, t.args[0]) for h in seen)]
        g = rnd.choice(usable) if usable and rnd.random() < 0.8 else i
        derived = seen[g].args[1] if _is_imp(seen[g]) else None
        matches = [j for j, t in enumerate(seen) if derived is not None
                   and _proved(t) and alpha_eq(t, seen[g].args[0])]
        h = rnd.choice(matches) if matches and rnd.random() < 0.8 else i
        return lambda t: Mp(t, nodes[h], nodes[g]), derived
    derived = all_("x", seen[i]) if _proved(seen[i]) else None
    return lambda t: All(t, "x", nodes[i]), derived


_TARGETS = {
    "absent": lambda rnd, derived: None,
    "derived": lambda rnd, derived: derived,
    "wrong": lambda rnd, derived: _term(rnd),
    "ill-formed": lambda rnd, derived: imp(_term(rnd), const("nope")),
}


def _random_dag(rnd, kinds):
    """Proof nodes over K, each new one over earlier ones with a target of
    a kind drawn from `kinds`, and the outcome of each checked alone."""
    nodes = [Ax(label) for label in ("D1", "D2", "D3")]
    nodes.append(Subst(None, Substitution({("A", 0): TOP}), nodes[1]))
    seen = [_outcome(p) for p in nodes]
    for _ in range(rnd.randint(6, 14)):
        node, derived = _random_step(rnd, nodes, seen)
        if not isinstance(node, Ax):
            node = node(_TARGETS[rnd.choice(kinds)](rnd, derived))
        nodes.append(node)
        seen.append(_outcome(node))
    return nodes, seen


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_kernel_mints_only_valid_statements(seed):
    """Random proof DAGs over K with shared sub-proofs: whatever the kernel
    certifies holds in the boolean model, and one shared theorem store
    gives every node the outcome it has when checked alone."""
    nodes, seen = _random_dag(random.Random(seed),
                              ("absent", "absent", "derived", "wrong"))
    for t in seen:
        if _proved(t):
            assert check_model(BOOLEAN, [t], arity_cap=1).passed, t
    db = TheoremDB()
    for order in (range(len(nodes)), reversed(range(len(nodes)))):
        for k in order:
            shared = _outcome(nodes[k], db)
            if _proved(seen[k]):
                assert _proved(shared) and alpha_eq(shared, seen[k])
            else:
                assert shared == seen[k]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fold_agrees_with_the_tree_walking_checker(seed):
    """Random proof DAGs over K, all checked against one theorem store:
    every node has the statement, or the error code, path and message,
    that the tree-walking checker in tests/oracles.py gives it.  Some
    targets are ill-formed, so the order of a node's checks shows."""
    nodes, _ = _random_dag(random.Random(seed),
                           ("absent", "derived", "wrong", "ill-formed"))

    def outcome(check):
        try:
            return check()
        except ProofError as e:
            return (e.code, e.path, e.message)

    db, memo = TheoremDB(), {}
    for order in (range(len(nodes)), reversed(range(len(nodes)))):
        for k in order:
            got = outcome(lambda: check_proof(K, nodes[k], db))
            want = outcome(lambda: check_proof_oracle(K, nodes[k], memo=memo))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.statement == want and got.logic is K


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_every_theorem_carries_the_nameless_form_of_its_statement(seed):
    """Random proof DAGs over K, checked against one theorem store and
    lifted into P: every theorem's node is exactly the hinted nameless
    form of its statement, renamed binders included."""
    nodes, _ = _random_dag(random.Random(seed),
                           ("absent", "absent", "derived", "wrong"))
    db = TheoremDB()
    for p in nodes:
        try:
            thm = check_proof(K, p, db)
        except ProofError:
            continue
        for t in (thm, kernel.lift(thm, P), kernel.gen(thm, "x")):
            assert t.node == encode(t.statement, [])
