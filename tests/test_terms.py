from itertools import combinations, product

import pytest

from abslog import (
    Abs,
    Substitution,
    Template,
    Var,
    alpha_eq,
    check_wellformed,
    free_vars,
    make_shape,
    signature,
    to_debruijn,
)
from abslog.errors import (
    ArityMismatch,
    DuplicateBinder,
    TermError,
    UnknownAbstraction,
    ValenceMismatch,
)
from abslog.logics import SIG_D, SIG_K, all_, eq, imp, v
from abslog import nameless
from abslog.shape import AbstractionDecl, Shape, pure_shape
from abslog.nameless import _check_node
from abslog.term import encode

from conftest import random_signature, random_term
from oracles import (alpha_oracle, check_node_oracle, check_wellformed_oracle,
                     rename_binders)

INTEGRAL = make_shape(1, [set(), {0}])
AB_SIG = signature([("a", make_shape(1, [{0}])), ("b", make_shape(0, [(), ()]))])


def _ab(binder, x, y):
    # (a binder. (b. x y))
    inner = Abs("b", AB_SIG.get("b").shape, (), (x, y))
    return Abs("a", AB_SIG.get("a").shape, (binder,), (inner,))


def test_var_identity_is_name_and_arity():
    assert free_vars(Var("x", (Var("x"),))) == {("x", 1), ("x", 0)}


def test_binder_closes_body():
    assert free_vars(all_("x", v("x"))) == frozenset()
    assert free_vars(all_("x", v("A", v("x")))) == {("A", 1)}


def test_free_vars_respects_binder_sets():
    # integral binds its variable in the second argument only
    sig = signature([("integral", INTEGRAL)])
    t = Abs("integral", INTEGRAL, ("x",), (v("x"), v("x")))
    check_wellformed(t, sig)
    assert free_vars(t) == {("x", 0)}  # the first occurrence stays free


def test_wellformed_examples():
    sig = signature([("integral", INTEGRAL)])
    t = Abs("integral", INTEGRAL, ("x",), (v("D", v("x")), v("x")))
    check_wellformed(t, sig)
    check_wellformed(Var("x", (Var("x"),)), sig)  # variables need no decls


def test_wellformed_errors():
    with pytest.raises(ValenceMismatch):
        # (all x y. x) is unbuildable against the declared shape, so build
        # against a fake shape and check against the real signature
        fake = make_shape(2, [{0, 1}])
        check_wellformed(Abs("∀", fake, ("x", "y"), (v("x"),)), SIG_D)
    with pytest.raises(UnknownAbstraction):
        check_wellformed(Abs("nope", INTEGRAL, ("x",), (v("y"), v("x"))), SIG_D)
    with pytest.raises(ArityMismatch):
        fake = make_shape(0, [(), (), ()])
        check_wellformed(Abs("⇒", fake, (), (v("x"), v("y"), v("z"))), SIG_D)


def test_duplicate_binders_rejected():
    shape = make_shape(2, [{0, 1}])
    with pytest.raises(DuplicateBinder):
        Abs("q", shape, ("x", "x"), (v("x"),))


def test_counts_above_256_are_compared_by_value():
    """CPython keeps one object for each int up to 256 only: a term,
    template and substitution of 300 binders and arguments pass every
    check, and a head with 300 of each but other binder sets is refused
    for its binder sets."""
    names = tuple(f"x{i}" for i in range(300))
    wide = make_shape(300, [range(300)] + [()] * 299)
    sig = SIG_D.extend([AbstractionDecl("w", wide)])
    args = tuple(v("y") for _ in names)
    assert check_wellformed(Abs("w", wide, names, args), sig)[1] == "w"
    tmpl = Template(names, v("x0"))
    assert Substitution({("F", 300): tmpl})[("F", 300)] is tmpl
    other = make_shape(len(names), [()] * 299 + [range(300)])
    with pytest.raises(ValenceMismatch, match="binder sets"):
        check_wellformed(Abs("w", other, names, args), sig)


def test_alpha_binder_rename():
    s = _ab("y", v("x"), v("y"))
    t = _ab("z", v("x"), v("z"))
    assert alpha_eq(s, t)
    assert to_debruijn(s) == to_debruijn(t)


def test_alpha_distinguishes_free_names():
    assert to_debruijn(v("x")) != to_debruijn(v("y"))
    assert not alpha_eq(all_("x", v("x")), all_("x", v("y")))
    # and the heads of two abstractions of one shape
    assert not alpha_eq(imp(v("x"), v("y")), eq(v("x"), v("y")))


def test_alpha_shadowing():
    s = all_("x", all_("x", v("x")))
    t = all_("y", all_("z", v("z")))
    u = all_("y", all_("z", v("y")))
    assert alpha_eq(s, t)
    assert not alpha_eq(s, u)


def test_alpha_equivalence_relation(rnd):
    terms = [random_term(rnd, SIG_K, depth=3) for _ in range(60)]
    for t in terms:
        assert alpha_eq(t, t)
    for s in terms[:20]:
        t = rename_binders(s)
        assert alpha_eq(s, t) and alpha_eq(t, s)
        u = rename_binders(t)
        assert alpha_eq(s, u)


def test_alpha_preserves_free_vars(rnd):
    for _ in range(50):
        sig = random_signature(rnd)
        s = random_term(rnd, sig, depth=4)
        t = rename_binders(s)
        assert alpha_eq(s, t)
        assert free_vars(s) == free_vars(t)


def test_alpha_matches_rename_oracle(rnd):
    for _ in range(200):
        sig = random_signature(rnd)
        s = random_term(rnd, sig, depth=3)
        t = random_term(rnd, sig, depth=3)
        assert alpha_eq(s, t) == alpha_oracle(s, t)
        r = rename_binders(s)
        assert alpha_eq(s, r) and alpha_oracle(s, r)


# --- the checked encoder against the tree-walking checker -----------------------

def _nodes(t, path=()):
    yield path, t
    for i, a in enumerate(t.args):
        yield from _nodes(a, path + (i,))


def _replace_at(t, path, new):
    if not path:
        return new
    i = path[0]
    args = t.args[:i] + (_replace_at(t.args[i], path[1:], new),) + t.args[i + 1:]
    if isinstance(t, Var):
        return Var(t.name, args)
    return Abs(t.name, t.shape, t.binders, args)


def _other_shapes(shape):
    """Shapes of the same valence and arity with other binder sets."""
    subsets = [c for k in range(shape.valence + 1)
               for c in combinations(range(shape.valence), k)]
    out = []
    for sets in product(subsets, repeat=shape.arity):
        if set().union(*sets) == set(range(shape.valence)):
            other = make_shape(shape.valence, sets)
            if other != shape:
                out.append(other)
    return out


def _mutate(rnd, t):
    """t with one node made ill-formed: an undeclared abstraction, other
    binder sets, a variable name that is not a name, or an argument that
    is not a term."""
    nodes = list(_nodes(t))
    kinds = {
        "undeclared": [(p, n) for p, n in nodes if isinstance(n, Abs)],
        "binder-sets": [(p, n) for p, n in nodes
                        if isinstance(n, Abs) and _other_shapes(n.shape)],
        "variable-name": [(p, n) for p, n in nodes if isinstance(n, Var)],
        "not-a-term": [(p, n) for p, n in nodes if p],
    }
    kind = rnd.choice(sorted(k for k, found in kinds.items() if found))
    path, n = rnd.choice(kinds[kind])
    if kind == "undeclared":
        new = Abs("nope", n.shape, n.binders, n.args)
    elif kind == "binder-sets":
        new = Abs(n.name, rnd.choice(_other_shapes(n.shape)), n.binders, n.args)
    elif kind == "variable-name":
        new = Var(rnd.choice(["", 5]), n.args)
    else:
        new = rnd.choice([5, "x", None, (v("x"),)])
    return _replace_at(t, path, new)


def _outcome(check):
    try:
        return check()
    except TermError as e:
        return (type(e), e.code, e.message)


def test_checked_encoder_agrees_with_the_tree_walking_checker(rnd):
    """Random terms, each also mutated once, checked against the signature
    they were built over and against another one (so that several nodes
    can be ill-formed and the order of the checks shows): encoding with a
    signature raises the checker's error, or gives the unchecked form."""
    for _ in range(300):
        sig, other = random_signature(rnd), random_signature(rnd)
        t = random_term(rnd, sig)
        for term in (t, _mutate(rnd, t)):
            for s in (sig, other):
                want = _outcome(lambda: check_wellformed_oracle(term, s))
                got = _outcome(lambda: encode(term, [], s))
                assert got == (encode(term, []) if want is None else want), term


# --- the node check's fast path against the full walk ----------------------------

def _node_paths(node, path=()):
    yield path, node
    if node[0] != "b":
        for i, a in enumerate(node[-1]):
            yield from _node_paths(a, path + (i,))


def _put(node, path, new):
    """node with the sub-node at `path` replaced by `new`."""
    if not path:
        return new
    i, args = path[0], node[-1]
    return node[:-1] + (args[:i] + (_put(args[i], path[1:], new),) + args[i + 1:],)


def _head_mutants(node):
    """An abstraction node changed at its head: each either fails the full
    check or passes it without the fast path."""
    _, name, shape, hints, args = node
    leaf = ("v", "x", ())
    yield ("A", name, Shape(shape.valence, shape.binder_sets), hints, args)
    yield ("A", name, shape, hints + ("h",), args)
    yield ("A", name, shape, (), args)
    yield ("A", name, shape, hints, args + (leaf,))
    yield ("A", name, shape, hints, args[:-1])
    yield ("A", name, pure_shape(shape.arity + 1), hints, args + (leaf,))
    yield ("A", [name], shape, hints, args)
    yield ("A", 5, shape, hints, args)
    yield ("A", "nope", shape, hints, args)


class _Str(str):
    """A name or tag that is a str, but not exactly one."""


# sub-nodes that look like a variable with no arguments, each wrong in one
# way: the node check takes such a leaf without a call only when it is one
_ODD_LEAVES = (("v", _Str("x"), ()), (_Str("v"), "x", ()), ("v", "", ()),
               ("v", 5, ()), ("v", "x", []), ("v", "x", ""), ("v", "x", (), ()),
               ["v", "x", ()], ("b", "x", ()), ("A", "x", ()),
               ("v", "x", (("b", 10 ** 6),)))


def test_node_check_fast_path_agrees_with_the_full_walk(rnd):
    """`_check_node` skips `_check_abs` only at a head its signature
    declares with that very shape, of valence 0, with no hints and one
    argument per position, and checks a named variable with no arguments
    without a call.  On random nodes, and on mutants of each of their
    sub-nodes (a shape equal to the declared one but another object,
    hints added or dropped, an argument too many or too few, another
    declared name's kind of shape, a head that is not a string or not
    declared, a bound index out of range, a leaf with a name or tag that
    is a str subclass, an empty name or arguments that are not a tuple),
    with the signature and without one, it gives the full walk's node or
    its error class, code and message."""
    for _ in range(100):
        sig = rnd.choice([SIG_D, AB_SIG, random_signature(rnd)])
        node = encode(random_term(rnd, sig), [])
        for path, sub in _node_paths(node):
            mutants = [sub, ("b", 10 ** 6), *_ODD_LEAVES]
            if sub[0] == "A":
                mutants += _head_mutants(sub)
            for new in mutants:
                m = _put(node, path, new)
                for s in (sig, None):
                    want = _outcome(lambda: check_node_oracle(m, 0, s))
                    assert _outcome(lambda: _check_node(m, 0, s)) == want, m


def test_node_check_makes_no_call_for_a_variable_leaf(monkeypatch):
    """Below the root, `_check_node` calls itself on every sub-node but a
    variable with a name and no arguments."""
    calls = []
    full = nameless._check_node
    monkeypatch.setattr(nameless, "_check_node",
                        lambda node, *rest: calls.append(node) or full(node, *rest))
    x = v("x")
    node = encode(all_("x", imp(imp(x, v("A", v("B"))), imp(v("C"), x))), [])
    for sig in (SIG_D, None):
        calls.clear()
        assert full(node, 0, sig) is node
        subs = [sub for _, sub in _node_paths(node)][1:]
        assert calls == [sub for sub in subs if not (sub[0] == "v" and not sub[2])]
        assert 0 < len(calls) < len(subs)


def test_node_check_skips_the_full_check_at_declared_heads(monkeypatch):
    """A node of D's operators that binds nothing calls `_check_abs` only
    at its binding heads; so does a node of a head with 300 arguments."""
    calls = []
    full = nameless._check_abs
    monkeypatch.setattr(nameless, "_check_abs",
                        lambda name, *rest: calls.append(name) or full(name, *rest))
    x = v("x")
    t = all_("x", imp(imp(x, v("A", x)), imp(v("B"), v("A", x))))
    node = encode(t, [])
    calls.clear()  # building the term checked each head
    assert _check_node(node, 0, SIG_D) is node
    assert calls == ["∀"]
    wide = make_shape(0, [()] * 300)
    node = ("A", "w", wide, (), (("v", "x", ()),) * 300)
    assert _check_node(node, 0, SIG_D.extend([AbstractionDecl("w", wide)])) is node
    assert calls == ["∀"]
