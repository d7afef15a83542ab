import re
import sys

import pytest

from abslog import kernel, nameless
from abslog import (
    Abs,
    Substitution,
    Template,
    Var,
    alpha_eq,
    apply_subst,
    canonical,
    free_vars,
    fresh_var,
    make_shape,
    resolve_template,
    signature,
)
from abslog.errors import ArityMismatch, BadSubstitution, DuplicateBinder
from abslog.logics import IMP, SIG_K, TRUE, all_, builtin_logic, const, eq, imp, v
from abslog.shape import BINOP_SHAPE
from abslog.nameless import _bind, _instantiate, _lift, _settle, _subst_node
from abslog.subst import _named, encode_template
from abslog.term import encode

from conftest import (FREE_POOL, ClaimInt, ClaimsEveryClass, ClaimStr, ClaimTuple,
                      random_signature, random_substitution, random_term)
from oracles import (alpha_oracle, bind_oracle, instantiate_oracle, lift_oracle,
                     rename_binders, settle_oracle, subst_node_oracle, subst_oracle)

AB_SIG = signature([("a", make_shape(1, [{0}])), ("b", make_shape(0, [(), ()]))])


def _ab(binder, x, y):
    inner = Abs("b", AB_SIG.get("b").shape, (), (x, y))
    return Abs("a", AB_SIG.get("a").shape, (binder,), (inner,))


def test_fresh_var():
    assert fresh_var({"x"}, "x") == "x′"
    assert fresh_var(set(), "y") == "y"
    assert fresh_var({"z", "z′"}, "z") == "z′′"


def test_template_invariants():
    with pytest.raises(DuplicateBinder):
        Template(("u", "u"), v("u"))
    with pytest.raises(ArityMismatch):
        Substitution({("A", 2): Template(("u",), v("u"))})


@pytest.mark.parametrize("mapping", [
    {("A", 0): 5},
    {"A": None},
    {("A", 0): "x"},
    {(1, 0): v("x")},
    {("A", -1): v("x")},
    {("A", 0, 0): v("x")},
    {ClaimTuple(("A", 0)): v("x")},
    {(ClaimStr("A"), 0): v("x")},
    {("A", ClaimInt(0)): v("x")},
], ids=["int-body", "bare-name-key", "str-body", "int-name", "negative-arity",
        "triple-key", "key-claims-a-tuple", "name-claims-a-str", "arity-claims-an-int"])
def test_malformed_substitution_is_a_named_error(mapping):
    (key,) = mapping
    d2 = kernel.axiom(builtin_logic("D"), "D2")
    for use in (Substitution,
                lambda m: apply_subst(m, v("A")),
                lambda m: kernel.inst(d2, m)):
        with pytest.raises(BadSubstitution, match=re.escape(repr(key))):
            use(mapping)
    with pytest.raises(BadSubstitution):
        Template(("x",), 5)


class _Binders(tuple):
    """A tuple of binder names, but not exactly a tuple."""


class _NotATerm(metaclass=ClaimsEveryClass):
    """Claims to be a tuple, and is neither a node nor a term."""


_NODE = ("v", "x", ())


@pytest.mark.parametrize("binders, body, error", [
    ((), 5, BadSubstitution),
    ((), ["v", "x", ()], BadSubstitution),
    ([], _NODE, BadSubstitution),
    (_Binders(), _NODE, BadSubstitution),
    (("",), _NODE, BadSubstitution),
    (("x", "x"), _NODE, DuplicateBinder),
    ((), _NotATerm(), BadSubstitution),
    (ClaimTuple(), _NODE, BadSubstitution),
    (ClaimTuple(("x",)), _NODE, BadSubstitution),
    ((ClaimStr("x"),), _NODE, BadSubstitution),
], ids=["int-body", "list-body", "list-binders", "tuple-subclass-binders",
        "empty-binder", "repeated-binder", "body-claims-a-tuple",
        "no-binders-claim-a-tuple", "binders-claim-a-tuple", "binder-claims-a-str"])
def test_template_checks_hold_beside_the_fast_path(binders, body, error):
    """A template with no binders and a node body, as the parser builds
    for `x := term`, passes at once; each other template is checked."""
    assert Template((), _NODE).body is _NODE
    with pytest.raises(error):
        Template(binders, body)


def test_capture_avoidance_renames_binder():
    t = _ab("y", v("x"), v("y"))
    sigma = Substitution({("x", 0): v("y")})
    got = apply_subst(sigma, t)
    want = _ab("z", v("y"), v("z"))
    captured = _ab("y", v("y"), v("y"))
    assert alpha_eq(got, want)
    assert not alpha_eq(got, captured)


def test_identity_substitution():
    t = _ab("y", v("x"), v("y"))
    assert alpha_eq(apply_subst(Substitution({}), t), t)


def test_template_substitution():
    sigma = Substitution({("A", 1): Template(("u",), imp(v("u"), v("u")))})
    got = apply_subst(sigma, v("A", v("x")))
    assert got == imp(v("x"), v("x"))


def test_resolve_template():
    assert resolve_template(Template(("x",), v("x")), [v("t")]) == v("t")
    assert resolve_template(Template(("x", "y"), v("x")), [v("s"), v("t")]) == v("s")
    # plugging y under a binder named y forces a rename
    tmpl = Template(("x",), all_("y", eq(v("x"), v("y"))))
    got = resolve_template(tmpl, [v("y")])
    assert alpha_eq(got, all_("z", eq(v("y"), v("z"))))
    with pytest.raises(ArityMismatch):
        resolve_template(tmpl, [v("s"), v("t")])


def test_independent_arities_in_domain():
    sigma = Substitution({
        ("x", 0): v("a"),
        ("x", 1): Template(("u",), imp(v("u"), v("x"))),
    })
    got = apply_subst(sigma, imp(v("x"), v("x", v("x"))))
    # the arity-0 x becomes a; x[x] resolves through the arity-1 template,
    # whose free x stays untouched
    assert alpha_eq(got, imp(v("a"), imp(v("a"), v("x"))))


def test_canonical_is_deterministic(rnd):
    for _ in range(30):
        t = random_term(rnd, SIG_K, depth=4)
        assert canonical(t) == canonical(t)
        assert alpha_eq(canonical(t), t)
        sigma = random_substitution(rnd, SIG_K, t)
        assert apply_subst(sigma, t) == apply_subst(sigma, t)
        # byte-equal output for alpha-variant inputs of the same hint names
        assert canonical(canonical(t)) == canonical(t)


def test_apply_matches_oracle(rnd):
    for _ in range(300):
        sig = random_signature(rnd)
        t = random_term(rnd, sig, depth=4)
        sigma = random_substitution(rnd, sig, t)
        got = apply_subst(sigma, t)
        want = subst_oracle(sigma, t)
        assert alpha_oracle(got, want), (t, dict(sigma.items()))


def test_alpha_stability(rnd):
    for _ in range(100):
        sig = random_signature(rnd)
        s = random_term(rnd, sig, depth=4)
        t = rename_binders(s)
        sigma = random_substitution(rnd, sig, s)
        assert alpha_eq(apply_subst(sigma, s), apply_subst(sigma, t))


def test_no_capture_of_template_frees(rnd):
    # map every arity-0 free variable (except x itself) to the free variable
    # x; since the binder pool also uses the name x, any capture bug would
    # swallow it, so x must stay free in the result
    checked = 0
    for _ in range(200):
        t = random_term(rnd, SIG_K, depth=4)
        mapping = {(n, a): Template((), v("x"))
                   for (n, a) in free_vars(t) if a == 0 and n != "x"}
        if not mapping:
            continue
        checked += 1
        got = apply_subst(Substitution(mapping), t)
        assert ("x", 0) in free_vars(got)
    assert checked > 50


def test_identity_template_substitution(rnd):
    for _ in range(50):
        t = random_term(rnd, SIG_K, depth=4)
        mapping = {}
        for name, arity in free_vars(t):
            binders = tuple(f"q{k}" for k in range(arity))
            mapping[(name, arity)] = Template(
                binders, Var(name, tuple(Var(b) for b in binders)))
        assert alpha_eq(apply_subst(Substitution(mapping), t), t)


def _subnodes(node):
    yield node
    if node[0] != "b":
        for a in node[-1]:
            yield from _subnodes(a)


def _fires_under(node, fires, depth):
    if fires(node, depth):
        return True
    if node[0] == "b":
        return False
    sets = node[2].binder_sets if node[0] == "A" else [()] * len(node[2])
    return any(_fires_under(a, fires, depth + len(p))
               for p, a in zip(sets, node[-1]))


def _assert_shares(old, new, fires, depth=0):
    """Walk a walker's input and output in step: each sub-node of `old` with
    no node under it on which the walker's leaf `fires` comes back as that
    very object."""
    if not _fires_under(old, fires, depth):
        assert new is old, old
    elif old[0] != "b" and not fires(old, depth):
        assert new[:2] == old[:2] and len(new[-1]) == len(old[-1])
        sets = old[2].binder_sets if old[0] == "A" else [()] * len(old[2])
        for p, a, b in zip(sets, old[-1], new[-1]):
            _assert_shares(a, b, fires, depth + len(p))


def _assert_settle_shares(old, new, want):
    """Each sub-node that settling leaves equal comes back as itself."""
    if want == old:
        assert new is old, old
    elif old[0] != "b":
        for a, b, c in zip(old[-1], new[-1], want[-1]):
            _assert_settle_shares(a, b, c)


def test_walkers_share_every_sub_node_they_leave_unchanged(rnd):
    # random signatures give binders binding one and two variables; the
    # binder pool shares x and y with the free pool, so nested binders
    # shadow each other and template bodies bring in frees that clash with
    # the hints they land under
    arities, renamed = set(), 0
    for _ in range(300):
        sig = random_signature(rnd)
        node = encode(random_term(rnd, sig, depth=4), [])
        sigma = random_substitution(rnd, sig, _named(node, []))
        enc = {key: encode_template(tmpl) for key, tmpl in sigma.items()}
        got = _subst_node(node, enc)
        assert got == subst_node_oracle(node, enc)
        _assert_shares(node, got, lambda n, d: (
            n[0] == "v" and (n[1], len(n[2])) in enc))
        for n in (node, got):
            want, settled = settle_oracle(n), _settle(n)
            assert settled == want
            _assert_settle_shares(n, settled, want)
            renamed += want != n
        name = rnd.choice(FREE_POOL)
        bound = _bind(node, name)
        assert bound == bind_oracle(node, name)
        _assert_shares(node, bound, lambda n, d: (
            n[0] == "v" and n[1] == name and not n[2]))
        subs = list(_subnodes(node))
        for (_, arity), body in enc.items():
            arities.add(arity)
            args = tuple(rnd.choice(subs) for _ in range(arity))
            plugged = _instantiate(body, args)
            assert plugged == instantiate_oracle(body, args)
            if not arity:
                assert plugged is body
            _assert_shares(body, plugged, lambda n, d: n[0] == "b" and n[1] >= d)
            k = rnd.randint(0, 2)
            lifted = _lift(body, k)
            assert lifted == lift_oracle(body, k)
            _assert_shares(body, lifted, lambda n, d: (
                k and n[0] == "b" and n[1] >= d))
    assert arities == {0, 1, 2} and renamed > 20


class _Str(str):
    """A name or tag that is a str, but not exactly one."""


# leaves `_settle` keeps without a call, as the full walk keeps them
_ODD_LEAVES = (("v", _Str("x"), ()), (_Str("v"), "x", ()), (_Str("b"), 0),
               ("v", "", ()), ("v", "x", []), ("v", "x", ""), ("b", 10 ** 6))


def _paths(node, path=()):
    yield path, node
    if node[0] != "b":
        for i, a in enumerate(node[-1]):
            yield from _paths(a, path + (i,))


def _put(node, path, new):
    """node with the sub-node at `path` replaced by `new`."""
    if not path:
        return new
    i, args = path[0], node[-1]
    return node[:-1] + (args[:i] + (_put(args[i], path[1:], new),) + args[i + 1:],)


def test_settle_keeps_odd_leaves_as_the_full_walk_does(rnd):
    """Random nodes with an odd leaf put in at each place below the root
    (a name or tag that is a str subclass, an empty name, arguments that
    are not a tuple, a bound index out of range) settle as the oracle
    settles them, and the leaf comes back as itself."""
    for _ in range(60):
        node = encode(random_term(rnd, random_signature(rnd), depth=3), [])
        for path, _ in _paths(node):
            for leaf in _ODD_LEAVES if path else ():
                m = _put(node, path, leaf)
                got = _settle(m)
                assert got == settle_oracle(m), m
                for i in path:
                    got = got[-1][i]
                assert got is leaf


def test_settle_makes_no_call_for_a_leaf(monkeypatch):
    """Below the root, `_settle` calls itself on every sub-node but a bound
    index or a node with no arguments."""
    calls = []
    full = nameless._settle
    monkeypatch.setattr(nameless, "_settle",
                        lambda node, *rest: calls.append(node) or full(node, *rest))
    x, y = v("x"), v("y")
    node = encode(all_("x", all_("y", imp(imp(x, v("A", v("B"))),
                                          imp(const(TRUE), y)))), [])
    assert ("b", 1) in [sub for _, sub in _paths(node)]
    assert full(node) is node
    subs = [sub for _, sub in _paths(node)][1:]
    assert calls == [sub for sub in subs if not (sub[0] == "b" or not sub[-1])]
    assert 0 < len(calls) < len(subs)


def test_unchanged_is_decided_by_identity():
    # comparing rebuilt children with `==` instead of `is` compares each
    # level of a chain down to the changed leaf: one call of the name's
    # __eq__ per level instead of one for the whole substitution
    calls = []

    class Name(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            calls.append(other)
            return str.__eq__(self, other)

    depth = 1600
    node = want = ("v", Name("A"), ())
    for i in range(depth):
        side = ("v", f"X{i}", ())
        node = ("A", IMP, BINOP_SHAPE, (), (side, node))
        want = ("A", IMP, BINOP_SHAPE, (), (side, ("v", "B", ())) if not i
                else (side, want))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * depth + 1000)
    try:
        got = _subst_node(node, {("A", 0): ("v", "B", ())})
        assert len(calls) <= 2
        assert got == want
        assert _settle(got) is got
    finally:
        sys.setrecursionlimit(limit)
