import re

import pytest

from abslog import kernel
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
from abslog.logics import SIG_K, all_, builtin_logic, eq, imp, v

from conftest import random_signature, random_substitution, random_term
from oracles import alpha_oracle, rename_binders, subst_oracle

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
], ids=["int-body", "bare-name-key", "str-body", "int-name", "negative-arity",
        "triple-key"])
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
