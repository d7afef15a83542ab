"""Hypothesis-driven properties complementing the seeded random tests."""
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from abslog import (
    Abs,
    Var,
    alpha_eq,
    apply_subst,
    canonical,
    free_vars,
    make_shape,
    parse_term,
    print_term,
    to_debruijn,
)
from abslog.errors import ShapeError
from abslog.logics import AND, SIG_K, all_, eq, imp, neg, op2

BINDERS = st.sampled_from(("x", "y", "z", "u"))
FREES = st.sampled_from(("A", "B", "x", "y"))


@st.composite
def terms(draw, depth=4):
    """Well-formed terms over the classical signature."""
    if depth <= 0 or draw(st.booleans()):
        return Var(draw(FREES))
    kind = draw(st.integers(0, 5))
    sub = terms(depth - 1)
    if kind == 0:
        return Var(draw(FREES), (draw(sub),))
    if kind == 1:
        return all_(draw(BINDERS), draw(sub))
    if kind == 2:
        return imp(draw(sub), draw(sub))
    if kind == 3:
        return op2(AND, draw(sub), draw(sub))
    if kind == 4:
        return eq(draw(sub), draw(sub))
    return neg(draw(sub))


@settings(max_examples=300, deadline=None)
@given(terms())
def test_print_parse_inverse(t):
    assert parse_term(print_term(t), SIG_K) == t
    assert parse_term(print_term(t, unicode=True), SIG_K) == t


@settings(max_examples=300, deadline=None)
@given(terms(), BINDERS, BINDERS)
def test_alpha_eq_invariant_under_uniform_rename(t, old, new):
    renamed = _rename_binder(t, old, new)
    if renamed is not None:
        assert alpha_eq(t, renamed)
        assert to_debruijn(t) == to_debruijn(renamed)


@settings(max_examples=300, deadline=None)
@given(terms())
def test_binder_names_survive_when_no_rename_is_forced(t):
    u = _fresh_binders(t)
    assert alpha_eq(t, u)
    assert canonical(u) == u
    assert apply_subst({}, u) == u


def _fresh_binders(t):
    """α-rename t so that every binder has its own name, b1, b2, ...,
    which is free nowhere in the term."""
    names = (f"b{i}" for i in count(1))

    def walk(s, env):
        if isinstance(s, Var):
            if not s.args and s.name in env:
                return Var(env[s.name])
            return Var(s.name, tuple(walk(a, env) for a in s.args))
        binders = tuple(next(names) for _ in s.binders)
        args = []
        for i, a in enumerate(s.args):
            inner = dict(env)
            inner.update((s.binders[j], binders[j]) for j in s.shape.binder_sets[i])
            args.append(walk(a, inner))
        return Abs(s.name, s.shape, binders, tuple(args))

    return walk(t, {})


def _rename_binder(t, old, new):
    """Rename every binder called old to new; None when unsafe (the new name
    is already in play, bound or free, anywhere in the term)."""
    if (new, 0) in free_vars(t) or _mentions_binder(t, new):
        return None

    def walk(s):
        if isinstance(s, Var):
            return Var(s.name, tuple(walk(a) for a in s.args))
        binders = tuple(new if b == old else b for b in s.binders)
        args = []
        for i, a in enumerate(s.args):
            covered = {s.binders[j] for j in s.shape.binder_sets[i]}
            if old in covered:
                a = _substitute_name(a, old, new)
            args.append(walk(a))
        return Abs(s.name, s.shape, binders, tuple(args))

    return walk(t)


def _mentions_binder(t, name):
    if isinstance(t, Var):
        return any(_mentions_binder(a, name) for a in t.args)
    return name in t.binders or any(_mentions_binder(a, name) for a in t.args)


def _substitute_name(t, old, new):
    if isinstance(t, Var):
        name = new if t.name == old and not t.args else t.name
        return Var(name, tuple(_substitute_name(a, old, new) for a in t.args))
    if old in t.binders:
        return t  # shadowed below this point
    return Abs(t.name, t.shape, t.binders,
               tuple(_substitute_name(a, old, new) for a in t.args))


@settings(max_examples=300, deadline=None)
@given(terms())
def test_canonical_is_idempotent_and_alpha_stable(t):
    c = canonical(t)
    assert alpha_eq(c, t)
    assert canonical(c) == c


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_make_shape_totality(valence, arity, data):
    sets = [data.draw(st.sets(st.integers(0, valence - 1))) if valence else set()
            for _ in range(arity)]
    covered = set().union(*sets) if sets else set()
    if arity == 0 and valence > 0 or covered != set(range(valence)):
        try:
            make_shape(valence, sets)
        except ShapeError:
            return
        raise AssertionError("degenerate shape accepted")
    shape = make_shape(valence, sets)
    assert shape.valence == valence and shape.arity == arity
