"""Capture-avoiding substitution on named terms, and named syntax for a
nameless node.

Templates, substitutions and the walkers that substitute into the
nameless form live in nameless.py, which with the rules of kernel.py is
the trusted base; this module re-exports its public names.  `apply_subst`, `resolve_template` and
`canonical` encode their inputs (term.encode), substitute and convert the
result back to named syntax in two steps: `_settle` gives each binder its
name, the hint unless it would clash, and `_named` builds the term.  The
kernel keeps settled nodes and builds a term only when a statement is
read.
"""
from __future__ import annotations

from collections.abc import Mapping

from .errors import ArityMismatch
from .nameless import (Abs, DeBruijnTerm, Substitution, Template, Term, Var, _instantiate,
                       _settle, _subst_node)
from .nameless import fresh_var  # noqa: F401  (re-exported)
from .shape import Signature
from .term import encode


def _named(node: tuple, frames: list) -> Term:
    """The term of a settled node, its hints as binder names."""
    tag = node[0]
    if tag == "b":  # the k-th binder name counted from the innermost
        return Var([b for fr in frames for b in fr][-1 - node[1]])
    if tag == "v":
        return Var(node[1], tuple(_named(a, frames) for a in node[2]))
    _, name, shape, hints, args = node
    new_args = []
    for p, a in zip(shape.binder_sets, args):
        if p:
            frames.append(tuple(hints[j] for j in p))
            new_args.append(_named(a, frames))
            frames.pop()
        else:
            new_args.append(_named(a, frames))
    return Abs(name, shape, hints, tuple(new_args))


def _decode(node: tuple) -> Term:
    """Named syntax for a closed nameless term, hints kept unless they
    clash."""
    return _named(_settle(node), [])


def encode_template(tmpl: Template, sig: Signature | None = None) -> DeBruijnTerm:
    """Nameless form of tmpl: its body under one frame of its parameters,
    checked against sig when given (term.encode)."""
    return encode(tmpl.body, [tmpl.binders], sig)


def apply_subst(sigma: Substitution | Mapping, t: Term) -> Term:
    """Capture-avoiding substitution; result is a canonical representative
    of the α-class of the substituted term."""
    if not isinstance(sigma, Substitution):
        sigma = Substitution(sigma)
    node = _subst_node(encode(t, []),
                       {key: encode_template(tmpl) for key, tmpl in sigma.items()})
    return _decode(node)


def resolve_template(tmpl: Template, args: list[Term] | tuple[Term, ...]) -> Term:
    """Apply an n-ary template to n argument terms, capture-avoidingly."""
    if len(args) != tmpl.arity:
        raise ArityMismatch(
            f"template of arity {tmpl.arity} applied to {len(args)} arguments")
    node = _instantiate(encode_template(tmpl), tuple(encode(a, []) for a in args))
    return _decode(node)


def canonical(t: Term) -> Term:
    """Deterministic representative of t's α-class (binder hints kept when
    no renaming is forced)."""
    return _decode(encode(t, []))
