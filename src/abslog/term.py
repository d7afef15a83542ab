"""Named terms: conversion to the nameless form, well-formedness and
α-equivalence.

The terms (`Var`, `Abs`), their nameless form and its one check
(`_check_node`) live in nameless.py, which with the rules of kernel.py is
the trusted base; this module re-exports its public names.  A term enters
the nameless form in one of two ways.  The parser (syntax.py) builds nodes
as it reads, with heads from its signature, resolving each name against
the binders in scope.  `encode` takes anything else: `_convert` works out
binder scope for a named term and leaves a node, or anything that is not
a term, in place; then the node check takes the whole result, or raises
the TermError of its first bad node in pre-order.  The converter checks
nothing, so the kernel trusts nothing it makes: it runs the node check on
the result itself.  `check_wellformed` is `encode` against a signature.
"""
from __future__ import annotations

from itertools import repeat

from .nameless import (Abs, DeBruijnTerm, Term, Var, _check_node, free_in, same_class,
                       strip_hints)
from .shape import Shape, Signature


def check_wellformed(t: Term | DeBruijnTerm, sig: Signature) -> DeBruijnTerm:
    """The nameless form of t; raise unless t is a term over sig."""
    return encode(t, [], sig)


def _lookup(name: str, frames: list[tuple[str, ...]]) -> int | None:
    idx = 0
    for fr in reversed(frames):
        for b in reversed(fr):
            if b == name:
                return idx
            idx += 1
    return None


def _convert(t, frames: list[tuple[str, ...]]) -> DeBruijnTerm:
    """The nameless form of a named term under the binder frames in scope
    (outermost first), unchecked: a node, or anything else that is neither
    a `Var` nor an `Abs`, is left in place for the node check to take or
    refuse, as are the fields of an `Abs` that no longer fit its shape, and
    a name that is not exactly a str binds nothing."""
    if type(t) is Var:
        if not t.args:
            k = _lookup(t.name, frames) if type(t.name) is str else None
            return ("v", t.name, ()) if k is None else ("b", k)
        # map, not a generator, calls _convert: one frame per level
        return ("v", t.name, tuple(map(_convert, t.args, repeat(frames))))
    if type(t) is not Abs:
        return t
    shape, binders, old = t.shape, t.binders, t.args
    if not (type(shape) is Shape and type(binders) is tuple and type(old) is tuple
            and len(binders) == shape.valence and len(old) == len(shape.binder_sets)):
        # fields changed past the constructor
        return ("A", t.name, shape, binders, old)
    args = []
    for p, a in zip(shape.binder_sets, old):
        if p:
            frames.append(tuple(binders[j] for j in p))
            args.append(_convert(a, frames))
            frames.pop()
        else:
            args.append(_convert(a, frames))
    return ("A", t.name, shape, binders, tuple(args))


def encode(t: Term | DeBruijnTerm, frames: list[tuple[str, ...]],
           sig: Signature | None = None) -> DeBruijnTerm:
    """Nameless form of t under the binder frames in scope (outermost
    first), a node being its own form.  Raise the TermError of the first
    node, in pre-order, that is not a term, over sig when given."""
    return _check_node(_convert(t, frames), sum(map(len, frames)), sig)


def to_debruijn(t: Term) -> DeBruijnTerm:
    """Nameless form of t with the hints left out: equal for α-equivalent
    terms."""
    return strip_hints(encode(t, []))


def alpha_eq(s: Term, t: Term) -> bool:
    return s is t or same_class(encode(s, []), encode(t, []))


def free_vars(t: Term) -> frozenset[tuple[str, int]]:
    """All (name, arity) pairs occurring free in t."""
    return frozenset(free_in(encode(t, [])))
