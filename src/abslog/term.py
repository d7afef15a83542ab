"""Terms, well-formedness, free variables and α-equivalence.

A term is either a variable application ``x[t0, ..., tn-1]`` (a bare ``x``
is the arity-0 case) or an abstraction application
``(a x0 ... xm-1. t0 ... tn-1)``.  Variable identity is the pair
(name, arity): ``x`` and ``x[t]`` are different variables.

Abstraction nodes embed the shape they were built against, so the binding
structure (which binder is active in which argument position) is part of
the tree; ``check_wellformed`` verifies the embedded shapes against a
signature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    ArityMismatch,
    DuplicateBinder,
    MalformedTerm,
    UnknownAbstraction,
    ValenceMismatch,
)
from .shape import Shape, Signature

Term = Union["Var", "Abs"]


@dataclass(frozen=True)
class Var:
    name: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True)
class Abs:
    name: str
    shape: Shape
    binders: tuple[str, ...] = ()
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        for b in self.binders:
            if not (isinstance(b, str) and b):
                raise MalformedTerm(f"{self.name}: binder {b!r} is not a name")
        if len(set(self.binders)) != len(self.binders):
            raise DuplicateBinder(f"binders {self.binders} are not distinct")
        if len(self.binders) != self.shape.valence:
            raise ValenceMismatch(
                f"{self.name}: {len(self.binders)} binders for valence {self.shape.valence}")
        if len(self.args) != self.shape.arity:
            raise ArityMismatch(
                f"{self.name}: {len(self.args)} arguments for arity {self.shape.arity}")

    def frame(self, i: int) -> tuple[str, ...]:
        """Binder names active in argument position i, in binder-index order."""
        return tuple(self.binders[j] for j in self.shape.binder_sets[i])


def check_wellformed(t: Term, sig: Signature) -> None:
    """Raise unless t is a term whose variables have names and whose
    abstraction applications match their declarations."""
    if isinstance(t, Var):
        if not (isinstance(t.name, str) and t.name):
            raise MalformedTerm(f"variable name {t.name!r} is not a name")
        for a in t.args:
            check_wellformed(a, sig)
        return
    if not isinstance(t, Abs):
        raise MalformedTerm(f"{t!r} is not a term")
    decl = sig.get(t.name)
    if decl is None:
        raise UnknownAbstraction(f"abstraction {t.name!r} is not declared")
    if decl.shape.valence != t.shape.valence:
        raise ValenceMismatch(
            f"{t.name}: valence {t.shape.valence}, declared {decl.shape.valence}")
    if decl.shape.arity != t.shape.arity:
        raise ArityMismatch(
            f"{t.name}: arity {t.shape.arity}, declared {decl.shape.arity}")
    if decl.shape != t.shape:
        # same valence/arity but different binding structure
        raise ValenceMismatch(
            f"{t.name}: binder sets {t.shape} differ from declared {decl.shape}")
    for a in t.args:
        check_wellformed(a, sig)


# --- nameless form ----------------------------------------------------------
#
# The one nameless (de Bruijn) encoding, and `encode` the only code that
# works out which binder an occurrence refers to.  α-equality, substitution
# (subst.py), free variables and evaluation (algebra.py) all read this form.
# As nested tuples, of three kinds:
#   ("b", k)                         bound arity-0 occurrence, k counted from
#                                    the innermost binder (within a frame,
#                                    later binder indices are closer)
#   ("v", name, args)                free occurrence, args encoded
#                                    recursively; its arity is len(args)
#   ("A", name, shape, hints, args)  abstraction application; hints are the
#                                    binder names, or () when left out
#
# A template [x0 ... xn-1. t] is its body encoded under one outer frame of
# its parameters, so parameter i is the bound index n-1-i wherever no
# binder of t encloses it.
#
# With the hints left out, two terms are α-equivalent iff their encodings
# are equal.  Substitution keeps them, so that decoding back to named syntax
# can reuse the original binder names wherever no renaming is forced.

DeBruijnTerm = tuple


def to_debruijn(t: Term) -> DeBruijnTerm:
    return encode(t, [], False)


def _lookup(name: str, frames: list[tuple[str, ...]]) -> int | None:
    idx = 0
    for fr in reversed(frames):
        for b in reversed(fr):
            if b == name:
                return idx
            idx += 1
    return None


def encode(t: Term, frames: list[tuple[str, ...]],
           hints: bool = True) -> DeBruijnTerm:
    """Nameless form of t under the binder frames in scope (outermost
    first); hints=False leaves the binder names out."""
    if isinstance(t, Var):
        if t.arity == 0:
            k = _lookup(t.name, frames)
            if k is not None:
                return ("b", k)
            return ("v", t.name, ())
        return ("v", t.name, tuple(encode(a, frames, hints) for a in t.args))
    if not isinstance(t, Abs):
        raise MalformedTerm(f"{t!r} is not a term")
    args = []
    for i, a in enumerate(t.args):
        fr = t.frame(i)
        if fr:
            frames.append(fr)
            args.append(encode(a, frames, hints))
            frames.pop()
        else:
            args.append(encode(a, frames, hints))
    return ("A", t.name, t.shape, t.binders if hints else (), tuple(args))


def alpha_eq(s: Term, t: Term) -> bool:
    return s is t or to_debruijn(s) == to_debruijn(t)


def strip_hints(node: DeBruijnTerm) -> DeBruijnTerm:
    """node with every binder hint left out: to_debruijn of its term."""
    tag = node[0]
    if tag == "b":
        return node
    if tag == "v":
        return node if not node[2] else (
            "v", node[1], tuple(strip_hints(a) for a in node[2]))
    return ("A", node[1], node[2], (), tuple(strip_hints(a) for a in node[4]))


def same_class(m: DeBruijnTerm, n: DeBruijnTerm) -> bool:
    """Whether two nameless forms are of α-equivalent terms: equal once
    their binder hints are left out."""
    return m == n or strip_hints(m) == strip_hints(n)


def free_vars(t: Term) -> frozenset[tuple[str, int]]:
    """All (name, arity) pairs occurring free in t."""
    return frozenset(free_in(encode(t, [])))


def free_in(node: DeBruijnTerm, out: set | None = None) -> set[tuple[str, int]]:
    """The (name, arity) of every ("v", name, args) node of a nameless term."""
    out = set() if out is None else out
    if node[0] == "v":
        out.add((node[1], len(node[2])))
    if node[0] != "b":  # args come last in "v" and "A" nodes
        for a in node[-1]:
            free_in(a, out)
    return out
