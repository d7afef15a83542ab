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

    @property
    def occ(self) -> tuple[str, int]:
        return (self.name, self.arity)


@dataclass(frozen=True)
class Abs:
    name: str
    shape: Shape
    binders: tuple[str, ...] = ()
    args: tuple[Term, ...] = ()

    def __post_init__(self):
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
    """Raise unless every abstraction application matches its declaration."""
    if isinstance(t, Var):
        for a in t.args:
            check_wellformed(a, sig)
        return
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


def free_vars(t: Term) -> frozenset[tuple[str, int]]:
    """All (name, arity) pairs occurring free in t.

    Only arity-0 occurrences can be bound, and only in argument positions
    whose binder set covers them.
    """
    out: set[tuple[str, int]] = set()
    _free(t, [], out)
    return frozenset(out)


def _free(t: Term, frames: list[tuple[str, ...]], out: set) -> None:
    if isinstance(t, Var):
        if t.arity == 0:
            if not any(t.name in fr for fr in frames):
                out.add((t.name, 0))
        else:
            out.add((t.name, t.arity))
            for a in t.args:
                _free(a, frames, out)
    else:
        for i, a in enumerate(t.args):
            fr = t.frame(i)
            if fr:
                frames.append(fr)
                _free(a, frames, out)
                frames.pop()
            else:
                _free(a, frames, out)


# --- nameless form ----------------------------------------------------------
#
# The one nameless (de Bruijn) encoding, as nested tuples:
#   ("b", k)                         bound arity-0 occurrence, k counted from
#                                    the innermost binder (within a frame,
#                                    later binder indices are closer)
#   ("s", i)                         template parameter i (used by subst.py)
#   ("v", name, args)                free occurrence, args encoded
#                                    recursively; its arity is len(args)
#   ("A", name, shape, hints, args)  abstraction application; hints are the
#                                    binder names, or () when left out
#
# With the hints left out, two terms are α-equivalent iff their encodings
# are equal.  Substitution keeps them, so that decoding back to named syntax
# can reuse the original binder names wherever no renaming is forced.

DeBruijnTerm = tuple


def to_debruijn(t: Term) -> DeBruijnTerm:
    return encode(t, [], (), False)


def _lookup(name: str, frames: list[tuple[str, ...]]) -> int | None:
    idx = 0
    for fr in reversed(frames):
        for b in reversed(fr):
            if b == name:
                return idx
            idx += 1
    return None


def encode(t: Term, frames: list[tuple[str, ...]], slots: tuple[str, ...] = (),
           hints: bool = True) -> DeBruijnTerm:
    """Nameless form of t under the binder frames in scope (outermost
    first).  Unbound arity-0 variables named in slots become ("s", i);
    hints=False leaves the binder names out."""
    if isinstance(t, Var):
        if t.arity == 0:
            k = _lookup(t.name, frames)
            if k is not None:
                return ("b", k)
            if t.name in slots:
                return ("s", slots.index(t.name))
            return ("v", t.name, ())
        return ("v", t.name, tuple(encode(a, frames, slots, hints) for a in t.args))
    args = []
    for i, a in enumerate(t.args):
        fr = t.frame(i)
        if fr:
            frames.append(fr)
            args.append(encode(a, frames, slots, hints))
            frames.pop()
        else:
            args.append(encode(a, frames, slots, hints))
    return ("A", t.name, t.shape, t.binders if hints else (), tuple(args))


def alpha_eq(s: Term, t: Term) -> bool:
    return s is t or to_debruijn(s) == to_debruijn(t)
