"""Shapes, abstraction declarations and signatures.

A shape ``(m; p_0, ..., p_{n-1})`` has valence ``m`` (number of bindable
variables) and arity ``n``; ``p_i`` lists which binders are active in
argument position ``i``.  Degenerate shapes, where the union of the ``p_i``
does not cover ``{0..m-1}``, are rejected at construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterable

from .errors import DegenerateShape, DuplicateAbstraction, IndexOutOfRange


@dataclass(frozen=True)
class Shape:
    valence: int
    binder_sets: tuple[tuple[int, ...], ...]  # each sorted, duplicate-free

    @property
    def arity(self) -> int:
        return len(self.binder_sets)

    def __str__(self):
        sets = ", ".join("{%s}" % ", ".join(map(str, p)) for p in self.binder_sets)
        return f"({self.valence}; {sets})" if sets else f"({self.valence};)"


def make_shape(valence: int, binder_sets: Iterable[Iterable[int]]) -> Shape:
    """Validate and build a shape; binder sets are stored sorted."""
    if valence < 0:
        raise IndexOutOfRange(f"valence must be non-negative, got {valence}")
    sets = tuple(tuple(sorted(set(p))) for p in binder_sets)
    covered = set()
    for p in sets:
        for j in p:
            if j < 0 or j >= valence:
                raise IndexOutOfRange(f"binder index {j} out of range for valence {valence}")
        covered.update(p)
    if covered != set(range(valence)):
        missing = sorted(set(range(valence)) - covered)
        raise DegenerateShape(f"binder indices {missing} not bound by any argument position")
    return Shape(valence, sets)


@cache
def pure_shape(arity: int) -> Shape:
    """The shape (0; ∅, ..., ∅) of an operation that binds nothing."""
    return Shape(0, ((),) * arity)


# Shapes every logic signature must assign to the three core abstractions.
VALUE_SHAPE = pure_shape(0)
BINOP_SHAPE = pure_shape(2)
UNOP_SHAPE = pure_shape(1)
BINDER_SHAPE = make_shape(1, [(0,)])


@dataclass(frozen=True)
class AbstractionDecl:
    name: str
    shape: Shape


@dataclass(frozen=True)
class Signature:
    decls: tuple[AbstractionDecl, ...]
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_name = {}
        for d in self.decls:
            if d.name in by_name:
                raise DuplicateAbstraction(f"abstraction {d.name!r} declared twice")
            by_name[d.name] = d
        object.__setattr__(self, "_by_name", by_name)

    def get(self, name: str) -> AbstractionDecl | None:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def extend(self, decls: Iterable[AbstractionDecl]) -> "Signature":
        return Signature(self.decls + tuple(decls))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)


def signature(pairs: Iterable[tuple[str, Shape]]) -> Signature:
    return Signature(tuple(AbstractionDecl(n, s) for n, s in pairs))


def is_logic_signature(sig: Signature) -> bool:
    """True iff sig declares ⊤ as a value, ⇒ as a binary operation and ∀
    as a proper unary operator."""
    required = [("⊤", VALUE_SHAPE), ("⇒", BINOP_SHAPE), ("∀", BINDER_SHAPE)]
    for name, shape in required:
        d = sig.get(name)
        if d is None or d.shape != shape:
            return False
    return True


def extends_signature(child: Signature, parent: Signature) -> bool:
    """True iff every abstraction of parent appears in child with the same shape."""
    for d in parent.decls:
        c = child.get(d.name)
        if c is None or c.shape != d.shape:
            return False
    return True
