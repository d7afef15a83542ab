"""Shapes, abstraction declarations and signatures.

A shape ``(m; p_0, ..., p_{n-1})`` has valence ``m`` (number of bindable
variables) and arity ``n``; ``p_i`` lists which binders are active in
argument position ``i``.  Degenerate shapes, where the union of the ``p_i``
does not cover ``{0..m-1}``, are rejected at construction.
"""
from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Iterable

from .errors import DegenerateShape, DuplicateAbstraction, IndexOutOfRange, ShapeError
from .value import Value, _set


class Shape(Value):
    __slots__ = _fields = ("valence", "binder_sets")

    def __init__(self, valence: int, binder_sets: tuple[tuple[int, ...], ...]):
        # only ints and tuples, so that comparing two shapes compares what
        # the term walkers read; binder sets sorted, in range, covering
        sets = binder_sets
        if not (type(valence) is int and type(sets) is tuple
                and all(type(p) is tuple and all(type(j) is int for j in p)
                        for p in sets)):
            raise ShapeError(
                f"shape {valence!r}; {sets!r} is not made of ints and tuples")
        if valence < 0:
            raise IndexOutOfRange(f"valence must be non-negative, got {valence}")
        for p in sets:
            for j in p:
                if j < 0 or j >= valence:
                    raise IndexOutOfRange(
                        f"binder index {j} out of range for valence {valence}")
            if list(p) != sorted(set(p)):
                raise ShapeError(f"binder set {p} is not sorted and duplicate-free")
        covered = {j for p in sets for j in p}
        if covered != set(range(valence)):
            missing = sorted(set(range(valence)) - covered)
            raise DegenerateShape(
                f"binder indices {missing} not bound by any argument position")
        _set(self, "valence", valence)
        _set(self, "binder_sets", binder_sets)  # each sorted, duplicate-free

    @property
    def arity(self) -> int:
        return len(self.binder_sets)

    def __str__(self):
        sets = ", ".join("{%s}" % ", ".join(map(str, p)) for p in self.binder_sets)
        return f"({self.valence}; {sets})" if sets else f"({self.valence};)"


def make_shape(valence: int, binder_sets: Iterable[Iterable[int]]) -> Shape:
    """Build a shape, which Shape checks; binder sets are stored sorted and
    without repeats."""
    return Shape(valence, tuple(tuple(sorted(set(p))) for p in binder_sets))


@cache
def pure_shape(arity: int) -> Shape:
    """The shape (0; ∅, ..., ∅) of an operation that binds nothing."""
    return Shape(0, ((),) * arity)


# Shapes every logic signature must assign to the three core abstractions.
VALUE_SHAPE = pure_shape(0)
BINOP_SHAPE = pure_shape(2)
UNOP_SHAPE = pure_shape(1)
BINDER_SHAPE = make_shape(1, [(0,)])


class AbstractionDecl(Value):
    __slots__ = _fields = ("name", "shape")

    def __init__(self, name: str, shape: Shape):
        self._init(name, shape)


class Signature(Value):
    _fields = ("decls",)

    def __init__(self, decls: tuple[AbstractionDecl, ...]):
        by_name = {}
        for d in decls:
            if not (type(d) is AbstractionDecl and type(d.name) is str
                    and type(d.shape) is Shape):
                raise ShapeError(f"{d!r} is not a declaration of a name and a shape")
            if d.name in by_name:
                raise DuplicateAbstraction(f"abstraction {d.name!r} declared twice")
            by_name[d.name] = d
        _set(self, "decls", decls)
        # read-only, as the kernel checks terms against it
        table = MappingProxyType(by_name)
        _set(self, "_by_name", table)
        if type(self).get is Signature.get:
            # the table's own lookup: no Python frame per name looked up
            _set(self, "get", table.get)

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
