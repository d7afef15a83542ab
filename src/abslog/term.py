"""Terms, their nameless form, well-formedness and α-equivalence.

A term is either a variable application ``x[t0, ..., tn-1]`` (a bare ``x``
is the arity-0 case) or an abstraction application
``(a x0 ... xm-1. t0 ... tn-1)``.  Variable identity is the pair
(name, arity): ``x`` and ``x[t]`` are different variables.  Abstraction
nodes embed the shape they were built against, so the binding structure
(which binder is active in which argument position) is part of the tree.

The core reads one nameless (de Bruijn) form, nested tuples of three kinds:
  ("b", k)                         bound arity-0 occurrence, k counted from
                                   the innermost binder (within a frame,
                                   later binder indices are closer)
  ("v", name, args)                free occurrence; its arity is len(args)
  ("A", name, shape, hints, args)  abstraction application; hints are the
                                   binder names
A template [x0 ... xn-1. t] is its body under one outer frame of its
parameters, so parameter i is the bound index n-1-i wherever no binder of
t encloses it.  The hints make the form lossless: the term a node names
(subst._named) is the term it encodes.  Two terms are α-equivalent iff
their forms agree with the hints left out (`same_class`).

A term enters the form in one of two ways.  The parser (syntax.py) builds
nodes as it reads, with heads from its signature, resolving each name
against the binders in scope.  `encode` takes anything else: it works out
binder scope for a named term, and checks a node as it is.  Given a
signature, it checks in the same walk, by one set of rules (`_check_abs`,
`_check_var`), that each head is declared with exactly its shape and has
one distinct binder name (hint) per bound variable and one argument per
position, that each bound index is below its binder depth and that each
variable is named; `check_wellformed` is that walk.  Node tags and names
(heads, hints, variables) must be exactly `str`, shapes exactly `Shape` and
terms exactly `Var` or `Abs`: a subclass could compare, or read, one way
when checked and another when used.
"""
from __future__ import annotations

from itertools import repeat
from typing import Union

from .errors import (
    ArityMismatch,
    DuplicateBinder,
    MalformedTerm,
    UnknownAbstraction,
    ValenceMismatch,
)
from .shape import Shape, Signature
from .value import Value, _set

Term = Union["Var", "Abs"]


class Var(Value):
    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: tuple[Term, ...] = ()):
        _set(self, "name", name)
        _set(self, "args", args)

    @property
    def arity(self) -> int:
        return len(self.args)


class Abs(Value):
    __slots__ = _fields = ("name", "shape", "binders", "args")

    def __init__(self, name: str, shape: Shape, binders: tuple[str, ...] = (),
                 args: tuple[Term, ...] = ()):
        _check_abs(name, shape, binders, args)
        _set(self, "name", name)
        _set(self, "shape", shape)
        _set(self, "binders", binders)
        _set(self, "args", args)


def check_wellformed(t: Term | DeBruijnTerm, sig: Signature) -> DeBruijnTerm:
    """The nameless form of t; raise unless t is a term over sig."""
    return encode(t, [], sig)


DeBruijnTerm = tuple


def _lookup(name: str, frames: list[tuple[str, ...]]) -> int | None:
    idx = 0
    for fr in reversed(frames):
        for b in reversed(fr):
            if b == name:
                return idx
            idx += 1
    return None


def _check_abs(name, shape: Shape, binders: tuple, args: tuple,
               sig: Signature | None = None) -> None:
    """Raise unless `binders` are distinct names, one per variable `shape`
    binds, `args` has one term per argument position and, given sig, sig
    declares `name` with exactly `shape`."""
    if type(shape) is not Shape:
        raise MalformedTerm(f"{name}: {shape!r} is not a shape")
    for b in binders:
        if not (type(b) is str and b):
            raise MalformedTerm(f"{name}: binder {b!r} is not a name")
    if len(set(binders)) != len(binders):
        raise DuplicateBinder(f"binders {binders} are not distinct")
    if len(binders) != shape.valence:
        raise ValenceMismatch(
            f"{name}: {len(binders)} binders for valence {shape.valence}")
    if len(args) != shape.arity:
        raise ArityMismatch(f"{name}: {len(args)} arguments for arity {shape.arity}")
    if sig is None:
        return
    decl = sig.get(name) if type(name) is str else None
    if decl is None:
        raise UnknownAbstraction(f"abstraction {name!r} is not declared")
    want = decl.shape
    if shape is want or shape == want:
        return
    if want.valence != shape.valence:
        raise ValenceMismatch(f"{name}: valence {shape.valence}, declared {want.valence}")
    if want.arity != shape.arity:
        raise ArityMismatch(f"{name}: arity {shape.arity}, declared {want.arity}")
    raise ValenceMismatch(f"{name}: binder sets {shape} differ from declared {want}")


def _check_var(name) -> None:
    if not (type(name) is str and name):
        raise MalformedTerm(f"variable name {name!r} is not a name")


def _check_node(node, depth: int, sig: Signature | None) -> DeBruijnTerm:
    """node, if it is a nameless term under `depth` binders, over sig when
    given; else the TermError of its first bad sub-node, in pre-order."""
    tag = node[0] if type(node) is tuple and node and type(node[0]) is str else None
    if tag == "b" and len(node) == 2 and type(node[1]) is int:
        if not 0 <= node[1] < depth:
            raise MalformedTerm(f"bound index {node[1]} under {depth} binders")
        return node
    if tag == "v" and len(node) == 3 and type(node[2]) is tuple:
        if sig is not None:
            _check_var(node[1])
        kids = zip(repeat(()), node[2])
    elif (tag == "A" and len(node) == 5 and type(node[3]) is tuple
          and type(node[4]) is tuple):
        _, name, shape, hints, args = node
        decl = sig.get(name) if sig is not None and type(name) is str else None
        # _check_abs passes a head declared with this very shape, valence 0,
        # no hints and one argument per position: only other heads need it
        if (decl is None or decl.shape is not shape or hints or shape.valence
                or len(args) != shape.arity):
            _check_abs(name, shape, hints, args, sig)
        kids = zip(shape.binder_sets, args)
    else:
        raise MalformedTerm(f"{node!r} is not a term")
    for p, a in kids:
        # a variable with a name and no arguments passes the call below,
        # with or without sig: it is checked here, with no frame
        if not (type(a) is tuple and len(a) == 3 and type(a[0]) is str
                and a[0] == "v" and type(a[1]) is str and a[1]
                and type(a[2]) is tuple and not a[2]):
            _check_node(a, depth + len(p), sig)
    return node


def encode(t: Term | DeBruijnTerm, frames: list[tuple[str, ...]],
           sig: Signature | None = None) -> DeBruijnTerm:
    """Nameless form of t under the binder frames in scope (outermost
    first).  Given a signature, first raise the TermError of the first
    node, in pre-order, that is not a term over it.  A t that is already a
    node is checked in place (`_check_node`) and is its own form."""
    if type(t) is Var:
        if sig is not None:
            _check_var(t.name)
        if not t.args:
            k = _lookup(t.name, frames)
            return ("v", t.name, ()) if k is None else ("b", k)
        # map, not a generator, calls encode: one frame per level
        return ("v", t.name, tuple(map(encode, t.args, repeat(frames), repeat(sig))))
    if type(t) is not Abs:
        if type(t) is tuple:
            return _check_node(t, sum(map(len, frames)), sig)
        raise MalformedTerm(f"{t!r} is not a term")
    if sig is not None:
        _check_abs(t.name, t.shape, t.binders, t.args, sig)
    args = []
    for p, a in zip(t.shape.binder_sets, t.args):
        if p:
            frames.append(tuple(t.binders[j] for j in p))
            args.append(encode(a, frames, sig))
            frames.pop()
        else:
            args.append(encode(a, frames, sig))
    return ("A", t.name, t.shape, t.binders, tuple(args))


def to_debruijn(t: Term) -> DeBruijnTerm:
    """Nameless form of t with the hints left out: equal for α-equivalent
    terms."""
    return strip_hints(encode(t, []))


def alpha_eq(s: Term, t: Term) -> bool:
    return s is t or same_class(encode(s, []), encode(t, []))


def strip_hints(node: DeBruijnTerm) -> DeBruijnTerm:
    """node with every binder hint left out."""
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
