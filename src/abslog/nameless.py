"""The trusted base under the kernel's rules: the nameless form of terms,
its one check, α-equivalence and capture-avoiding substitution.  Named
terms are `Var` and `Abs`; the rules read nested tuples of three kinds:
  ("b", k)                         bound arity-0 occurrence, k counted from
                                   the innermost binder (within a frame,
                                   later binder indices are closer)
  ("v", name, args)                free occurrence; its arity is len(args)
  ("A", name, shape, hints, args)  abstraction application; hints are the
                                   binder names, so the form is lossless
A template [x0 ... xn-1. t] is its body under one outer frame of its
parameters: parameter i is the bound index n-1-i wherever no binder of t
encloses it.  Two terms are α-equivalent iff their forms agree with the
hints left out (`same_class`).

Every node from outside passes `_check_node` before a rule reads it.
Tags and names must be exactly `str` and shapes exactly `Shape`: a
subclass could read one way when checked and another when used.  Free
variables stay named, so substituting under a binder captures nothing;
`_settle` names each binder by its hint unless that would clash.  Each
walk returns a node itself, not a copy, where nothing under it changed.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from itertools import repeat
from types import MappingProxyType
from typing import Union

from .errors import (ArityMismatch, BadSubstitution, DuplicateBinder, KernelPrivilege,
                     MalformedTerm, UnknownAbstraction, ValenceMismatch)
from .shape import Shape, Signature
from .value import Value, _set

Term = Union["Var", "Abs"]
DeBruijnTerm = tuple


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


# --- the node check, α-equivalence and free variables ----------------------------

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


def _check_node(node, depth: int, sig: Signature | None) -> DeBruijnTerm:
    """node, if it is a nameless term under `depth` binders, over sig when
    given; else the TermError of its first bad sub-node, in pre-order."""
    tag = node[0] if type(node) is tuple and node and type(node[0]) is str else None
    if tag == "b" and len(node) == 2 and type(node[1]) is int:
        if not 0 <= node[1] < depth:
            raise MalformedTerm(f"bound index {node[1]} under {depth} binders")
        return node
    if tag == "v" and len(node) == 3 and type(node[2]) is tuple:
        if sig is not None and not (type(node[1]) is str and node[1]):
            raise MalformedTerm(f"variable name {node[1]!r} is not a name")
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


def free_in(node: DeBruijnTerm, out: set | None = None) -> set[tuple[str, int]]:
    """The (name, arity) of every ("v", name, args) node of a nameless term."""
    out = set() if out is None else out
    if node[0] == "v":
        out.add((node[1], len(node[2])))
    if node[0] != "b":  # args come last in "v" and "A" nodes
        for a in node[-1]:
            free_in(a, out)
    return out


# --- templates and substitutions ------------------------------------------------------

def fresh_var(avoid: Iterable[str], base: str) -> str:
    """First of base, base′, base″, ... not in avoid."""
    avoid = set(avoid)
    name = base
    while name in avoid:
        name += "′"
    return name


class Template(Value):
    """[x0 ... xn-1. body]; a body node is under one frame of the parameters.
    The kernel rests on its arity being the number of names in `binders`."""
    __slots__ = _fields = ("binders", "body")

    def __init__(self, binders: tuple[str, ...], body: Term | DeBruijnTerm):
        _set(self, "binders", binders)
        _set(self, "body", body)
        if type(binders) is tuple and not binders and type(body) is tuple:
            return  # no binders and a node body, as a parsed `x := term` has
        if not (type(binders) is tuple and all(type(b) is str and b for b in binders)):
            raise BadSubstitution(f"template binders {binders!r} are not names")
        if len(set(binders)) != len(binders):
            raise DuplicateBinder(f"template binders {binders} are not distinct")
        if not isinstance(body, (Var, Abs, tuple)):
            raise BadSubstitution(f"template body {body!r} is not a term")

    @property
    def arity(self) -> int:
        return len(self.binders)


class Substitution(Mapping):
    """Finite map from (name, arity) to a template of that arity.  The
    kernel rests on the checks made here: each key is exactly a (str, int)
    pair, each template exactly a `Template` (one of a subclass is rebuilt
    from its binders and body, a bare term becomes a template with no
    binders), and each template's arity is its key's.  Once built it cannot
    be changed: `mapping` is a read-only view, and setting or deleting an
    attribute raises `KernelPrivilege`."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[tuple[str, int], Template | Term]):
        out: dict[tuple[str, int], Template] = {}
        for key, tmpl in mapping.items():
            if not (type(key) is tuple and len(key) == 2 and type(key[0]) is str
                    and type(key[1]) is int and key[1] >= 0):
                raise BadSubstitution(f"key {key!r} is not a (name, arity) pair")
            if isinstance(tmpl, (Var, Abs)):
                tmpl = Template((), tmpl)
            elif not isinstance(tmpl, Template):
                raise BadSubstitution(f"{key!r} is mapped to {tmpl!r}, not a term")
            elif type(tmpl) is not Template:
                tmpl = Template(tmpl.binders, tmpl.body)
            if tmpl.arity != key[1]:
                raise ArityMismatch(
                    f"template for {key!r} has {tmpl.arity} binders")
            out[key] = tmpl
        object.__setattr__(self, "mapping", MappingProxyType(out))

    def __setattr__(self, *_):
        raise KernelPrivilege("a substitution cannot be changed once checked")

    __delattr__ = __setattr__

    def __reduce__(self):  # a copy is built, and so checked, again
        return Substitution, (dict(self.mapping),)

    def __getitem__(self, key):
        return self.mapping[key]

    def __iter__(self):
        return iter(self.mapping)

    def __len__(self):
        return len(self.mapping)

    def __repr__(self):
        return f"Substitution({dict(self.mapping)!r})"


# --- the substitution walkers ----------------------------------------------------------

def _rebuild(node: tuple, leaf: Callable[[tuple, int], tuple],
             depth: int = 0) -> tuple:
    """node with each "b" node, and each "v" node once its arguments are
    rebuilt, replaced by leaf(node, depth), depth being the number of
    binders between it and the root.  A node whose children all come back
    as the same objects is kept itself, so the result shares every sub-node
    the walk leaves unchanged."""
    tag = node[0]
    old = node[-1]
    if tag == "b" or not old:
        return node if tag == "A" else leaf(node, depth)
    new = None  # a list of the children once one has changed
    i = -1
    for p, a in zip(repeat(()) if tag == "v" else node[2].binder_sets, old):
        i += 1
        got = _rebuild(a, leaf, depth + len(p))
        if got is not a:
            if new is None:
                new = list(old)
            new[i] = got
    if tag == "v":
        return leaf(node if new is None else ("v", node[1], tuple(new)), depth)
    return node if new is None else ("A", node[1], node[2], node[3], tuple(new))


def _lift(node: tuple, k: int) -> tuple:
    """Add k to every bound index that escapes node."""
    return node if not k else _rebuild(node, lambda n, depth: (
        ("b", n[1] + k) if n[0] == "b" and n[1] >= depth else n))


def _instantiate(body: tuple, args: tuple) -> tuple:
    """Plug args into the outer frame of an encoded template body: under
    `depth` binders of the body, index k >= depth is parameter
    n-1-(k-depth)."""
    n = len(args)
    if not n:  # nothing to plug in: the node check rejects escaping indices
        return body
    return _rebuild(body, lambda node, depth: (
        _lift(args[n - 1 - (node[1] - depth)], depth)
        if node[0] == "b" and node[1] >= depth else node))


def _subst_node(node: tuple, enc_sigma: dict) -> tuple:
    """node with each variable in enc_sigma's domain replaced by its
    encoded template, instantiated at the occurrence's arguments."""
    def leaf(node: tuple, depth: int) -> tuple:
        body = enc_sigma.get((node[1], len(node[2]))) if node[0] == "v" else None
        return node if body is None else _instantiate(body, node[2])
    return _rebuild(node, leaf)


def _bind(node: tuple, name: str) -> tuple:
    """A closed node under one new outer binder that binds each free
    occurrence of the arity-0 variable `name`."""
    return _rebuild(node, lambda n, depth: (
        ("b", depth) if n[0] == "v" and n[1] == name and not n[2] else n))


def _settle(node: tuple, path: frozenset = frozenset()) -> tuple:
    """node with each binder's hint replaced by its name in named syntax:
    the hint, primed until it clashes with no free variable of its
    subterm and no name in `path`, the names of the enclosing binders.
    Byte-equal inputs give byte-equal outputs, and a node whose hints and
    children all stay the same objects is kept itself."""
    tag = node[0]
    old = node[-1]
    if tag == "b" or not old:
        return node
    hints = None
    if tag != "v":
        _, name, shape, hints, _ = node
        if shape.valence:
            avoid = {x for x, _ in free_in(node)} | path
            chosen = []
            for j in range(shape.valence):
                nm = fresh_var(avoid, hints[j])
                avoid.add(nm)
                chosen.append(nm)
            hints = hints if chosen == list(hints) else tuple(chosen)
            path = path | set(chosen)
    new = None  # a list of the children once one has changed
    i = -1
    for a in old:
        i += 1
        # a leaf, which the test at the top would hand back, is kept with
        # no call
        if a[0] == "b" or not a[-1]:
            continue
        got = _settle(a, path)
        if got is not a:
            if new is None:
                new = list(old)
            new[i] = got
    if tag == "v":
        return node if new is None else ("v", node[1], tuple(new))
    return (node if new is None and hints is node[3]
            else ("A", name, shape, hints, old if new is None else tuple(new)))
