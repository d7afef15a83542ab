"""Templates, substitutions and capture-avoiding application.

Substitution is implemented on the nameless form described in term.py,
with binder names kept as hints.  A template is encoded as its body under
one outer frame of its parameters, so applying it is de Bruijn
instantiation of that frame.  Free variables stay named there, so
inserting a template body under a binder can never capture anything.  The
result is converted back to named syntax in two steps: `_settle` gives
each binder its name, the hint unless it would clash, so byte-equal
inputs give byte-equal outputs, and `_named` builds the term.  Each walk
returns a node itself, not a copy, where nothing under it changed, so a
result shares every sub-node the substitution leaves unchanged.  The
kernel keeps settled nodes and builds a term only when a statement is read.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from itertools import repeat
from types import MappingProxyType

from .errors import ArityMismatch, BadSubstitution, DuplicateBinder, KernelPrivilege
from .shape import Signature
from .term import Abs, DeBruijnTerm, Term, Var, encode, free_in
from .value import Value, _set


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
    if not n:  # nothing to plug in: encode_template rejects escaping indices
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
