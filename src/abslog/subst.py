"""Templates, substitutions and capture-avoiding application.

Substitution is implemented on the nameless form described in term.py,
with binder names kept as hints.  A template is encoded as its body under
one outer frame of its parameters, so applying it is de Bruijn
instantiation of that frame.  Free variables stay named there, so
inserting a template body under a binder can never capture anything.  The
result is converted back to named syntax with a deterministic renaming
scheme that keeps a hint unless it would clash, so byte-equal inputs give
byte-equal outputs.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import ArityMismatch, BadSubstitution, DuplicateBinder
from .term import Abs, DeBruijnTerm, Term, Var, encode, free_in


def fresh_var(avoid: Iterable[str], base: str) -> str:
    """First of base, base′, base″, ... not in avoid."""
    avoid = set(avoid)
    name = base
    while name in avoid:
        name += "′"
    return name


@dataclass(frozen=True)
class Template:
    binders: tuple[str, ...]
    body: Term

    def __post_init__(self):
        if len(set(self.binders)) != len(self.binders):
            raise DuplicateBinder(f"template binders {self.binders} are not distinct")
        if not isinstance(self.body, (Var, Abs)):
            raise BadSubstitution(f"template body {self.body!r} is not a term")

    @property
    def arity(self) -> int:
        return len(self.binders)


class Substitution(Mapping):
    """Finite map from (name, arity) to a template of that arity, read-only
    once built."""

    def __init__(self, mapping: Mapping[tuple[str, int], Template | Term]):
        out: dict[tuple[str, int], Template] = {}
        for key, tmpl in mapping.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and isinstance(key[0], str)
                    and isinstance(key[1], int) and key[1] >= 0):
                raise BadSubstitution(f"key {key!r} is not a (name, arity) pair")
            if isinstance(tmpl, (Var, Abs)):
                tmpl = Template((), tmpl)
            elif not isinstance(tmpl, Template):
                raise BadSubstitution(f"{key!r} is mapped to {tmpl!r}, not a term")
            if tmpl.arity != key[1]:
                raise ArityMismatch(
                    f"template for {key!r} has {tmpl.arity} binders")
            out[key] = tmpl
        self.mapping = MappingProxyType(out)

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
    binders between it and the root."""
    tag = node[0]
    if tag == "b":
        return leaf(node, depth)
    if tag == "v":
        return leaf(("v", node[1], tuple(_rebuild(a, leaf, depth) for a in node[2])),
                    depth)
    _, name, shape, hints, args = node
    return ("A", name, shape, hints, tuple(
        _rebuild(a, leaf, depth + len(p)) for p, a in zip(shape.binder_sets, args)))


def _lift(node: tuple, k: int) -> tuple:
    """Add k to every bound index that escapes node."""
    return node if not k else _rebuild(node, lambda n, depth: (
        ("b", n[1] + k) if n[0] == "b" and n[1] >= depth else n))


def _instantiate(body: tuple, args: tuple) -> tuple:
    """Plug args into the outer frame of an encoded template body: under
    `depth` binders of the body, index k >= depth is parameter
    n-1-(k-depth)."""
    n = len(args)
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


def _decode(node: tuple, frames: list, path: frozenset) -> Term:
    tag = node[0]
    if tag == "b":
        idx = node[1]
        for fr in reversed(frames):
            for b in reversed(fr):
                if idx == 0:
                    return Var(b)
                idx -= 1
        raise AssertionError("dangling de Bruijn index")
    if tag == "v":
        return Var(node[1], tuple(_decode(a, frames, path) for a in node[2]))
    _, name, shape, hints, args = node
    chosen = []
    if shape.valence:
        avoid = {x for x, _ in free_in(node)} | path
        for j in range(shape.valence):
            nm = fresh_var(avoid, hints[j] if j < len(hints) else "x")
            avoid.add(nm)
            chosen.append(nm)
        path = path | set(chosen)
    new_args = []
    for i, a in enumerate(args):
        fr = tuple(chosen[j] for j in shape.binder_sets[i])
        if fr:
            frames.append(fr)
            new_args.append(_decode(a, frames, path))
            frames.pop()
        else:
            new_args.append(_decode(a, frames, path))
    return Abs(name, shape, tuple(chosen), tuple(new_args))


def encode_template(tmpl: Template) -> DeBruijnTerm:
    """Nameless form of tmpl: its body under one frame of its parameters."""
    return encode(tmpl.body, [tmpl.binders])


def apply_subst(sigma: Substitution | Mapping, t: Term) -> Term:
    """Capture-avoiding substitution; result is a canonical representative
    of the α-class of the substituted term."""
    if not isinstance(sigma, Substitution):
        sigma = Substitution(sigma)
    node = _subst_node(encode(t, []),
                       {key: encode_template(tmpl) for key, tmpl in sigma.items()})
    return _decode(node, [], frozenset())


def resolve_template(tmpl: Template, args: list[Term] | tuple[Term, ...]) -> Term:
    """Apply an n-ary template to n argument terms, capture-avoidingly."""
    if len(args) != tmpl.arity:
        raise ArityMismatch(
            f"template of arity {tmpl.arity} applied to {len(args)} arguments")
    node = _instantiate(encode_template(tmpl), tuple(encode(a, []) for a in args))
    return _decode(node, [], frozenset())


def canonical(t: Term) -> Term:
    """Deterministic representative of t's α-class (binder hints kept when
    no renaming is forced)."""
    return _decode(encode(t, []), [], frozenset())
