"""Templates, substitutions and capture-avoiding application.

Substitution is implemented on the nameless form described in term.py,
with binder names kept as hints and template parameters as slots.  Free
variables stay named there, so inserting a template body under a binder
can never capture anything.  The result is converted back to named syntax
with a deterministic renaming scheme that keeps a hint unless it would
clash, so byte-equal inputs give byte-equal outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ArityMismatch, DuplicateBinder
from .term import Abs, Term, Var, encode, free_in


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

    @property
    def arity(self) -> int:
        return len(self.binders)


class Substitution:
    """Finite map from (name, arity) to a template of that arity, read-only
    once built."""

    def __init__(self, mapping: Mapping[tuple[str, int], Template | Term]):
        out: dict[tuple[str, int], Template] = {}
        for (name, arity), tmpl in mapping.items():
            if not isinstance(tmpl, Template):
                tmpl = Template((), tmpl)
            if tmpl.arity != arity:
                raise ArityMismatch(
                    f"template for ({name}, {arity}) has {tmpl.arity} binders")
            out[(name, arity)] = tmpl
        self.mapping = MappingProxyType(out)

    def __contains__(self, key):
        return key in self.mapping

    def __getitem__(self, key):
        return self.mapping[key]

    def items(self):
        return self.mapping.items()

    def __len__(self):
        return len(self.mapping)

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __repr__(self):
        return f"Substitution({dict(self.mapping)!r})"


def _lift(node: tuple, k: int, depth: int = 0) -> tuple:
    """Add k to every bound index that escapes `depth` enclosing binders."""
    tag = node[0]
    if tag == "b":
        j = node[1]
        return ("b", j + k) if j >= depth else node
    if tag == "s":
        return node
    if tag == "v":
        return ("v", node[1], tuple(_lift(a, k, depth) for a in node[2]))
    _, name, shape, hints, args = node
    new_args = []
    for i, a in enumerate(args):
        new_args.append(_lift(a, k, depth + len(shape.binder_sets[i])))
    return ("A", name, shape, hints, tuple(new_args))


def _instantiate(body: tuple, args: tuple, under: int = 0) -> tuple:
    """Plug args into the slots of an encoded template body."""
    tag = body[0]
    if tag == "b":
        return body
    if tag == "s":
        return _lift(args[body[1]], under)
    if tag == "v":
        return ("v", body[1], tuple(_instantiate(a, args, under) for a in body[2]))
    _, name, shape, hints, sub = body
    new_args = []
    for i, a in enumerate(sub):
        new_args.append(_instantiate(a, args, under + len(shape.binder_sets[i])))
    return ("A", name, shape, hints, tuple(new_args))


def _subst_node(node: tuple, enc_sigma: dict) -> tuple:
    tag = node[0]
    if tag in ("b", "s"):
        return node
    if tag == "v":
        _, name, args = node
        new_args = tuple(_subst_node(a, enc_sigma) for a in args)
        key = (name, len(args))
        if key in enc_sigma:
            return _instantiate(enc_sigma[key], new_args)
        return ("v", name, new_args)
    _, name, shape, hints, args = node
    return ("A", name, shape, hints, tuple(_subst_node(a, enc_sigma) for a in args))


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
    if tag == "s":
        raise AssertionError("unresolved template slot")
    if tag == "v":
        return Var(node[1], tuple(_decode(a, frames, path) for a in node[2]))
    _, name, shape, hints, args = node
    avoid = {x for x, _ in free_in(node)} | path
    chosen = []
    for j in range(shape.valence):
        nm = fresh_var(avoid, hints[j] if j < len(hints) else "x")
        avoid.add(nm)
        chosen.append(nm)
    inner_path = path | set(chosen)
    new_args = []
    for i, a in enumerate(args):
        fr = tuple(chosen[j] for j in shape.binder_sets[i])
        if fr:
            frames.append(fr)
            new_args.append(_decode(a, frames, inner_path))
            frames.pop()
        else:
            new_args.append(_decode(a, frames, inner_path))
    return Abs(name, shape, tuple(chosen), tuple(new_args))


def _encode_sigma(sigma: Substitution) -> dict:
    return {
        key: encode(tmpl.body, [], tmpl.binders)
        for key, tmpl in sigma.items()
    }


def apply_subst(sigma: Substitution | Mapping, t: Term) -> Term:
    """Capture-avoiding substitution; result is a canonical representative
    of the α-class of the substituted term."""
    if not isinstance(sigma, Substitution):
        sigma = Substitution(sigma)
    node = _subst_node(encode(t, [], ()), _encode_sigma(sigma))
    return _decode(node, [], frozenset())


def resolve_template(tmpl: Template, args: list[Term] | tuple[Term, ...]) -> Term:
    """Apply an n-ary template to n argument terms, capture-avoidingly."""
    if len(args) != tmpl.arity:
        raise ArityMismatch(
            f"template of arity {tmpl.arity} applied to {len(args)} arguments")
    node = _instantiate(
        encode(tmpl.body, [], tmpl.binders),
        tuple(encode(a, [], ()) for a in args))
    return _decode(node, [], frozenset())


def canonical(t: Term) -> Term:
    """Deterministic representative of t's α-class (binder hints kept when
    no renaming is forced)."""
    return _decode(encode(t, [], ()), [], frozenset())
