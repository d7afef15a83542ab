"""The trusted proof kernel, LCF style: only the rules below mint a
`Theorem`, and each takes theorems.  `axiom` is AX, `inst` SUBST, `mp` MP
and `gen` ALL; `lift` carries a theorem into a logic that extends its own.

The trusted base is the code above the untrusted line and nameless.py,
the one module it takes its walkers from; beyond it the rules read only a
logic's checked axioms (`Logic.axioms`, `Logic.classes`) and
is_extension.  A theorem is its logic and the nameless form of its
statement (`node`).  A term, template or node from outside is converted
by term._convert, which is not trusted: what it makes must pass the node
check against the logic's signature.  A target is checked, never kept:
unless equal to what the rule derived, it must match it modulo α.  Each
input must be exactly of its type, since a subclass could override what
the rules read.  Below the line, `check_proof` folds the rules over a
proof tree and memoises each node's theorem in the `TheoremDB`: a bug
there can fail a good proof, or hand back a theorem a rule minted, never
more.
"""
from __future__ import annotations

from typing import Union

from .errors import (AllMismatch, IllFormed, KernelPrivilege, MpMismatch,
                     NotAnAxiom, NotAnImplication, ProofError, ProofTooDeep,
                     SubstMismatch, TermError, UnknownLemma)
from .logics import ALL, IMP, Logic, is_extension
from .nameless import (DeBruijnTerm, Substitution, Template, Term, _bind, _check_node,
                       _settle, _subst_node, same_class, strip_hints)
from .shape import BINDER_SHAPE, BINOP_SHAPE
from .subst import _named  # display only: the statement a node names
from .term import _convert  # untrusted: the node check takes or refuses what it makes
from .term import alpha_eq  # noqa: F401  (bench/tracing.py rebinds it here)

_KERNEL_TOKEN = object()
Target = Union[Term, DeBruijnTerm, None]  # what a rule must conclude, if given


class Theorem:
    """A statement proved in `logic`, as `node`, its nameless form; the
    statement is the term `node` names, built on first read."""

    __slots__ = ("_statement", "logic", "node")

    def __init__(self, logic: Logic, node: DeBruijnTerm, *, _token=None):
        if _token is not _KERNEL_TOKEN:
            raise KernelPrivilege("theorems can only be minted by the kernel rules")
        object.__setattr__(self, "_statement", None)
        object.__setattr__(self, "logic", logic)
        object.__setattr__(self, "node", node)

    @property
    def statement(self) -> Term:
        if self._statement is None:
            object.__setattr__(self, "_statement", _named(self.node, []))
        return self._statement

    def __setattr__(self, *_):
        raise KernelPrivilege("theorems are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"Theorem({self.statement!r}, logic={self.logic.name})"


def _encode(logic: Logic, t: Term | DeBruijnTerm | Template) -> DeBruijnTerm:
    """The nameless form of a term, node or template well-formed in logic."""
    body, frame = (t.body, t.binders) if isinstance(t, Template) else (t, ())
    try:
        return _check_node(_convert(body, [frame]), len(frame), logic.signature)
    except TermError as e:
        raise IllFormed(str(e)) from e


def _exact(obj, cls: type):
    if type(obj) is not cls:
        raise KernelPrivilege(f"a rule takes a {cls.__name__}, not {type(obj).__name__}")
    return obj


def _match(logic: Logic, target: Target, derived: DeBruijnTerm, mismatch: type,
           message: str) -> DeBruijnTerm:
    """derived, once a target, if given and not equal to it, matches it modulo α."""
    if not (target is None or target == derived
            or same_class(_encode(logic, target), derived)):
        raise mismatch(message)
    return derived


def axiom(logic: Logic, label_or_term: Term | DeBruijnTerm | str) -> Theorem:
    """AX, by label or by a term or node that is an axiom modulo α."""
    t, logic = label_or_term, _exact(logic, Logic)
    by_label = isinstance(t, str)
    node = (logic.axiom(t) if by_label
            else logic.classes.get(strip_hints(_encode(logic, t))))
    if node is None:
        raise NotAnAxiom(f"no axiom labelled {t!r}" if by_label
                         else "term is not an axiom of this logic")
    return Theorem(logic, node, _token=_KERNEL_TOKEN)


def inst(thm: Theorem, sigma: Substitution, target: Target = None) -> Theorem:
    """SUBST: the premise with every variable in `sigma` replaced."""
    logic = _exact(thm, Theorem).logic
    if type(sigma) is not Substitution:
        sigma = Substitution(sigma)
    node = _settle(_subst_node(thm.node, {
        key: _encode(logic, tmpl) for key, tmpl in sigma.mapping.items()}))
    return Theorem(logic, _match(
        logic, target, node, SubstMismatch,
        "target is not α-equivalent to the substituted premise"), _token=_KERNEL_TOKEN)


def mp(h: Theorem, g: Theorem, target: Target = None) -> Theorem:
    """MP: from h and (h → t), t."""
    logic = _exact(h, Theorem).logic
    if _exact(g, Theorem).logic is not logic:
        raise MpMismatch("premises come from different logics")
    s = g.node
    if not (s[0] == "A" and s[1] == IMP and s[2] == BINOP_SHAPE):
        raise NotAnImplication("second premise is not an implication")
    antecedent, consequent = s[4]
    if not same_class(antecedent, h.node):
        raise MpMismatch("antecedent does not match the first premise")
    return Theorem(logic, _match(
        logic, target, consequent, MpMismatch,
        "consequent does not match the target"), _token=_KERNEL_TOKEN)


def gen(thm: Theorem, binder: str, target: Target = None) -> Theorem:
    """ALL: from t, (∀ binder. t)."""
    logic = _exact(thm, Theorem).logic
    if not (type(binder) is str and binder):
        raise IllFormed(f"binder {binder!r} is not a name")
    node = ("A", ALL, BINDER_SHAPE, (binder,), (_bind(thm.node, binder),))
    return Theorem(logic, _match(
        logic, target, node, AllMismatch, "target is not (∀ x. premise)"),
        _token=_KERNEL_TOKEN)


def lift(thm: Theorem, logic: Logic) -> Theorem:
    """A theorem of a logic that `logic` extends, as a theorem of `logic`."""
    if _exact(thm, Theorem).logic is _exact(logic, Logic):
        return thm
    if not is_extension(logic, thm.logic):
        raise UnknownLemma(f"the theorem was certified in {thm.logic.name}, "
                           f"which {logic.name} does not extend")
    return Theorem(logic, thm.node, _token=_KERNEL_TOKEN)


# --- untrusted below: proof trees, the theorem store and the fold -------------
# (imported here, as the section above rests on nothing it brings in)

from collections import namedtuple

Proof = Union["Ax", "Subst", "Mp", "All", "Lemma"]


class _Node:
    """A proof node is the tuple of its fields (a `namedtuple`), so it is
    built without a call per field.  It cannot be changed, and it equals
    only a node of its own class whose fields are equal."""
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Ax(_Node, namedtuple("Ax", "axiom")):
    """Axiom invocation, by label or by literal term or node (modulo α)."""
    __slots__ = ()


class Subst(_Node, namedtuple("Subst", "target sigma sub")):
    __slots__ = ()


class Mp(_Node, namedtuple("Mp", "target sub_h sub_g")):
    __slots__ = ()


class All(_Node, namedtuple("All", "target binder sub")):
    __slots__ = ()


class Lemma(_Node, namedtuple("Lemma", "name")):
    """Reference to a stored theorem of this logic or one it extends."""
    __slots__ = ()


class TheoremDB:
    """Append-only store of theorems by name, and the memo of the fold."""

    def __init__(self):
        self._by_name: dict[str, Theorem] = {}
        self._memo: dict[int, tuple] = {}  # id(node) -> (node, logic, theorem)

    def add(self, name: str, thm: Theorem) -> None:
        if type(thm) is not Theorem:
            raise KernelPrivilege("only kernel-minted theorems can be stored")
        if name in self._by_name:
            raise KernelPrivilege(f"theorem {name!r} already stored")
        self._by_name[name] = thm

    def get(self, name: str) -> Theorem | None:
        return self._by_name.get(name)

    def names(self):
        return tuple(self._by_name)


def _fold(logic: Logic, p: Proof, db: TheoremDB | None, path: tuple,
          memo: dict) -> Theorem:
    """The theorem of node `p`: its rule applied to its premises' theorems."""
    hit = memo.get(id(p))
    if hit is not None and hit[0] is p and hit[1] is logic:
        return hit[2]
    try:
        if isinstance(p, Ax):
            thm = axiom(logic, p.axiom)
        elif isinstance(p, Subst):
            thm = inst(_fold(logic, p.sub, db, path + (0,), memo),
                       p.sigma, p.target)
        elif isinstance(p, Mp):
            thm = mp(_fold(logic, p.sub_h, db, path + (0,), memo),
                     _fold(logic, p.sub_g, db, path + (1,), memo), p.target)
        elif isinstance(p, All):
            thm = gen(_fold(logic, p.sub, db, path + (0,), memo),
                      p.binder, p.target)
        elif isinstance(p, Lemma):
            stored = db.get(p.name) if db is not None else None
            if stored is None:
                raise UnknownLemma(f"no stored theorem named {p.name!r}")
            thm = lift(stored, logic)
        else:
            raise ProofError(f"unknown proof node {type(p).__name__}")
    except ProofError as e:
        e.path = e.path or path  # a premise's error already has its path
        raise
    memo[id(p)] = (p, logic, thm)
    return thm


def check_proof(logic: Logic, p: Proof, db: TheoremDB | None = None) -> Theorem:
    """The theorem a proof tree proves in `logic`, or a ProofError whose
    path locates the offending node; a store checks each node once.  A
    tree too deep for the recursion limit is the ProofError `TooDeep`; a
    term too deep for a rule still raises the rule's `RecursionError`."""
    try:
        return _fold(logic, p, db, (), db._memo if db is not None else {})
    except RecursionError as e:
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        if tb.tb_frame.f_code is not _fold.__code__:
            raise  # raised inside a rule, by a term walker
        raise ProofTooDeep("the proof nests too deeply to check") from None
