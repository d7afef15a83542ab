"""The trusted proof kernel, LCF style: only the rules below mint a
`Theorem`, and each takes theorems.  `axiom` is AX, `inst` SUBST, `mp` MP
and `gen` ALL; `lift` carries a theorem into a logic that extends its own.

A theorem is `node`, the nameless form of its statement (term.py), which
SUBST substitutes into, MP takes apart and ALL binds.  A term enters
through `encode`, checked against the logic's signature, and matches a
premise modulo α by `same_class`.  The named `statement` is the target or
axiom the rule was given, else the term the node names, built when read.

The rules rest on the code above the untrusted line and on the walkers it
calls: term.encode, same_class and strip_hints, and subst.encode_template,
_subst_node (_instantiate, _lift, _rebuild), _bind and _settle.  Below
the line, `check_proof` folds the rules over a proof tree, premises
first, and memoises each node's theorem in the `TheoremDB`: a bug there
can fail a good proof, or hand back a theorem a rule minted, never more.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    AllMismatch,
    IllFormed,
    KernelPrivilege,
    MpMismatch,
    NotAnAxiom,
    NotAnImplication,
    ProofError,
    ProofTooDeep,
    SubstMismatch,
    TermError,
    UnknownLemma,
)
from .logics import ALL, IMP, Logic, is_extension
from .shape import BINDER_SHAPE, BINOP_SHAPE
from .subst import (Substitution, Template, _bind, _named, _settle, _subst_node,
                    encode_template)
from .term import DeBruijnTerm, Term, alpha_eq, encode, same_class

_KERNEL_TOKEN = object()


class Theorem:
    """A statement proved in `logic`, as `node`, its nameless form.  The
    statement is the term that the minting rule was given for it, or else
    the term `node` names, built on first read; compare it modulo α."""

    __slots__ = ("_statement", "logic", "node")

    def __init__(self, logic: Logic, node: DeBruijnTerm,
                 statement: Term | None = None, *, _token=None):
        if _token is not _KERNEL_TOKEN:
            raise KernelPrivilege("theorems can only be minted by the kernel rules")
        object.__setattr__(self, "_statement", statement)
        object.__setattr__(self, "logic", logic)
        object.__setattr__(self, "node", node)

    @property
    def statement(self) -> Term:
        if self._statement is None:
            object.__setattr__(self, "_statement", _named(self.node, []))
        return self._statement

    def __setattr__(self, *_):
        raise KernelPrivilege("theorems are immutable")

    def __repr__(self):
        return f"Theorem({self.statement!r}, logic={self.logic.name})"


def _encode(logic: Logic, t: Term | Template) -> DeBruijnTerm:
    """The nameless form of a term or template well-formed in logic."""
    try:
        if isinstance(t, Template):
            return encode_template(t, logic.signature)
        return encode(t, [], logic.signature)
    except TermError as e:
        raise IllFormed(str(e)) from e


def _premise(thm: Theorem) -> Logic:
    if not isinstance(thm, Theorem):
        raise KernelPrivilege(
            f"a rule premise must be a Theorem, not {type(thm).__name__}")
    return thm.logic


def _match(logic: Logic, target: Term | None, derived: DeBruijnTerm,
           mismatch: type, message: str) -> DeBruijnTerm:
    """What a rule derived, or, given a target, the target's nameless form
    if it matches that modulo α.  A derived statement is well-formed, so
    only a target that does not match is checked, to tell an ill-formed
    one from a wrong one."""
    if target is None:
        return derived
    try:
        node = encode(target, [])
    except TermError:  # an argument that is not a term
        node = None
    if node is None or not same_class(node, derived):
        _encode(logic, target)
        raise mismatch(message)
    return node


def axiom(logic: Logic, label_or_term: Term | str) -> Theorem:
    """AX, by label or by a term that is an axiom modulo α."""
    if isinstance(label_or_term, str):
        t = logic.axiom(label_or_term)
        if t is None:
            raise NotAnAxiom(f"no axiom labelled {label_or_term!r}")
        node = encode(t, [])
    else:
        t = label_or_term
        node = _encode(logic, t)
        if not any(alpha_eq(t, a) for _, a in logic.axioms):
            raise NotAnAxiom("term is not an axiom of this logic")
    return Theorem(logic, node, t, _token=_KERNEL_TOKEN)


def inst(thm: Theorem, sigma: Substitution, target: Term | None = None) -> Theorem:
    """SUBST: the premise with every variable in `sigma` replaced."""
    logic = _premise(thm)
    if not isinstance(sigma, Substitution):
        sigma = Substitution(sigma)
    node = _subst_node(thm.node, {
        key: _encode(logic, tmpl) for key, tmpl in sigma.items()})
    if target is None:
        node = _settle(node)
    return Theorem(logic, _match(
        logic, target, node, SubstMismatch,
        "target is not α-equivalent to the substituted premise"), target,
        _token=_KERNEL_TOKEN)


def mp(h: Theorem, g: Theorem, target: Term | None = None) -> Theorem:
    """MP: from h and (h → t), t."""
    logic = _premise(h)
    if _premise(g) is not logic:
        raise MpMismatch("premises come from different logics")
    s = g.node
    if not (s[0] == "A" and s[1] == IMP and s[2] == BINOP_SHAPE):
        raise NotAnImplication("second premise is not an implication")
    antecedent, consequent = s[4]
    if not same_class(antecedent, h.node):
        raise MpMismatch("antecedent does not match the first premise")
    return Theorem(logic, _match(
        logic, target, consequent, MpMismatch,
        "consequent does not match the target"), target, _token=_KERNEL_TOKEN)


def gen(thm: Theorem, binder: str, target: Term | None = None) -> Theorem:
    """ALL: from t, (∀ binder. t)."""
    logic = _premise(thm)
    if not (isinstance(binder, str) and binder):
        raise IllFormed(f"binder {binder!r} is not a name")
    node = ("A", ALL, BINDER_SHAPE, (binder,), (_bind(thm.node, binder),))
    return Theorem(logic, _match(
        logic, target, node, AllMismatch, "target is not (∀ x. premise)"),
        target, _token=_KERNEL_TOKEN)


def lift(thm: Theorem, logic: Logic) -> Theorem:
    """A theorem of a logic that `logic` extends, as a theorem of `logic`."""
    if _premise(thm) is logic:
        return thm
    if not is_extension(logic, thm.logic):
        raise UnknownLemma(f"the theorem was certified in {thm.logic.name}, "
                           f"which {logic.name} does not extend")
    return Theorem(logic, thm.node, thm._statement, _token=_KERNEL_TOKEN)


# --- untrusted below: proof trees, the theorem store and the fold -------------

Proof = Union["Ax", "Subst", "Mp", "All", "Lemma"]


@dataclass(frozen=True)
class Ax:
    """Axiom invocation, by label or by literal term (matched modulo α)."""
    axiom: Term | str


@dataclass(frozen=True)
class Subst:
    target: Term | None
    sigma: Substitution
    sub: Proof


@dataclass(frozen=True)
class Mp:
    target: Term | None
    sub_h: Proof
    sub_g: Proof


@dataclass(frozen=True)
class All:
    target: Term | None
    binder: str
    sub: Proof


@dataclass(frozen=True)
class Lemma:
    """Reference to a stored theorem of this logic or one it extends."""
    name: str


class TheoremDB:
    """Append-only store of theorems by name, and the memo of the fold."""

    def __init__(self):
        self._by_name: dict[str, Theorem] = {}
        self._memo: dict[int, tuple] = {}  # id(node) -> (node, logic, theorem)

    def add(self, name: str, thm: Theorem) -> None:
        if not isinstance(thm, Theorem):
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
