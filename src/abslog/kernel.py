"""The trusted proof kernel, LCF style: only the rules below mint a
`Theorem`, and each takes theorems.  `axiom` is AX, `inst` SUBST, `mp` MP
and `gen` ALL; `lift` carries a theorem into a logic that extends its own.

A theorem is `node`, the nameless form of its statement (term.py), which
SUBST substitutes into, MP takes apart and ALL binds.  A term, template or
node (the parser's output) from outside enters through `encode`, checked
against the logic's signature in one walk: each head declared with its exact
shape, one distinct hint per binder, one argument per position, each bound
index below its binder depth, each variable named.  Targets match modulo α
(`same_class`).  The named `statement` is the term target or axiom the rule
was given, else the term the node names, built when read.

The rules rest on the code above the untrusted line, on `Logic.axioms` and
`Logic.classes`, and on the walkers it calls: term.encode (whose node check
skips `_check_abs` only where it must pass: a head declared with that very
shape, valence 0, no hints, one argument per position), same_class and
strip_hints, and subst.encode_template, _subst_node (_instantiate, _lift,
_rebuild), _bind and _settle.  Below the line, `check_proof` folds the rules
over a proof tree and memoises each node's theorem in the `TheoremDB`: a bug
there can fail a good proof, or hand back a theorem a rule minted, never more.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (AllMismatch, IllFormed, KernelPrivilege, MpMismatch,
                     NotAnAxiom, NotAnImplication, ProofError, ProofTooDeep,
                     SubstMismatch, TermError, UnknownLemma)
from .logics import ALL, IMP, Logic, is_extension
from .shape import BINDER_SHAPE, BINOP_SHAPE
from .subst import Substitution, Template, _bind, _named, _settle, _subst_node, encode_template
from .term import DeBruijnTerm, Term, encode, same_class, strip_hints
from .term import alpha_eq  # noqa: F401  (bench/tracing.py rebinds it here)

_KERNEL_TOKEN = object()
Target = Union[Term, DeBruijnTerm, None]  # what a rule must conclude, if given


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


def _encode(logic: Logic, t: Term | DeBruijnTerm | Template) -> DeBruijnTerm:
    """The nameless form of a term, node or template well-formed in logic."""
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


def _match(logic: Logic, target: Target, derived: DeBruijnTerm, mismatch: type,
           message: str) -> tuple[DeBruijnTerm, Term | None]:
    """The node and statement of what a rule derived, given a target that
    matches it modulo α: a term target is the statement, its node the
    theorem's; a node target, checked unless equal, vouches for `derived`."""
    if target is None or target == derived:
        return derived, None
    node = _encode(logic, target)
    if not same_class(node, derived):
        raise mismatch(message)
    return (derived, None) if type(target) is tuple else (node, target)


def axiom(logic: Logic, label_or_term: Term | DeBruijnTerm | str) -> Theorem:
    """AX, by label or by a term or node that is an axiom modulo α."""
    t = label_or_term
    if isinstance(t, str):
        node = logic.axiom(t)
        if node is None:
            raise NotAnAxiom(f"no axiom labelled {t!r}")
        return Theorem(logic, node, None, _token=_KERNEL_TOKEN)
    node = _encode(logic, t)
    match = logic.classes.get(strip_hints(node))
    if match is None:
        raise NotAnAxiom("term is not an axiom of this logic")
    if type(t) is tuple:  # a node vouches for the axiom's own node
        return Theorem(logic, match, None, _token=_KERNEL_TOKEN)
    return Theorem(logic, node, t, _token=_KERNEL_TOKEN)


def inst(thm: Theorem, sigma: Substitution, target: Target = None) -> Theorem:
    """SUBST: the premise with every variable in `sigma` replaced."""
    logic = _premise(thm)
    if not isinstance(sigma, Substitution):
        sigma = Substitution(sigma)
    node = _subst_node(thm.node, {
        key: _encode(logic, tmpl) for key, tmpl in sigma.items()})
    if target is None or type(target) is tuple:
        node = _settle(node)
    return Theorem(logic, *_match(
        logic, target, node, SubstMismatch,
        "target is not α-equivalent to the substituted premise"), _token=_KERNEL_TOKEN)


def mp(h: Theorem, g: Theorem, target: Target = None) -> Theorem:
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
    return Theorem(logic, *_match(
        logic, target, consequent, MpMismatch,
        "consequent does not match the target"), _token=_KERNEL_TOKEN)


def gen(thm: Theorem, binder: str, target: Target = None) -> Theorem:
    """ALL: from t, (∀ binder. t)."""
    logic = _premise(thm)
    if not (isinstance(binder, str) and binder):
        raise IllFormed(f"binder {binder!r} is not a name")
    node = ("A", ALL, BINDER_SHAPE, (binder,), (_bind(thm.node, binder),))
    return Theorem(logic, *_match(
        logic, target, node, AllMismatch, "target is not (∀ x. premise)"),
        _token=_KERNEL_TOKEN)


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
    """Axiom invocation, by label or by literal term or node (modulo α)."""
    axiom: Term | DeBruijnTerm | str


@dataclass(frozen=True)
class Subst:
    target: Target
    sigma: Substitution
    sub: Proof


@dataclass(frozen=True)
class Mp:
    target: Target
    sub_h: Proof
    sub_g: Proof


@dataclass(frozen=True)
class All:
    target: Target
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
