"""The trusted proof checker: four rules (AX, SUBST, MP, ALL), theorem
objects that only the checker can mint, a theorem store, and the
inconsistency-expansion recipe.

Checking is a memoised fold: a proof node whose own check succeeded is not
checked again under the same logic while its theorem store lives.  Nodes and
terms are immutable and the store is append-only, so a certified node stays
certified.  A node of SUBST, MP or ALL with target None concludes the
statement its rule derives.
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
    PreconditionFailed,
    ProofError,
    SubstMismatch,
    TermError,
    UnknownLemma,
)
from .logics import IMP, Logic, all_, builtin_logic, imp, is_extension, v
from .shape import BINOP_SHAPE
from .subst import Substitution, Template, apply_subst
from .term import Abs, Term, alpha_eq, check_wellformed, to_debruijn

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


_KERNEL_TOKEN = object()


class Theorem:
    """Certified statement, as the kernel derived or matched it (so compare
    it modulo α); constructible only through check_proof."""

    __slots__ = ("statement", "logic")

    def __init__(self, statement: Term, logic: Logic, *, _token=None):
        if _token is not _KERNEL_TOKEN:
            raise KernelPrivilege("theorems can only be minted by check_proof")
        object.__setattr__(self, "statement", statement)
        object.__setattr__(self, "logic", logic)

    def __setattr__(self, *_):
        raise KernelPrivilege("theorems are immutable")

    def __repr__(self):
        return f"Theorem({self.statement!r}, logic={self.logic.name})"


class TheoremDB:
    """Append-only store of theorems keyed by name; lookup by statement is
    modulo α-equivalence."""

    def __init__(self):
        self._by_name: dict[str, Theorem] = {}
        self._by_form: dict[tuple, str] = {}
        self._memo: dict[int, tuple] = {}  # id(node) -> (node, logic, statement)

    def add(self, name: str, thm: Theorem) -> None:
        if not isinstance(thm, Theorem):
            raise KernelPrivilege("only kernel-minted theorems can be stored")
        if name in self._by_name:
            raise KernelPrivilege(f"theorem {name!r} already stored")
        self._by_name[name] = thm
        self._by_form.setdefault(to_debruijn(thm.statement), name)

    def get(self, name: str) -> Theorem | None:
        return self._by_name.get(name)

    def find(self, statement: Term) -> Theorem | None:
        name = self._by_form.get(to_debruijn(statement))
        return self._by_name.get(name) if name is not None else None

    def names(self):
        return tuple(self._by_name)


def _wf(t: Term, logic: Logic, path) -> None:
    try:
        check_wellformed(t, logic.signature)
    except TermError as e:
        raise IllFormed(str(e), path) from e


def _conclude(logic: Logic, target: Term | None, derived: Term,
              mismatch: type, message: str, path) -> Term:
    """A node's statement: its target, which must match what the rule
    derived, or with no target the derived statement itself."""
    if target is None:
        _wf(derived, logic, path)
        return derived
    if not alpha_eq(target, derived):
        raise mismatch(message, path)
    return target


def _check(logic: Logic, p: Proof, db: TheoremDB | None, path: tuple,
           memo: dict) -> Term:
    hit = memo.get(id(p))
    if hit is not None and hit[0] is p and hit[1] is logic:
        return hit[2]
    statement = _rule(logic, p, db, path, memo)
    memo[id(p)] = (p, logic, statement)
    return statement


def _rule(logic: Logic, p: Proof, db: TheoremDB | None, path: tuple,
          memo: dict) -> Term:
    if isinstance(p, Ax):
        if isinstance(p.axiom, str):
            t = logic.axiom(p.axiom)
            if t is None:
                raise NotAnAxiom(f"no axiom labelled {p.axiom!r}", path)
            return t
        _wf(p.axiom, logic, path)
        for _, a in logic.axioms:
            if alpha_eq(p.axiom, a):
                return p.axiom
        raise NotAnAxiom("term is not an axiom of this logic", path)

    if isinstance(p, (Subst, Mp, All)) and p.target is not None:
        _wf(p.target, logic, path)

    if isinstance(p, Subst):
        for (_, _), tmpl in p.sigma.items():
            _wf(tmpl.body, logic, path)
        s = _check(logic, p.sub, db, path + (0,), memo)
        return _conclude(logic, p.target, apply_subst(p.sigma, s), SubstMismatch,
                         "target is not α-equivalent to the substituted premise",
                         path)

    if isinstance(p, Mp):
        h = _check(logic, p.sub_h, db, path + (0,), memo)
        g = _check(logic, p.sub_g, db, path + (1,), memo)
        if not (isinstance(g, Abs) and g.name == IMP and g.shape == BINOP_SHAPE):
            raise NotAnImplication("second premise is not an implication", path)
        h2, t2 = g.args
        if not alpha_eq(h2, h):
            raise MpMismatch("antecedent does not match the first premise", path)
        return _conclude(logic, p.target, t2, MpMismatch,
                         "consequent does not match the target", path)

    if isinstance(p, All):
        s = _check(logic, p.sub, db, path + (0,), memo)
        return _conclude(logic, p.target, all_(p.binder, s), AllMismatch,
                         "target is not (∀ x. premise)", path)

    if isinstance(p, Lemma):
        if db is None:
            raise UnknownLemma(f"no theorem store to resolve {p.name!r}", path)
        thm = db.get(p.name)
        if thm is None:
            raise UnknownLemma(f"no stored theorem named {p.name!r}", path)
        if thm.logic is not logic and not is_extension(logic, thm.logic):
            raise UnknownLemma(
                f"theorem {p.name!r} was certified in {thm.logic.name}, which "
                f"the current logic does not extend", path)
        return thm.statement

    raise ProofError(f"unknown proof node {type(p).__name__}", path)


def check_proof(logic: Logic, p: Proof, db: TheoremDB | None = None) -> Theorem:
    """Certify a proof tree against a logic; returns the theorem it proves
    or raises a ProofError locating the offending node."""
    statement = _check(logic, p, db, (), db._memo if db is not None else {})
    return Theorem(statement, logic, _token=_KERNEL_TOKEN)


_FORALL_X = all_("x", v("x"))


def inconsistency_expand(logic: Logic, p_forall: Proof, target: Term,
                         db: TheoremDB | None = None) -> Proof:
    """Given a proof of (∀x. x), build a proof of an arbitrary target:
    instantiate D4 with [x. x], apply modus ponens to get the theorem x,
    then substitute the target for x."""
    if not is_extension(logic, builtin_logic("D")):
        raise PreconditionFailed("logic does not extend deduction logic")
    thm = check_proof(logic, p_forall, db)
    if not alpha_eq(thm.statement, _FORALL_X):
        raise PreconditionFailed("premise does not prove (∀x. x)")
    try:
        check_wellformed(target, logic.signature)
    except TermError as e:
        raise PreconditionFailed(str(e)) from e
    x = v("x")
    d4 = imp(all_("x", v("A", v("x"))), v("A", x))
    d4_inst = Subst(imp(_FORALL_X, x),
                    Substitution({("A", 1): Template(("x",), v("x"))}),
                    Ax(d4))
    theorem_x = Mp(x, p_forall, d4_inst)
    return Subst(target, Substitution({("x", 0): Template((), target)}), theorem_x)
