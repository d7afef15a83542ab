"""Builtin logics D, E, F, I, K, P, U, U′ and the logic-extension relation.

Abstractions use their glyphs as canonical names; the concrete syntax also
accepts ASCII aliases (see the syntax module).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .errors import NotLogicSignature, UnknownLogic
from .shape import (
    BINDER_SHAPE,
    BINOP_SHAPE,
    Signature,
    UNOP_SHAPE,
    VALUE_SHAPE,
    extends_signature,
    is_logic_signature,
    signature,
)
from .term import Abs, DeBruijnTerm, Term, Var, alpha_eq, check_wellformed

TRUE, IMP, ALL = "⊤", "⇒", "∀"
EQ, FALSE, NOT, NEQ = "=", "⊥", "¬", "≠"
AND, OR, IFF, EX = "∧", "∨", "⇔", "∃"
FAIL, EX1, THE, SOME = "⅄", "∃₁", "the", "some"
ZERO, SUC, NAT, ADD, MUL = "zero", "suc", "nat", "add", "mul"

SIG_D = signature([(TRUE, VALUE_SHAPE), (IMP, BINOP_SHAPE), (ALL, BINDER_SHAPE)])
SIG_E = SIG_D.extend(signature([(EQ, BINOP_SHAPE)]).decls)
SIG_F = SIG_E.extend(signature(
    [(FALSE, VALUE_SHAPE), (NOT, UNOP_SHAPE), (NEQ, BINOP_SHAPE)]).decls)
SIG_I = SIG_F.extend(signature(
    [(AND, BINOP_SHAPE), (OR, BINOP_SHAPE), (IFF, BINOP_SHAPE), (EX, BINDER_SHAPE)]).decls)
SIG_K = SIG_I
SIG_P = SIG_K.extend(signature(
    [(ZERO, VALUE_SHAPE), (SUC, UNOP_SHAPE), (NAT, UNOP_SHAPE),
     (ADD, BINOP_SHAPE), (MUL, BINOP_SHAPE)]).decls)
SIG_U = SIG_K.extend(signature(
    [(FAIL, VALUE_SHAPE), (EX1, BINDER_SHAPE), (THE, BINDER_SHAPE)]).decls)
SIG_U_PRIME = SIG_K.extend(signature(
    [(FAIL, VALUE_SHAPE), (EX1, BINDER_SHAPE), (SOME, BINDER_SHAPE)]).decls)


# term builders

def v(name: str, *args: Term) -> Var:
    return Var(name, tuple(args))


def const(name: str) -> Abs:
    return Abs(name, VALUE_SHAPE)


def op1(name: str, a: Term) -> Abs:
    return Abs(name, UNOP_SHAPE, (), (a,))


def op2(name: str, a: Term, b: Term) -> Abs:
    return Abs(name, BINOP_SHAPE, (), (a, b))


def binder(name: str, x: str, body: Term) -> Abs:
    return Abs(name, BINDER_SHAPE, (x,), (body,))


def imp(a: Term, b: Term) -> Abs:
    return op2(IMP, a, b)


def eq(a: Term, b: Term) -> Abs:
    return op2(EQ, a, b)


def neg(a: Term) -> Abs:
    return op1(NOT, a)


def all_(x: str, body: Term) -> Abs:
    return binder(ALL, x, body)


@dataclass(frozen=True)
class Logic:
    name: str
    signature: Signature
    axioms: tuple[tuple[str, Term], ...]  # (label, term), order fixed
    # the nameless form of each axiom, checked against the signature
    nodes: tuple[DeBruijnTerm, ...] = field(default=(), init=False, repr=False, compare=False)
    # is_extension's verdicts with self as the child: id(parent) -> (parent,
    # verdict), the entry keeping parent, and so its id, alive
    _extends: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if not is_logic_signature(self.signature):
            # the kernel's ALL builds ∀ nodes on this
            raise NotLogicSignature(
                f"logic {self.name!r}: signature lacks ⊤/⇒/∀ with their required shapes")
        object.__setattr__(self, "nodes", tuple(
            check_wellformed(a, self.signature) for _, a in self.axioms))

    def axiom(self, label: str, nameless: bool = False):
        """The axiom labelled `label`, or its node if `nameless`; else None."""
        for i, (lbl, t) in enumerate(self.axioms):
            if lbl == label:
                return self.nodes[i] if nameless else t
        return None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.axioms)

    @property
    def axiom_terms(self) -> tuple[Term, ...]:
        return tuple(t for _, t in self.axioms)

    def extend(self, name, decls=(), axioms=()) -> "Logic":
        """This logic with decls and axioms added.  Only the added axioms
        are checked: an extended signature keeps every declaration it had,
        so this logic's axioms stay well-formed in it."""
        child = Logic(name, self.signature.extend(decls), tuple(axioms))
        object.__setattr__(child, "axioms", self.axioms + child.axioms)
        object.__setattr__(child, "nodes", self.nodes + child.nodes)
        return child


@cache
def _axiom_groups() -> dict[str, tuple[tuple[str, Term], ...]]:
    """The axioms each builtin logic adds to the logic it is built on."""
    A, B, C, x, y, n, m = (v(name) for name in "ABCxynm")
    Ax = lambda t: v("A", t)
    Bx = lambda t: v("B", t)
    Px = lambda t: v("P", t)
    nat = lambda t: op1(NAT, t)
    suc = lambda t: op1(SUC, t)
    add = lambda a, b: op2(ADD, a, b)
    mul = lambda a, b: op2(MUL, a, b)
    zero = const(ZERO)
    ex1 = binder(EX1, "x", Ax(v("x")))
    the = binder(THE, "x", Ax(v("x")))
    some = binder(SOME, "x", Ax(v("x")))
    u_shared = (
        ("U1", op2(AND, op2(NEQ, const(FAIL), const(TRUE)),
                   op2(NEQ, const(FAIL), const(FALSE)))),
        ("U2", eq(ex1,
                  binder(EX, "x", op2(AND, Ax(v("x")),
                                      all_("y", imp(Ax(v("y")), eq(v("x"), v("y")))))))),
    )
    return {
        "D": (
            ("D1", const(TRUE)),
            ("D2", imp(A, imp(B, A))),
            ("D3", imp(imp(A, imp(B, C)), imp(imp(A, B), imp(A, C)))),
            ("D4", imp(all_("x", Ax(v("x"))), Ax(x))),
            ("D5", imp(all_("x", imp(A, Bx(v("x")))), imp(A, all_("x", Bx(v("x")))))),
        ),
        "E": (
            ("E1", eq(x, x)),
            ("E2", imp(eq(x, y), imp(Ax(x), Ax(y)))),
            ("E3", imp(A, eq(A, const(TRUE)))),
        ),
        "F": (
            ("F1", eq(const(FALSE), all_("x", v("x")))),
            ("F2", eq(neg(A), imp(A, const(FALSE)))),
            ("F3", eq(op2(NEQ, x, y), neg(eq(x, y)))),
        ),
        "I": (
            ("I1", imp(op2(AND, A, B), A)),
            ("I2", imp(op2(AND, A, B), B)),
            ("I3", imp(A, imp(B, op2(AND, A, B)))),
            ("I4", imp(A, op2(OR, A, B))),
            ("I5", imp(B, op2(OR, A, B))),
            ("I6", imp(op2(OR, A, B), imp(imp(A, C), imp(imp(B, C), C)))),
            ("I7", eq(op2(IFF, A, B), op2(AND, imp(A, B), imp(B, A)))),
            ("I8", imp(Ax(v("x")), binder(EX, "x", Ax(v("x"))))),
            ("I9", imp(binder(EX, "x", Ax(v("x"))),
                       imp(all_("x", imp(Ax(v("x")), B)), B))),
        ),
        "K": (("K", op2(OR, A, neg(A))),),
        "P": (
            ("P1", nat(zero)),
            ("P2", imp(nat(n), nat(suc(n)))),
            ("P3", imp(nat(n), op2(NEQ, suc(n), zero))),
            ("P4", imp(nat(n), imp(nat(m), imp(eq(suc(n), suc(m)), eq(n, m))))),
            ("P5", imp(Px(zero),
                       imp(all_("n", imp(nat(v("n")), imp(Px(v("n")), Px(suc(v("n")))))),
                           imp(nat(n), Px(n))))),
            ("P6", imp(nat(n), eq(add(n, zero), n))),
            ("P7", imp(op2(AND, nat(n), nat(m)),
                       eq(add(n, suc(m)), suc(add(n, m))))),
            ("P8", imp(nat(n), eq(mul(n, zero), zero))),
            ("P9", imp(op2(AND, nat(n), nat(m)),
                       eq(mul(n, suc(m)), add(mul(n, m), n)))),
        ),
        "U": u_shared + (
            ("U3", imp(ex1, op2(IFF, Ax(x), eq(the, x)))),
            ("U4", imp(neg(ex1), eq(the, const(FAIL)))),
        ),
        "U'": u_shared + (
            ("U'3", imp(Ax(x), Ax(some))),
            ("U'4", imp(neg(binder(EX, "x", Ax(v("x")))), eq(some, const(FAIL)))),
        ),
    }


# the classical tower, each logic with its signature
_TOWER = {"D": SIG_D, "E": SIG_E, "F": SIG_F, "I": SIG_I, "K": SIG_K}


@cache
def builtin_logic(name: str, peano_base: str = "K") -> Logic:
    """Return a builtin logic by name: D, E, F, I, K, P, U or U'.

    P is based on K by default; pass peano_base="I" for the intuitionistic
    variant.  Logics are immutable, so each is built once and shared.
    """
    if name in _TOWER:
        below = tuple(_TOWER)[:tuple(_TOWER).index(name) + 1]
        return Logic(name, _TOWER[name], sum((_axiom_groups()[g] for g in below), ()))
    if name == "P":
        base = builtin_logic(peano_base)
        if peano_base not in ("I", "K"):
            raise UnknownLogic(f"P must be based on I or K, not {peano_base!r}")
        sig = base.signature.extend(
            d for d in SIG_P.decls if d.name not in base.signature)
        return Logic("P", sig, base.axioms + _axiom_groups()["P"])
    if name in ("U", "U'", "U′"):
        name = name.replace("′", "'")
        return Logic(name, SIG_U if name == "U" else SIG_U_PRIME,
                     builtin_logic("K").axioms + _axiom_groups()[name])
    raise UnknownLogic(f"no builtin logic named {name!r}")


BUILTIN_NAMES = ("D", "E", "F", "I", "K", "P", "U", "U'")


def is_extension(child: Logic, parent: Logic) -> bool:
    """True iff child's signature extends parent's and every parent axiom
    appears among child's axioms modulo α-equivalence.  The verdict is kept
    on child for as long as both logics live."""
    hit = child._extends.get(id(parent))
    if hit is not None:
        return hit[1]
    child_terms = child.axiom_terms
    verdict = extends_signature(child.signature, parent.signature) and all(
        any(alpha_eq(a, c) for c in child_terms) for a in parent.axiom_terms)
    child._extends[id(parent)] = (parent, verdict)
    return verdict
