"""Builtin logics D, E, F, I, K, P, U, U′ and the logic-extension relation.

Abstractions use their glyphs as canonical names; the concrete syntax also
accepts ASCII aliases (see the syntax module).
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import cache, cached_property
from types import MappingProxyType

from .errors import DuplicateAxiom, NotLogicSignature, TermError, UnknownLogic
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
from .term import Abs, DeBruijnTerm, Term, Var, check_wellformed, strip_hints
from .term import alpha_eq  # noqa: F401  (bench/tracing.py rebinds it here)
from .value import Value, _set

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


class Logic(Value):
    _fields = ("name", "signature", "axioms")

    def __init__(self, name: str, signature: Signature,
                 axioms: tuple[tuple[str, Term | DeBruijnTerm], ...]):
        if type(signature) is not Signature:  # the kernel checks terms on it
            raise NotLogicSignature(
                f"logic {name!r}: {signature!r} is not a Signature")
        if not is_logic_signature(signature):
            # the kernel's ALL builds ∀ nodes on this
            raise NotLogicSignature(
                f"logic {name!r}: signature lacks ⊤/⇒/∀ with their required shapes")
        _set(self, "name", name)
        _set(self, "signature", signature)
        # (label, node), order fixed: a term given here or to `extend` is
        # checked against the signature and kept as its nameless form
        _set(self, "axioms", _checked(axioms, signature))

    def axiom(self, label: str) -> DeBruijnTerm | None:
        """The node of the axiom labelled `label`, or None."""
        return next((a for lbl, a in self.axioms if lbl == label), None)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.axioms)

    @property
    def axiom_terms(self) -> tuple[DeBruijnTerm, ...]:
        return tuple(a for _, a in self.axioms)

    @cached_property
    def classes(self) -> Mapping[DeBruijnTerm, DeBruijnTerm]:
        """The α-class of each axiom, its node with the hints left out,
        mapped to the node of the first axiom of that class."""
        classes: dict[DeBruijnTerm, DeBruijnTerm] = {}
        for _, a in self.axioms:
            classes.setdefault(strip_hints(a), a)
        return MappingProxyType(classes)

    def extend(self, name, decls=(), axioms=()) -> "Logic":
        """This logic with decls and axioms added.  Only the added axioms
        are checked: an extended signature keeps every declaration it had,
        so this logic's axioms stay well-formed in it."""
        child = Logic(name, self.signature.extend(decls), ())
        _set(child, "axioms", self.axioms + _checked(
            axioms, child.signature, self.labels))
        return child


def _checked(axioms, sig: Signature, used=()) -> tuple[tuple[str, DeBruijnTerm], ...]:
    """Each (label, axiom) as (label, its node), checked against sig; a
    label that repeats one before it or in `used` is an error."""
    out, seen = [], set(used)
    for label, axiom in axioms:
        if label in seen:
            raise DuplicateAxiom(f"axiom label {label!r} already used")
        seen.add(label)
        try:
            out.append((label, check_wellformed(axiom, sig)))
        except TermError as e:
            raise type(e)(f"axiom {label}: {e.message}") from None
    return tuple(out)


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


# each builtin logic: the logic it is built on, and its signature
_BUILT_ON = {"D": (None, SIG_D), "E": ("D", SIG_E), "F": ("E", SIG_F),
             "I": ("F", SIG_I), "K": ("I", SIG_K), "P": ("K", SIG_P),
             "U": ("K", SIG_U), "U'": ("K", SIG_U_PRIME)}


@cache
def builtin_logic(name: str, peano_base: str = "K") -> Logic:
    """Return a builtin logic by name: D, E, F, I, K, P, U or U'.

    P is based on K by default; pass peano_base="I" for the intuitionistic
    variant.  Logics are immutable, so each is built once and shared.
    """
    name = name.replace("′", "'")
    if name not in _BUILT_ON:
        raise UnknownLogic(f"no builtin logic named {name!r}")
    below, sig = _BUILT_ON[name]
    if name == "P":
        if peano_base not in ("I", "K"):
            raise UnknownLogic(f"P must be based on I or K, not {peano_base!r}")
        below = peano_base
    base = builtin_logic(below) if below else Logic(name, sig, ())
    return base.extend(name, (d for d in sig.decls if d.name not in base.signature),
                       _axiom_groups()[name])


BUILTIN_NAMES = ("D", "E", "F", "I", "K", "P", "U", "U'")


def is_extension(child: Logic, parent: Logic) -> bool:
    """True iff child's signature extends parent's and every parent axiom
    is one of child's axioms modulo α-equivalence."""
    return (extends_signature(child.signature, parent.signature)
            and parent.classes.keys() <= child.classes.keys())
