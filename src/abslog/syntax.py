"""Concrete syntax for terms and `.al` theory files, plus the printer.

Precedence, loosest to tightest: <->, ->, \\/, /\\, not, = and !=.
`->` is right-associative, `<->` and the lattice connectives associate to
the left, `=`/`!=` do not associate.  Binder sugar (`all x. t`) extends
maximally to the right and is only available at the start of a term;
elsewhere use the parenthesized form `(all x. t)`.

Both ASCII spellings and the glyphs are accepted; the printer emits ASCII
unless asked for glyphs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import AbslogError, ArityMismatch
from .logics import Logic, builtin_logic
from .shape import (
    AbstractionDecl,
    BINDER_SHAPE,
    Shape,
    Signature,
    make_shape,
)
from .subst import Substitution, Template
from .term import Abs, Term, Var

ALIAS = {
    "true": "⊤", "imp": "⇒", "all": "∀", "eq": "=", "false": "⊥",
    "not": "¬", "neq": "≠", "and": "∧", "or": "∨", "iff": "⇔", "ex": "∃",
    "fail": "⅄", "ex1": "∃₁",
}
ASCII_NAME = {glyph: ascii_ for ascii_, glyph in ALIAS.items()}

# infix/prefix operator tokens and the abstractions they stand for
OP_GLYPHS = {"⇒": "->", "∧": "/\\", "∨": "\\/", "⇔": "<->", "≠": "!="}
INFIX = {"<->": "⇔", "->": "⇒", "\\/": "∨", "/\\": "∧", "=": "=", "!=": "≠"}

KEYWORDS = {"logic", "abstraction", "axiom", "theorem", "proof", "qed", "model"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<op>==>|<->|->|/\\|\\/|!=|:=|≠|⇒|∧|∨|⇔|[()\[\]{},.;:=/¬])
  | (?P<num>\d+)
  | (?P<ident>∃₁|[⊤⊥⅄∀∃]|[A-Za-z_][A-Za-z0-9_′]*)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # "op", "num", "ident", "eof"
    value: str
    line: int
    col: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    line: int
    col: int
    message: str
    code: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.severity}: [{self.code}] {self.message}"

    def to_json(self):
        return {"severity": self.severity, "line": self.line, "col": self.col,
                "message": self.message, "code": self.code}


class ParseError(AbslogError):
    code = "SyntaxError"

    def __init__(self, message, line, col, code=None):
        super().__init__(message)
        self.line = line
        self.col = col
        if code:
            self.code = code

    def diagnostic(self) -> Diagnostic:
        return Diagnostic("error", self.line, self.col, self.message, self.code)


class UnknownName(ParseError):
    code = "UnknownName"


def tokenize(text: str) -> list[Token]:
    out = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            if kind == "op" and value in OP_GLYPHS:
                value = OP_GLYPHS[value]
            out.append(Token(kind, value, line, col))
            col += len(m.group())
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, value: str) -> bool:
        return self.peek().value == value and self.peek().kind != "eof"

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if tok.value != value or tok.kind == "eof":
            raise ParseError(f"expected {value!r}, found {tok.value!r}",
                             tok.line, tok.col)
        return self.next()

    def error(self, message, code=None) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col, code)


class TermParser:
    """Precedence-climbing term parser over a signature."""

    def __init__(self, stream: _Stream, sig: Signature):
        self.s = stream
        self.sig = sig

    def resolve(self, name: str) -> AbstractionDecl | None:
        d = self.sig.get(name)
        if d is None and name in ALIAS:
            d = self.sig.get(ALIAS[name])
        return d

    def _op_decl(self, token: str) -> AbstractionDecl:
        name = INFIX.get(token, "¬" if token == "not" else token)
        d = self.sig.get(name)
        if d is None:
            raise self.s.error(f"operator {token!r} ({name}) is not declared",
                               "UnknownName")
        return d

    def term(self) -> Term:
        tok = self.s.peek()
        if tok.kind == "ident" and tok.value not in KEYWORDS:
            d = self.resolve(tok.value)
            if (d is not None and d.shape == BINDER_SHAPE
                    and self.s.peek(1).kind == "ident"
                    and self.s.peek(2).value == "."):
                self.s.next()
                binder = self.s.next().value
                self.s.expect(".")
                return Abs(d.name, d.shape, (binder,), (self.term(),))
        return self.iff()

    def iff(self) -> Term:
        left = self.imp()
        while self.s.at("<->"):
            d = self._op_decl(self.s.next().value)
            left = Abs(d.name, d.shape, (), (left, self.imp()))
        return left

    def imp(self) -> Term:
        left = self.or_()
        if self.s.at("->"):
            d = self._op_decl(self.s.next().value)
            return Abs(d.name, d.shape, (), (left, self.imp()))
        return left

    def or_(self) -> Term:
        left = self.and_()
        while self.s.at("\\/"):
            d = self._op_decl(self.s.next().value)
            left = Abs(d.name, d.shape, (), (left, self.and_()))
        return left

    def and_(self) -> Term:
        left = self.not_()
        while self.s.at("/\\"):
            d = self._op_decl(self.s.next().value)
            left = Abs(d.name, d.shape, (), (left, self.not_()))
        return left

    def not_(self) -> Term:
        if self.s.at("not") or self.s.at("¬"):
            self.s.next()
            d = self._op_decl("not")
            return Abs(d.name, d.shape, (), (self.not_(),))
        return self.eq()

    def eq(self) -> Term:
        left = self.atom()
        if self.s.at("=") or self.s.at("!="):
            d = self._op_decl(self.s.next().value)
            return Abs(d.name, d.shape, (), (left, self.atom()))
        return left

    def atom(self) -> Term:
        tok = self.s.peek()
        if tok.value == "(":
            return self._parens()
        if tok.kind == "ident" and tok.value not in KEYWORDS:
            self.s.next()
            d = self.resolve(tok.value)
            if d is not None:
                return self._abs_atom(tok, d)
            if self.s.accept("["):
                args = []
                if not self.s.at("]"):
                    args.append(self.term())
                    while self.s.accept(","):
                        args.append(self.term())
                self.s.expect("]")
                return Var(tok.value, tuple(args))
            return Var(tok.value)
        raise self.s.error(f"expected a term, found {tok.value!r}")

    def _abs_atom(self, tok: Token, d: AbstractionDecl) -> Term:
        shape = d.shape
        if self.s.at("("):
            if shape.valence != 0:
                raise ParseError(
                    f"{tok.value} binds variables; use ({d.name} x. ...) syntax",
                    tok.line, tok.col)
            self.s.next()
            args = []
            if not self.s.at(")"):
                args.append(self.term())
                while self.s.accept(","):
                    args.append(self.term())
            self.s.expect(")")
            if len(args) != shape.arity:
                raise ParseError(
                    f"{tok.value} expects {shape.arity} arguments, got {len(args)}",
                    tok.line, tok.col, "ArityMismatch")
            return Abs(d.name, shape, (), tuple(args))
        if shape.arity == 0:
            return Abs(d.name, shape)
        raise ParseError(
            f"{tok.value} expects arguments", tok.line, tok.col, "ArityMismatch")

    def _parens(self) -> Term:
        open_tok = self.s.expect("(")
        # abstraction application `(name binders. args)`: an ident sequence
        # followed by a dot; otherwise a parenthesized term
        mark = self.s.i
        idents = []
        while self.s.peek().kind == "ident":
            idents.append(self.s.next())
        if idents and self.s.at("."):
            self.s.next()
            head = idents[0]
            d = self.resolve(head.value)
            if d is None:
                raise ParseError(f"unknown abstraction {head.value!r}",
                                 head.line, head.col, "UnknownName")
            binders = tuple(t.value for t in idents[1:])
            if len(binders) != d.shape.valence:
                raise ParseError(
                    f"{head.value} binds {d.shape.valence} variables, got "
                    f"{len(binders)}", head.line, head.col, "ValenceMismatch")
            if d.shape.arity == 1:
                args = (self.term(),)
            else:
                args = []
                while not self.s.at(")"):
                    args.append(self.atom())
                args = tuple(args)
            self.s.expect(")")
            if len(args) != d.shape.arity:
                raise ParseError(
                    f"{head.value} expects {d.shape.arity} arguments, got "
                    f"{len(args)}", head.line, head.col, "ArityMismatch")
            return Abs(d.name, d.shape, binders, args)
        self.s.i = mark
        inner = self.term()
        self.s.expect(")")
        return inner


def parse_term(text: str, sig: Signature) -> Term:
    stream = _Stream(tokenize(text))
    t = TermParser(stream, sig).term()
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return t


# --- printing ---------------------------------------------------------------

_LVL_IFF, _LVL_IMP, _LVL_OR, _LVL_AND, _LVL_NOT, _LVL_EQ, _LVL_ATOM = range(1, 8)
_INFIX_OUT = {"⇔": ("<->", _LVL_IFF), "⇒": ("->", _LVL_IMP),
              "∨": ("\\/", _LVL_OR), "∧": ("/\\", _LVL_AND),
              "=": ("=", _LVL_EQ), "≠": ("!=", _LVL_EQ)}
_GLYPH_OUT = {"<->": "⇔", "->": "⇒", "\\/": "∨", "/\\": "∧", "!=": "≠"}


def print_term(t: Term, unicode: bool = False) -> str:
    return _print(t, _LVL_IFF, unicode)


def _name_out(name: str, unicode: bool) -> str:
    if unicode:
        return name
    return ASCII_NAME.get(name, name)


def _print(t: Term, level: int, uni: bool) -> str:
    if isinstance(t, Var):
        if not t.args:
            return t.name
        inner = ", ".join(_print(a, _LVL_IFF, uni) for a in t.args)
        return f"{t.name}[{inner}]"
    name, shape = t.name, t.shape
    if name in _INFIX_OUT and shape.arity == 2 and shape.valence == 0:
        op, prec = _INFIX_OUT[name]
        if op == "->":  # right-assoc
            s = f"{_print(t.args[0], prec + 1, uni)} {_op_out(op, uni)} " \
                f"{_print(t.args[1], prec, uni)}"
        elif prec == _LVL_EQ:  # non-assoc, atom operands
            s = f"{_print(t.args[0], _LVL_ATOM, uni)} {_op_out(op, uni)} " \
                f"{_print(t.args[1], _LVL_ATOM, uni)}"
        else:
            s = f"{_print(t.args[0], prec, uni)} {_op_out(op, uni)} " \
                f"{_print(t.args[1], prec + 1, uni)}"
        return f"({s})" if level > prec else s
    if name == "¬" and shape.arity == 1 and shape.valence == 0:
        s = ("¬" if uni else "not") + " " + _print(t.args[0], _LVL_NOT, uni)
        return f"({s})" if level > _LVL_NOT else s
    out_name = _name_out(name, uni)
    if shape.valence == 0:
        if shape.arity == 0:
            return out_name
        inner = ", ".join(_print(a, _LVL_IFF, uni) for a in t.args)
        return f"{out_name}({inner})"
    if shape == BINDER_SHAPE:
        return f"({out_name} {t.binders[0]}. {_print(t.args[0], _LVL_IFF, uni)})"
    args = " ".join(_print(a, _LVL_ATOM, uni) for a in t.args)
    return f"({out_name} {' '.join(t.binders)}. {args})"


def _op_out(op: str, uni: bool) -> str:
    return _GLYPH_OUT.get(op, op) if uni else op


# --- theory files -------------------------------------------------------------

@dataclass(frozen=True)
class ProofStep:
    name: str
    rule: str  # "ax" | "subst" | "mp" | "all" | "lemma"
    line: int = field(compare=False)
    col: int = field(compare=False)
    label: str | None = None          # ax (label form), lemma name
    term: Term | None = None          # ax (literal form)
    sigma: Substitution | None = None  # subst
    refs: tuple[str, ...] = ()        # premise step names
    binder: str | None = None         # all
    claimed: Term | None = None       # optional ==> annotation


# a table spec maps argument keys to a carrier value name; each key part is
# a value name (plain position) or a row-major entry list (bound position)
TableKey = tuple  # of str | tuple[str, ...]


@dataclass(frozen=True)
class ModelBlock:
    name: str
    carrier: tuple[str, ...]
    interp: tuple[tuple[str, str | tuple[tuple[TableKey, str], ...]], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TheoremBlock:
    name: str
    statement: Term
    steps: tuple[ProofStep, ...]
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass
class TheoryFile:
    base: str | None = None
    decls: tuple[AbstractionDecl, ...] = ()
    axioms: tuple[tuple[str, Term], ...] = ()
    theorems: tuple[TheoremBlock, ...] = ()
    models: tuple[ModelBlock, ...] = ()
    # axiom label -> (line, col) of its `axiom` keyword, or of the `logic`
    # line for an axiom of the base logic
    axiom_positions: dict[str, tuple[int, int]] = field(
        default_factory=dict, compare=False)

    def model_block(self, name: str) -> ModelBlock | None:
        for m in self.models:
            if m.name == name:
                return m
        return None

    @property
    def signature(self) -> Signature:
        base = builtin_logic(self.base).signature if self.base else Signature(())
        return base.extend(self.decls)

    def logic(self, name: str = "file") -> Logic:
        base_axioms = builtin_logic(self.base).axioms if self.base else ()
        return Logic(name, self.signature, base_axioms + self.axioms)


class TheoryParser:
    def __init__(self, text: str):
        self.s = _Stream(tokenize(text))
        self.base: str | None = None
        self.base_sig = Signature(())
        self.decls: list[AbstractionDecl] = []
        self.axioms: list[tuple[str, Term]] = []
        self.theorems: list[TheoremBlock] = []
        self.models: list[ModelBlock] = []
        self.labels: set[str] = set()
        self.positions: dict[str, tuple[int, int]] = {}

    def _sig(self) -> Signature:
        return self.base_sig.extend(self.decls)

    def _terms(self) -> TermParser:
        return TermParser(self.s, self._sig())

    def parse(self) -> TheoryFile:
        while self.s.peek().kind != "eof":
            tok = self.s.peek()
            if tok.value == "logic":
                self.s.next()
                name = self._ident("logic name")
                self.base = name
                base = builtin_logic(name)
                self.base_sig = base.signature
                self.labels.update(base.labels)
                self.positions.update(
                    (label, (tok.line, tok.col)) for label in base.labels)
            elif tok.value == "abstraction":
                self.s.next()
                name = self._ident("abstraction name")
                self.decls.append(AbstractionDecl(name, self._shape()))
            elif tok.value == "axiom":
                self.s.next()
                label = self._ident("axiom label")
                if label in self.labels:
                    raise ParseError(f"axiom label {label!r} already used",
                                     tok.line, tok.col)
                self.labels.add(label)
                self.positions[label] = (tok.line, tok.col)
                self.s.expect(":")
                self.axioms.append((label, self._terms().term()))
            elif tok.value == "theorem":
                self.theorems.append(self._theorem())
            elif tok.value == "model":
                self.models.append(self._model())
            else:
                raise self.s.error(
                    f"expected a declaration, found {tok.value!r}")
        return TheoryFile(self.base, tuple(self.decls), tuple(self.axioms),
                          tuple(self.theorems), tuple(self.models),
                          self.positions)

    def _ident(self, what: str) -> str:
        tok = self.s.peek()
        if tok.kind != "ident":
            raise self.s.error(f"expected {what}, found {tok.value!r}")
        return self.s.next().value

    def _shape(self) -> Shape:
        self.s.expect("(")
        tok = self.s.peek()
        if tok.kind != "num":
            raise self.s.error("expected valence")
        valence = int(self.s.next().value)
        self.s.expect(";")
        sets = []
        while not self.s.at(")"):
            sets.append(self._binder_set())
            if not self.s.accept(","):
                break
        self.s.expect(")")
        return make_shape(valence, sets)

    def _binder_set(self) -> list[int]:
        self.s.expect("{")
        out = []
        while not self.s.at("}"):
            tok = self.s.peek()
            if tok.kind != "num":
                raise self.s.error("expected binder index")
            out.append(int(self.s.next().value))
            if not self.s.accept(","):
                break
        self.s.expect("}")
        return out

    def _theorem(self) -> TheoremBlock:
        head = self.s.expect("theorem")
        name = self._ident("theorem name")
        self.s.expect(":")
        statement = self._terms().term()
        self.s.expect("proof")
        steps = []
        while not self.s.at("qed"):
            steps.append(self._step())
        self.s.expect("qed")
        return TheoremBlock(name, statement, tuple(steps), head.line, head.col)

    def _step(self) -> ProofStep:
        tok = self.s.peek()
        name = self._ident("step name")
        self.s.expect(":")
        rule = self._ident("proof rule")
        label = term = sigma = binder = claimed = None
        refs: tuple[str, ...] = ()
        if rule == "ax":
            nxt = self.s.peek()
            if nxt.kind == "ident" and nxt.value in self.labels:
                label = self.s.next().value
            else:
                term = self._terms().term()
        elif rule == "subst":
            refs = (self._ident("premise step"),)
            sigma = self._subst_literal()
        elif rule == "mp":
            refs = (self._ident("premise step"), self._ident("premise step"))
        elif rule == "all":
            binder = self._ident("bound variable")
            refs = (self._ident("premise step"),)
        elif rule == "lemma":
            label = self._ident("lemma name")
        else:
            raise ParseError(f"unknown proof rule {rule!r}", tok.line, tok.col)
        if self.s.accept("==>"):
            claimed = self._terms().term()
        return ProofStep(name, rule, tok.line, tok.col, label, term, sigma,
                         refs, binder, claimed)

    def _model(self) -> ModelBlock:
        head = self.s.expect("model")
        name = self._ident("model name")
        self.s.expect("{")
        self.s.expect("carrier")
        carrier = [self._ident("carrier value")]
        while self.s.accept(","):
            carrier.append(self._ident("carrier value"))
        interp = []
        while not self.s.at("}"):
            abs_name = self._ident("abstraction name")
            self.s.expect(":=")
            if self.s.at("{"):
                interp.append((abs_name, self._table()))
            else:
                interp.append((abs_name, self._ident("carrier value")))
        self.s.expect("}")
        return ModelBlock(name, tuple(carrier), tuple(interp),
                          head.line, head.col)

    def _table(self) -> tuple:
        self.s.expect("{")
        rows = []
        while not self.s.at("}"):
            self.s.expect("(")
            key = []
            while not self.s.at(")"):
                if self.s.accept("["):
                    entries = [self._ident("carrier value")]
                    while self.s.accept(","):
                        entries.append(self._ident("carrier value"))
                    self.s.expect("]")
                    key.append(tuple(entries))
                else:
                    key.append(self._ident("carrier value"))
                if not self.s.accept(","):
                    break
            self.s.expect(")")
            self.s.expect("->")
            rows.append((tuple(key), self._ident("carrier value")))
            if not self.s.accept(","):
                break
        self.s.expect("}")
        return tuple(rows)

    def _subst_literal(self) -> Substitution:
        self.s.expect("{")
        mapping: dict[tuple[str, int], Template] = {}
        while not self.s.at("}"):
            name = self._ident("variable name")
            declared = None
            if self.s.accept("/"):
                tok = self.s.peek()
                if tok.kind != "num":
                    raise self.s.error("expected an arity after /")
                declared = int(self.s.next().value)
            self.s.expect(":=")
            if self.s.at("["):
                self.s.next()
                binders = []
                while not self.s.at("."):
                    binders.append(self._ident("template binder"))
                self.s.expect(".")
                body = self._terms().term()
                self.s.expect("]")
                tmpl = Template(tuple(binders), body)
            else:
                tmpl = Template((), self._terms().term())
            if declared is not None and declared != tmpl.arity:
                raise self.s.error(
                    f"{name}/{declared} bound to a template of arity {tmpl.arity}",
                    "ArityMismatch")
            mapping[(name, tmpl.arity)] = tmpl
            if not self.s.accept(","):
                break
        self.s.expect("}")
        return Substitution(mapping)


def parse_theory(text: str) -> TheoryFile:
    return TheoryParser(text).parse()


# theory printing (round-trip support)

def print_theory(tf: TheoryFile, unicode: bool = False) -> str:
    lines = []
    if tf.base:
        lines.append(f"logic {tf.base}")
    for d in tf.decls:
        lines.append(f"abstraction {d.name} {d.shape}")
    for label, term in tf.axioms:
        lines.append(f"axiom {label}: {print_term(term, unicode)}")
    for block in tf.theorems:
        lines.append(f"theorem {block.name}: {print_term(block.statement, unicode)}")
        lines.append("proof")
        for st in block.steps:
            lines.append("  " + _print_step(st, unicode))
        lines.append("qed")
    for m in tf.models:
        lines.append(f"model {m.name} {{")
        lines.append("  carrier " + ", ".join(m.carrier))
        for abs_name, spec in m.interp:
            if isinstance(spec, str):
                lines.append(f"  {abs_name} := {spec}")
            else:
                rows = ", ".join(f"({_print_key(key)}) -> {value}"
                                 for key, value in spec)
                lines.append(f"  {abs_name} := {{ {rows} }}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _print_key(key: tuple) -> str:
    parts = []
    for part in key:
        if isinstance(part, tuple):
            parts.append("[" + ", ".join(part) + "]")
        else:
            parts.append(part)
    return ", ".join(parts)


def _print_step(st: ProofStep, uni: bool) -> str:
    if st.rule == "ax":
        body = f"ax {st.label}" if st.label else f"ax {print_term(st.term, uni)}"
    elif st.rule == "subst":
        body = f"subst {st.refs[0]} {_print_subst(st.sigma, uni)}"
    elif st.rule == "mp":
        body = f"mp {st.refs[0]} {st.refs[1]}"
    elif st.rule == "all":
        body = f"all {st.binder} {st.refs[0]}"
    else:
        body = f"lemma {st.label}"
    out = f"{st.name}: {body}"
    if st.claimed is not None:
        out += f" ==> {print_term(st.claimed, uni)}"
    return out


def _print_subst(sigma: Substitution, uni: bool) -> str:
    parts = []
    for (name, arity), tmpl in sorted(sigma.items()):
        if arity == 0:
            parts.append(f"{name} := {print_term(tmpl.body, uni)}")
        else:
            parts.append(f"{name}/{arity} := [{' '.join(tmpl.binders)}. "
                         f"{print_term(tmpl.body, uni)}]")
    return "{ " + ", ".join(parts) + " }"
