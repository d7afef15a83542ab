"""Concrete syntax for terms and `.al` theory files, plus the printer.

`INFIX` below is the one statement of the infix operators: their ASCII
tokens, abstractions, precedence levels and associativity.  The prefix
`not` binds between `/\\` and `=`.  The term parser climbs precedence
over this table (Pratt's top-down operator precedence): one call per
operator, not one per level.  Binder sugar (`all x. t`) extends
maximally to the right and is only available at the start of a term;
elsewhere use the parenthesized form `(all x. t)`.

Both ASCII spellings and the glyphs are accepted; the printer emits ASCII
unless asked for glyphs.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import AbslogError
from .logics import Logic, builtin_logic
from .shape import (
    AbstractionDecl,
    BINDER_SHAPE,
    BINOP_SHAPE,
    Signature,
    UNOP_SHAPE,
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

# ASCII token -> (abstraction, level, associativity) of each infix operator;
# the abstraction's name is the glyph spelling.  Levels run from loosest to
# tightest: the prefix `not` binds at _NOT, and _ATOM is tighter than all.
INFIX = {
    "<->": ("⇔", 1, "left"),
    "->": ("⇒", 2, "right"),
    "\\/": ("∨", 3, "left"),
    "/\\": ("∧", 4, "left"),
    "=": ("=", 6, "none"),
    "!=": ("≠", 6, "none"),
}
_LOOSEST, _NOT, _ATOM = 1, 5, 7
OP_GLYPHS = {name: token for token, (name, _, _) in INFIX.items() if name != token}
_OPERATOR = {name: (token, level, assoc)
             for token, (name, level, assoc) in INFIX.items()}

KEYWORDS = {"logic", "abstraction", "axiom", "theorem", "proof", "qed", "model"}

# multi-character and glyph operators, longest first.  Each match takes the
# blanks before one token; `bad` takes any other character, `\Z` end blanks.
_OP_TOKENS = sorted(["==>", ":=", *INFIX, *OP_GLYPHS], key=len, reverse=True)
_TOKEN_RE = re.compile(r"""[ \t\r]*(?:
    (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<op>""" + "|".join(map(re.escape, _OP_TOKENS)) + r"""|[()\[\]{},.;:=/¬])
  | (?P<num>\d+)
  | (?P<ident>∃₁|[⊤⊥⅄∀∃]|[A-Za-z_][A-Za-z0-9_′]*)
  | (?P<bad>.)
  | \Z)""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # "op", "num", "ident", "eof"
    value: str
    line: int
    col: int  # in code points, from 1


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
        self.line, self.col = line, col
        if code:
            self.code = code


def tokenize(text: str) -> list[Token]:
    out = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind is not None and kind != "comment":
            value = m.group(kind)
            col = m.start(kind) - line_start + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {value!r}", line, col)
            if kind == "op" and value in OP_GLYPHS:
                value = OP_GLYPHS[value]
            out.append(Token(kind, value, line, col))
    out.append(Token("eof", "", line, len(text) - line_start + 1))
    return out


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead=0) -> Token:
        # `next` never moves past the eof token, and `term` looks two ahead
        # only past an ident, so the index stays in range
        return self.tokens[self.i + ahead]

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
    """Operator-precedence term parser over a signature, driven by INFIX."""

    def __init__(self, stream: _Stream, sig: Signature):
        self.s = stream
        self.sig = sig

    def resolve(self, name: str) -> AbstractionDecl | None:
        d = self.sig.get(name)
        if d is None and name in ALIAS:
            d = self.sig.get(ALIAS[name])
        return d

    def _op_decl(self, token: str, name: str) -> AbstractionDecl:
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
        return self._level(_LOOSEST)

    def _level(self, level: int) -> Term:
        """A term whose operators bind at `level` or tighter: a prefix `not`
        or an atom, then each operator below `ceiling`.  A left-associative
        operator lowers the ceiling past its own level, `->` and `=` to it,
        so `x = y = z` stops after `x = y`."""
        s = self.s
        if level <= _NOT and s.peek().value in ("not", "¬"):
            s.next()
            d = self._op_decl("not", "¬")
            left = Abs(d.name, d.shape, (), (self._level(_NOT),))
            ceiling = _NOT
        else:
            left = self.atom()
            ceiling = _ATOM
        while (op := INFIX.get(s.peek().value)) and level <= op[1] < ceiling:
            name, op_level, assoc = op
            d = self._op_decl(s.next().value, name)
            right = self._level(op_level + (assoc != "right"))
            left = Abs(d.name, d.shape, (), (left, right))
            ceiling = op_level + (assoc == "left")
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
        self.s.expect("(")
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
            with _placed(head):
                return Abs(d.name, d.shape, binders, args)
        self.s.i = mark
        inner = self.term()
        self.s.expect(")")
        return inner


_TOO_DEEP = "terms nest too deeply to parse"


def parse_term(text: str, sig: Signature) -> Term:
    stream = _Stream(tokenize(text))
    try:
        t = TermParser(stream, sig).term()
    except RecursionError:
        raise stream.error(_TOO_DEEP, "TooDeep") from None
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return t


# --- printing ---------------------------------------------------------------

def print_term(t: Term, unicode: bool = False) -> str:
    return _print(t, _LOOSEST, unicode)


def _name_out(name: str, unicode: bool) -> str:
    if unicode:
        return name
    return ASCII_NAME.get(name, name)


def _print(t: Term, level: int, uni: bool) -> str:
    if isinstance(t, Var):
        if not t.args:
            return t.name
        inner = ", ".join(_print(a, _LOOSEST, uni) for a in t.args)
        return f"{t.name}[{inner}]"
    name, shape = t.name, t.shape
    if name in _OPERATOR and shape == BINOP_SHAPE:
        token, prec, assoc = _OPERATOR[name]
        s = (f"{_print(t.args[0], prec + (assoc != 'left'), uni)} "
             f"{name if uni else token} "
             f"{_print(t.args[1], prec + (assoc != 'right'), uni)}")
        return f"({s})" if level > prec else s
    if name == "¬" and shape == UNOP_SHAPE:
        s = f"{_name_out(name, uni)} {_print(t.args[0], _NOT, uni)}"
        return f"({s})" if level > _NOT else s
    out_name = _name_out(name, uni)
    if shape.valence == 0:
        if shape.arity == 0:
            return out_name
        inner = ", ".join(_print(a, _LOOSEST, uni) for a in t.args)
        return f"{out_name}({inner})"
    if shape == BINDER_SHAPE:
        return f"({out_name} {t.binders[0]}. {_print(t.args[0], _LOOSEST, uni)})"
    args = [_print(a, _ATOM, uni) for a in t.args]
    for i, a in enumerate(t.args[:-1]):
        if isinstance(a, Abs) and not a.args:  # `c (` would read as a call
            args[i] = f"({args[i]})"
    return f"({out_name} {' '.join(t.binders)}. {' '.join(args)})"


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

    def logic(self) -> Logic:
        base_axioms = builtin_logic(self.base).axioms if self.base else ()
        return Logic("file", self.signature, base_axioms + self.axioms)


@contextmanager
def _placed(tok: Token):
    """Re-raise an error of the declaration or binding named by `tok` (an
    unknown logic, a bad shape, a duplicate abstraction or binder) as a
    ParseError there."""
    try:
        yield
    except AbslogError as e:
        raise ParseError(e.message, tok.line, tok.col, e.code) from e


class TheoryParser:
    def __init__(self, text: str):
        self.s = _Stream(tokenize(text))
        self.base: str | None = None
        # rebuilt on each `logic` and `abstraction` line
        self.terms = TermParser(self.s, Signature(()))
        self.decls: list[AbstractionDecl] = []
        self.axioms: list[tuple[str, Term]] = []
        self.theorems: list[TheoremBlock] = []
        self.models: list[ModelBlock] = []
        self.labels: set[str] = set()
        self.positions: dict[str, tuple[int, int]] = {}

    def parse(self) -> TheoryFile:
        while self.s.peek().kind != "eof":
            tok = self.s.peek()
            if tok.value == "logic":
                if self.base is not None:
                    raise ParseError(
                        f"a second logic line; the base logic is {self.base}",
                        tok.line, tok.col)
                self.s.next()
                name_tok = self.s.peek()
                name = self._ident("logic name")
                self.base = name
                with _placed(name_tok):
                    base = builtin_logic(name)
                    self.terms = TermParser(
                        self.s, base.signature.extend(self.decls))
                self.labels.update(base.labels)
                self.positions.update(
                    (label, (tok.line, tok.col)) for label in base.labels)
            elif tok.value == "abstraction":
                self.s.next()
                name_tok = self.s.peek()
                name = self._ident("abstraction name")
                if name in KEYWORDS:
                    raise ParseError(
                        f"keyword {name!r} cannot name an abstraction",
                        name_tok.line, name_tok.col)
                valence, binder_sets = self._shape()
                with _placed(name_tok):
                    decl = AbstractionDecl(name, make_shape(valence, binder_sets))
                    self.terms = TermParser(
                        self.s, self.terms.sig.extend([decl]))
                self.decls.append(decl)
            elif tok.value == "axiom":
                self.s.next()
                label = self._ident("axiom label")
                if label in self.labels:
                    raise ParseError(f"axiom label {label!r} already used",
                                     tok.line, tok.col)
                self.labels.add(label)
                self.positions[label] = (tok.line, tok.col)
                self.s.expect(":")
                self.axioms.append((label, self.terms.term()))
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

    def _num(self, message: str) -> int:
        if self.s.peek().kind != "num":
            raise self.s.error(message)
        return int(self.s.next().value)

    def _list(self, close: str, item) -> list:
        """Comma-separated items up to and including `close`; a trailing
        comma is allowed."""
        out = []
        while not self.s.at(close):
            out.append(item())
            if not self.s.accept(","):
                break
        self.s.expect(close)
        return out

    def _values(self) -> tuple[str, ...]:
        """One or more comma-separated carrier values."""
        out = [self._ident("carrier value")]
        while self.s.accept(","):
            out.append(self._ident("carrier value"))
        return tuple(out)

    def _shape(self) -> tuple[int, list[list[int]]]:
        """The valence and binder sets of `(valence; {i, ...}, ...)`."""
        self.s.expect("(")
        valence = self._num("expected valence")
        self.s.expect(";")
        return valence, self._list(")", self._binder_set)

    def _binder_set(self) -> list[int]:
        self.s.expect("{")
        return self._list("}", lambda: self._num("expected binder index"))

    def _theorem(self) -> TheoremBlock:
        head = self.s.expect("theorem")
        name = self._ident("theorem name")
        self.s.expect(":")
        statement = self.terms.term()
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
                term = self.terms.term()
        elif rule == "subst":
            refs = (self._ident("premise step"),)
            self.s.expect("{")
            sigma = Substitution(dict(self._list("}", self._binding)))
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
            claimed = self.terms.term()
        return ProofStep(name, rule, tok.line, tok.col, label, term, sigma,
                         refs, binder, claimed)

    def _model(self) -> ModelBlock:
        head = self.s.expect("model")
        name = self._ident("model name")
        self.s.expect("{")
        self.s.expect("carrier")
        carrier = self._values()
        interp = []
        while not self.s.at("}"):
            abs_name = self._ident("abstraction name")
            self.s.expect(":=")
            if self.s.accept("{"):
                interp.append((abs_name, tuple(self._list("}", self._row))))
            else:
                interp.append((abs_name, self._ident("carrier value")))
        self.s.expect("}")
        return ModelBlock(name, carrier, tuple(interp), head.line, head.col)

    def _row(self) -> tuple[TableKey, str]:
        self.s.expect("(")
        key = tuple(self._list(")", self._key_part))
        self.s.expect("->")
        return key, self._ident("carrier value")

    def _key_part(self) -> str | tuple[str, ...]:
        if not self.s.accept("["):
            return self._ident("carrier value")
        entries = self._values()
        self.s.expect("]")
        return entries

    def _binding(self) -> tuple[tuple[str, int], Template]:
        """One `name[/arity] := template` entry of a substitution literal."""
        name_tok = self.s.peek()
        name = self._ident("variable name")
        declared = None
        if self.s.accept("/"):
            declared = self._num("expected an arity after /")
        self.s.expect(":=")
        if self.s.accept("["):
            binders = []
            while not self.s.at("."):
                binders.append(self._ident("template binder"))
            self.s.expect(".")
            body = self.terms.term()
            self.s.expect("]")
            with _placed(name_tok):
                tmpl = Template(tuple(binders), body)
        else:
            tmpl = Template((), self.terms.term())
        if declared is not None and declared != tmpl.arity:
            raise self.s.error(
                f"{name}/{declared} bound to a template of arity {tmpl.arity}",
                "ArityMismatch")
        return (name, tmpl.arity), tmpl


def parse_theory(text: str) -> TheoryFile:
    parser = TheoryParser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.s.error(_TOO_DEEP, "TooDeep") from None


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
