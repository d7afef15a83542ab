"""Concrete syntax for terms and `.al` theory files, plus the printer.

`INFIX` below is the one statement of the infix operators: their ASCII
tokens, abstractions, precedence levels and associativity.  The prefix
`not` binds between `/\\` and `=`.  The term parser climbs precedence
over this table (Pratt's top-down operator precedence): one call per
operator, not one per level.  Binder sugar (`all x. t`) extends
maximally to the right and is only available at the start of a term;
elsewhere use the parenthesized form `(all x. t)`.  Both ASCII spellings
and the glyphs are accepted; the printer emits ASCII unless asked.

A written term enters the nameless form of term.py here: the term parser
builds nodes, resolving each name against the binders in scope.  A file's
axioms and proof terms stay nodes; `parse_term` names its node.

`tokenize` returns `Tokens`: parallel arrays of kinds and values, from one
`findall` of one regex, with no offsets.  A proof step, a block, a model
row and an axiom label keep the index of their token, and their line and
column are worked out when read: `Tokens.position` scans the text again
with the same regex, a long text only from the end nearer the token, and
counts the line breaks before the token's offset.  So a file that parses
and checks cleanly never works out an offset.  Both parsers read the arrays
through one shared index.  A proof step checks its names and punctuation
(`name: rule`, the premises of `mp` and `subst`, each `NAME := term`
binding) on the arrays themselves, and raises each error at its token as
`_ident` and `expect` would.  A step and a theorem block are tuples of
their fields (`_Parsed`), so building one costs no call per field.
"""
from __future__ import annotations

import re
from collections import namedtuple
from contextlib import contextmanager
from itertools import islice

from .errors import AbslogError
from .logics import Logic, builtin_logic
from .nameless import _check_abs
from .shape import (
    AbstractionDecl,
    BINDER_SHAPE,
    BINOP_SHAPE,
    Signature,
    UNOP_SHAPE,
    make_shape,
)
from .subst import Substitution, Template, _named
from .term import Abs, DeBruijnTerm, Term, Var, _lookup
from .value import Value

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

# multi-character and glyph operators, longest first, and one-character
# punctuation.  Each match takes the blanks, line breaks and comments before
# one token, then the token as its one group: an operator, an identifier or
# a number, any other character (an error), or "" at the end of the text.
_OP_TOKENS = sorted(["==>", ":=", *INFIX, *OP_GLYPHS], key=len, reverse=True)
_PUNCTUATION = "()[]{},.;:=/¬"
_TOKEN_RE = re.compile(r"""(?:[ \t\r\n]|\#[^\n]*)*(
    """ + "|".join(map(re.escape, _OP_TOKENS)) + "|[" + re.escape(_PUNCTUATION) + r"""]
  | ∃₁|[⊤⊥⅄∀∃]|[A-Za-z_][A-Za-z0-9_′]*
  | \d+
  | .
  | \Z)""", re.VERBOSE)
# the kind of a token: of an operator or "" (eof) by its value, else of an
# identifier or a number by its first character; a glyph operator is "op"
# once translated through OP_GLYPHS, and a number may also start with a
# decimal digit other than 0-9, which `\d` matches
_KIND = {"": "eof", **dict.fromkeys([*_OP_TOKENS, *_PUNCTUATION], "op"),
         **dict.fromkeys(OP_GLYPHS, "glyph")}
_FIRST = {**dict.fromkeys("⊤⊥⅄∀∃_abcdefghijklmnopqrstuvwxyz"
                          "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "ident"),
          **dict.fromkeys("0123456789", "num")}
_SPAN = 1024  # Tokens.position scans a text longer than this in part


class Tokens:
    """The tokens of `text` as parallel arrays, the eof token last: each
    token's kind ("op", "num", "ident" or "eof") and its value (an operator
    in its ASCII spelling, "" at eof).  No token knows where it starts:
    `position` scans the text once more for the offsets, unless `starts`
    were given, and counts the line breaks before the offset it needs."""
    __slots__ = ("kinds", "values", "text", "_starts", "_first")

    def __init__(self, kinds: list[str], values: list[str], text: str,
                 starts: list[int] | None = None):
        self.kinds, self.values, self.text = kinds, values, text
        self._starts, self._first = starts, None

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tokens)
                and (self.kinds, self.values, self.text, self.starts())
                == (other.kinds, other.values, other.text, other.starts()))

    def __repr__(self) -> str:
        return f"Tokens({self.kinds!r}, {self.values!r}, {self.text!r})"

    def starts(self) -> list[int]:
        """The offset where each token starts, eof at the end of the text."""
        if self._starts is None:
            found = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
            self._starts = found[:len(self.kinds)]
        return self._starts

    def _offset(self, i: int) -> int:
        """Where token `i` starts.  The first token asked for in a text over
        _SPAN long is found from the text's nearer end (no token or comment
        crosses a line break, so a scan may start at any line start); any
        other is read from one scan of the whole text."""
        text, n, first = self.text, len(self.kinds), self._first
        if first is None and self._starts is None and len(text) > _SPAN:
            if 2 * i < n:
                offset = next(islice(_TOKEN_RE.finditer(text), i, None)).start(1)
            else:
                span = _SPAN
                while True:  # ever longer tails, each from a line start
                    tail = [m.start(1) for m in _TOKEN_RE.finditer(
                        text, text.rfind("\n", 0, max(len(text) - span, 0)) + 1)]
                    if len(tail) > 1 and tail[-2] == len(text):  # blanks ended the text
                        del tail[-1]
                    if i >= n - len(tail):
                        break
                    span *= 4
                offset = tail[i - n + len(tail)]
            self._first = first = i, offset
        return first[1] if first is not None and first[0] == i else self.starts()[i]

    def position(self, i: int) -> tuple[int, int]:
        """The line and column, both from 1, of token `i`; the column
        counts code points."""
        offset = self._offset(i)
        start = self.text.rfind("\n", 0, offset) + 1
        return self.text.count("\n", 0, start) + 1, offset - start + 1


class Diagnostic(Value):
    __slots__ = _fields = ("severity", "line", "col", "message", "code")

    def __init__(self, severity: str, line: int, col: int, message: str, code: str):
        self._init(severity, line, col, message, code)

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


def tokenize(text: str) -> Tokens:
    values = _TOKEN_RE.findall(text)
    if len(values) > 1 and values[-2] == "":  # blanks ended the text
        del values[-1]
    get, first = _KIND.get, _FIRST.get
    kinds = [get(v) or first(v[0]) for v in values]
    if None in kinds:  # a number in other digits, or any other character
        for i, value in enumerate(values):
            if kinds[i] is None:
                if not value.isdecimal():
                    raise ParseError(f"unexpected character {value!r}",
                                     *Tokens(kinds, values, text).position(i))
                kinds[i] = "num"
    if "glyph" in kinds:
        for i, kind in enumerate(kinds):
            if kind == "glyph":
                kinds[i], values[i] = "op", OP_GLYPHS[values[i]]
    return Tokens(kinds, values, text)


class TermParser:
    """Operator-precedence term parser over a signature, driven by INFIX.

    It reads the token arrays at index `i`, which it moves past what it
    parses; a TheoryParser reads and moves the same index between terms.
    `i` never passes the eof token: a token is only consumed after its
    value or kind is checked, and eof's value "" matches no literal."""

    def __init__(self, tokens: Tokens, sig: Signature):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.values = tokens.values
        self.i = 0
        self.sig = sig
        self.frames: list[tuple[str, ...]] = []  # binders in scope, outermost first

    # cold paths: errors and the rare constructs
    def error_at(self, i: int, message: str, code=None) -> ParseError:
        return ParseError(message, *self.tokens.position(i), code)

    def error(self, message: str, code=None) -> ParseError:
        return self.error_at(self.i, message, code)

    def accept(self, value: str) -> bool:
        if self.values[self.i] == value:
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> None:
        found = self.values[self.i]
        if found != value:
            raise self.error(f"expected {value!r}, found {found!r}")
        self.i += 1

    def resolve(self, name: str) -> AbstractionDecl | None:
        d = self.sig.get(name)
        if d is None and name in ALIAS:
            d = self.sig.get(ALIAS[name])
        return d

    def _undeclared(self, token: str, name: str) -> ParseError:
        return self.error(f"operator {token!r} ({name}) is not declared",
                          "UnknownName")

    def term(self) -> DeBruijnTerm:
        i, kinds, values = self.i, self.kinds, self.values
        # binder sugar `all x. t`; an ident is never the eof token, and
        # neither is one after it, so i + 2 is in range
        if (kinds[i] == "ident" and kinds[i + 1] == "ident"
                and values[i + 2] == "." and values[i] not in KEYWORDS):
            d = self.resolve(values[i])
            if d is not None and d.shape == BINDER_SHAPE:
                self.i = i + 3
                x = values[i + 1]
                self.frames.append((x,))
                body = self.term()
                self.frames.pop()
                return ("A", d.name, d.shape, (x,), (body,))
        return self._level(_LOOSEST)

    def _level(self, level: int) -> DeBruijnTerm:
        """A term whose operators bind at `level` or tighter: a prefix `not`
        or an atom, then each operator below `ceiling`.  A left-associative
        operator lowers the ceiling past its own level, `->` and `=` to it,
        so `x = y = z` stops after `x = y`."""
        values = self.values
        if level <= _NOT and values[self.i] in ("not", "¬"):
            self.i += 1
            d = self.sig.get("¬")
            if d is None:
                raise self._undeclared("not", "¬")
            left = ("A", d.name, d.shape, (), (self._level(_NOT),))
            ceiling = _NOT
        else:
            left = self.atom()
            ceiling = _ATOM
        while ((op := INFIX.get(token := values[self.i]))
               and level <= op[1] < ceiling):
            name, op_level, assoc = op
            self.i += 1
            d = self.sig.get(name)
            if d is None:
                raise self._undeclared(token, name)
            right = self._level(op_level + (assoc != "right"))
            left = ("A", d.name, d.shape, (), (left, right))
            ceiling = op_level + (assoc == "left")
        return left

    def atom(self) -> DeBruijnTerm:
        i = self.i
        value = self.values[i]
        if value == "(":
            return self._parens()
        if self.kinds[i] == "ident" and value not in KEYWORDS:
            self.i = i + 1
            d = self.sig.get(value)  # resolve(value), inlined
            if d is None and value in ALIAS:
                d = self.sig.get(ALIAS[value])
            if d is not None:
                return self._abs_atom(i, d)
            if self.values[i + 1] == "[":
                self.i = i + 2
                return ("v", value, self._args("]"))
            k = _lookup(value, self.frames) if self.frames else None
            return ("v", value, ()) if k is None else ("b", k)
        raise self.error(f"expected a term, found {value!r}")

    def _args(self, close: str) -> tuple[DeBruijnTerm, ...]:
        """Comma-separated terms up to and including `close`."""
        args = []
        values = self.values
        if values[self.i] != close:
            args.append(self.term())
            while values[self.i] == ",":
                self.i += 1
                args.append(self.term())
        self.expect(close)
        return tuple(args)

    def _abs_atom(self, at: int, d: AbstractionDecl) -> DeBruijnTerm:
        """The abstraction `d`, named by token `at`, with its arguments."""
        shape, written = d.shape, self.values[at]
        if self.values[self.i] == "(":
            if shape.valence != 0:
                raise self.error_at(
                    at, f"{written} binds variables; use ({d.name} x. ...) syntax")
            self.i += 1
            args = self._args(")")
            if len(args) != shape.arity:
                raise self.error_at(
                    at, f"{written} expects {shape.arity} arguments, got {len(args)}",
                    "ArityMismatch")
            return ("A", d.name, shape, (), args)
        if shape.arity == 0:
            return ("A", d.name, shape, (), ())
        raise self.error_at(at, f"{written} expects arguments", "ArityMismatch")

    def _parens(self) -> DeBruijnTerm:
        # abstraction application `(name binders. args)`: an ident sequence
        # followed by a dot; otherwise a parenthesized term
        kinds, values = self.kinds, self.values
        head = j = self.i + 1
        while kinds[j] == "ident":
            j += 1
        if j == head or values[j] != ".":
            self.i = head
            inner = self.term()
            self.expect(")")
            return inner
        self.i = j + 1
        written = values[head]
        d = self.resolve(written)
        if d is None:
            raise self.error_at(head, f"unknown abstraction {written!r}",
                                "UnknownName")
        binders = tuple(values[head + 1:j])
        shape = d.shape
        if len(binders) != shape.valence:
            raise self.error_at(
                head, f"{written} binds {shape.valence} variables, got "
                f"{len(binders)}", "ValenceMismatch")
        # argument i sees its binder set; one past the arity, an error, none
        frames = [tuple(binders[j] for j in p) for p in shape.binder_sets] + [()]
        if shape.arity == 1:
            self.frames.append(frames[0])
            args = (self.term(),)
            self.frames.pop()
        else:
            args = []
            while values[self.i] != ")":
                self.frames.append(frames[min(len(args), shape.arity)])
                args.append(self.atom())
                self.frames.pop()
            args = tuple(args)
        self.expect(")")
        if len(args) != shape.arity:
            raise self.error_at(
                head, f"{written} expects {shape.arity} arguments, got "
                f"{len(args)}", "ArityMismatch")
        with _placed(self.tokens, head):
            _check_abs(d.name, shape, binders, args)
        return ("A", d.name, shape, binders, args)


_TOO_DEEP = "terms nest too deeply to parse"


def parse_term(text: str, sig: Signature) -> Term:
    parser = TermParser(tokenize(text), sig)
    try:
        node = parser.term()
        if parser.kinds[parser.i] != "eof":
            raise parser.error(f"trailing input {parser.values[parser.i]!r}")
        return _named(node, [])
    except RecursionError:
        raise parser.error(_TOO_DEEP, "TooDeep") from None


# --- printing ---------------------------------------------------------------

def print_term(t: Term | DeBruijnTerm, unicode: bool = False) -> str:
    """t printed, or the term that a node names (subst._named)."""
    return _print(_named(t, []) if isinstance(t, tuple) else t, _LOOSEST, unicode)


def _name_out(name: str, unicode: bool) -> str:
    return name if unicode else ASCII_NAME.get(name, name)


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

class _AtToken:
    """A parsed item that keeps `at`, the index of its first token in
    `tokens`: its line and column are worked out when read."""
    __slots__ = ()
    tokens: Tokens
    at: int

    @property
    def line(self) -> int:
        return self.tokens.position(self.at)[0]

    @property
    def col(self) -> int:
        return self.tokens.position(self.at)[1]


class _Parsed(_AtToken):
    """A parsed item held as the tuple of its fields: immutable, built
    without a call per field, and equal only to an item of its own class
    whose fields other than `tokens` and `at` are equal."""
    __slots__ = ()

    def _value(self) -> tuple:
        """The fields other than `tokens` and `at`, which come in a row."""
        i = self._fields.index("tokens")
        return self[:i] + self[i + 2:]

    def __eq__(self, other):
        return type(other) is type(self) and self._value() == other._value()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self)
            if name != "tokens"))


class ProofStep(_Parsed, namedtuple("ProofStep", (
        "name", "rule", "tokens", "at", "label", "term", "sigma", "refs",
        "binder", "claimed"), defaults=(None, None, None, (), None, None))):
    """One step of a proof, `at` the token of its name.  `rule` is "ax",
    "subst", "mp", "all" or "lemma"; `label` the axiom label of an `ax`
    step that cites one, or a lemma's name; `term` the literal of any other
    `ax` step, a node as all terms here; `sigma` a `subst` step's
    substitution, its template bodies nodes; `refs` the names of the
    premise steps; `binder` an `all` step's variable; `claimed` the `==>`
    annotation.  A field a rule does not use is None, or () for `refs`."""
    __slots__ = ()


# a table spec maps argument keys to a carrier value name; each key part is
# a value name (plain position) or a row-major entry list (bound position)
TableKey = tuple  # of str | tuple[str, ...]


class ModelBlock(_AtToken, Value):
    """A model block; `at` is its `model` keyword, `entry_at` the token of
    each entry's abstraction name and `row_at` that of the `(` of each of
    its rows (none for a value).  Tokens and token indices are not
    compared, and only `at` is shown."""
    __slots__ = _fields = ("name", "carrier", "interp", "tokens", "at",
                           "entry_at", "row_at")
    _uncompared = ("tokens", "at", "entry_at", "row_at")
    _unshown = ("tokens", "entry_at", "row_at")

    def __init__(self, name: str, carrier: tuple[str, ...],
                 interp: tuple[tuple[str, str | tuple[tuple[TableKey, str], ...]], ...],
                 tokens: Tokens, at: int, entry_at: tuple[int, ...],
                 row_at: tuple[tuple[int, ...], ...]):
        self._init(name, carrier, interp, tokens, at, entry_at, row_at)

    def position(self, entry: int | None = None,
                 row: int | None = None) -> tuple[int, int]:
        """The line and column of row `row` of entry `entry` of `interp`, of
        the entry itself without a row, and of the `model` keyword without
        an entry."""
        if entry is None:
            return self.tokens.position(self.at)
        if row is None:
            return self.tokens.position(self.entry_at[entry])
        return self.tokens.position(self.row_at[entry][row])


class TheoremBlock(_Parsed, namedtuple("TheoremBlock", (
        "name", "node", "steps", "tokens", "at"))):
    """A theorem, its statement `node` in nameless form, and its proof
    `steps`; `at` is its `theorem` keyword."""
    __slots__ = ()

    @property
    def statement(self) -> Term:
        return _named(self.node, [])


class TheoryFile(Value):
    """A parsed file: its axioms are (label, parsed node) pairs.  `tokens`
    are the tokens it was parsed from, and `axiom_at` maps each axiom label
    to the index of its `axiom` keyword, or of the `logic` keyword for an
    axiom of the base logic (a fresh dict unless given); neither is
    compared or shown."""
    __slots__ = _fields = ("base", "decls", "axioms", "theorems", "models",
                           "tokens", "axiom_at")
    _uncompared = _unshown = ("tokens", "axiom_at")

    def __init__(self, base: str | None = None, decls: tuple[AbstractionDecl, ...] = (),
                 axioms: tuple[tuple[str, DeBruijnTerm], ...] = (),
                 theorems: tuple[TheoremBlock, ...] = (),
                 models: tuple[ModelBlock, ...] = (), tokens: Tokens | None = None,
                 axiom_at: dict[str, int] | None = None):
        self._init(base, decls, axioms, theorems, models, tokens,
                   {} if axiom_at is None else axiom_at)

    @property
    def axiom_positions(self) -> dict[str, tuple[int, int]]:
        """Axiom label -> the line and column of its `axiom_at` token."""
        return {label: self.tokens.position(i)
                for label, i in self.axiom_at.items()}

    def model_block(self, name: str) -> ModelBlock | None:
        return next((m for m in self.models if m.name == name), None)

    @property
    def signature(self) -> Signature:
        base = builtin_logic(self.base).signature if self.base else Signature(())
        return base.extend(self.decls)

    def logic(self) -> Logic:
        if self.base:
            return builtin_logic(self.base).extend("file", self.decls, self.axioms)
        return Logic("file", self.signature, self.axioms)


@contextmanager
def _placed(tokens: Tokens, i: int):
    """Re-raise an error of the declaration or binding named by token `i`
    (an unknown logic, a bad shape, a duplicate abstraction or binder) as a
    ParseError there."""
    try:
        yield
    except AbslogError as e:
        raise ParseError(e.message, *tokens.position(i), e.code) from e


class TheoryParser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.kinds, self.values = self.tokens.kinds, self.tokens.values
        self.base: str | None = None
        # holds the token index both parsers move; its signature is
        # extended on each `logic` and `abstraction` line
        self.terms = TermParser(self.tokens, Signature(()))
        self.decls: list[AbstractionDecl] = []
        self.axioms: list[tuple[str, DeBruijnTerm]] = []
        self.theorems: list[TheoremBlock] = []
        self.models: list[ModelBlock] = []
        self.labels: dict[str, int] = {}  # axiom label -> its token index

    def parse(self) -> TheoryFile:
        p = self.terms
        while self.kinds[p.i] != "eof":
            at = p.i
            value = self.values[at]
            if value == "logic":
                if self.base is not None:
                    raise p.error(
                        f"a second logic line; the base logic is {self.base}")
                p.i += 1
                name = self._ident("logic name")
                self.base = name
                with _placed(self.tokens, at + 1):
                    base = builtin_logic(name)
                    p.sig = base.signature.extend(self.decls)
                repeated = [lbl for lbl in base.labels if lbl in self.labels]
                if repeated:
                    raise p.error_at(at, f"axiom label {repeated[0]!r} already used")
                self.labels.update((label, at) for label in base.labels)
            elif value == "abstraction":
                p.i += 1
                name = self._ident("abstraction name")
                if name in KEYWORDS:
                    raise p.error_at(
                        at + 1, f"keyword {name!r} cannot name an abstraction")
                valence, binder_sets = self._shape()
                with _placed(self.tokens, at + 1):
                    decl = AbstractionDecl(name, make_shape(valence, binder_sets))
                    p.sig = p.sig.extend([decl])
                self.decls.append(decl)
            elif value == "axiom":
                p.i += 1
                label = self._ident("axiom label")
                if label in self.labels:
                    raise p.error_at(at, f"axiom label {label!r} already used")
                self.labels[label] = at
                p.expect(":")
                self.axioms.append((label, p.term()))
            elif value == "theorem":
                self.theorems.append(self._theorem())
            elif value == "model":
                self.models.append(self._model())
            else:
                raise p.error(f"expected a declaration, found {value!r}")
        return TheoryFile(self.base, tuple(self.decls), tuple(self.axioms),
                          tuple(self.theorems), tuple(self.models),
                          self.tokens, self.labels)

    def _expected(self, i: int, what: str) -> ParseError:
        """The error at token `i`, where `what` was expected."""
        return self.terms.error_at(i, f"expected {what}, found {self.values[i]!r}")

    def _ident(self, what: str) -> str:
        p = self.terms
        i = p.i
        if self.kinds[i] != "ident":
            raise self._expected(i, what)
        p.i = i + 1
        return self.values[i]

    def _num(self, message: str) -> int:
        p = self.terms
        i = p.i
        if self.kinds[i] != "num":
            raise p.error(message)
        p.i = i + 1
        return int(self.values[i])

    def _list(self, close: str, item, *args) -> list:
        """Comma-separated items `item(*args)` up to and including `close`;
        a trailing comma is allowed."""
        p, values = self.terms, self.values
        out = []
        while values[p.i] != close:
            out.append(item(*args))
            if values[p.i] != ",":
                break
            p.i += 1
        p.expect(close)
        return out

    def _values(self) -> tuple[str, ...]:
        """One or more comma-separated carrier values."""
        out = [self._ident("carrier value")]
        while self.terms.accept(","):
            out.append(self._ident("carrier value"))
        return tuple(out)

    def _shape(self) -> tuple[int, list[list[int]]]:
        """The valence and binder sets of `(valence; {i, ...}, ...)`."""
        self.terms.expect("(")
        valence = self._num("expected valence")
        self.terms.expect(";")
        return valence, self._list(")", self._binder_set)

    def _binder_set(self) -> list[int]:
        self.terms.expect("{")
        return self._list("}", self._num, "expected binder index")

    def _theorem(self) -> TheoremBlock:
        p = self.terms
        head = p.i
        p.i += 1  # `theorem`
        name = self._ident("theorem name")
        p.expect(":")
        node = p.term()
        p.expect("proof")
        steps = []
        while self.values[p.i] != "qed":
            steps.append(self._step())
        p.i += 1
        return TheoremBlock(name, node, tuple(steps), self.tokens, head)

    def _step(self) -> ProofStep:
        """One proof step.  Its tokens up to the first term are read off the
        token arrays, each checked where `_ident` or `expect` would check it
        and raising the error they would raise at that token.  A token after
        an ident or a literal is never past eof."""
        p, kinds, values = self.terms, self.kinds, self.values
        at = p.i
        if kinds[at] != "ident":
            raise self._expected(at, "step name")
        if values[at + 1] != ":":
            raise self._expected(at + 1, "':'")
        i = at + 2
        if kinds[i] != "ident":
            raise self._expected(i, "proof rule")
        rule = values[i]
        p.i = i = i + 1
        label = term = sigma = binder = claimed = None
        refs: tuple[str, ...] = ()
        if rule == "ax":
            if kinds[i] == "ident" and values[i] in self.labels:
                label = values[i]
                p.i = i + 1
            else:
                term = p.term()
        elif rule == "subst":
            if kinds[i] != "ident":
                raise self._expected(i, "premise step")
            if values[i + 1] != "{":
                raise self._expected(i + 1, "'{'")
            refs = (values[i],)
            p.i = i + 2
            bindings: dict[tuple[str, int], Template] = {}
            self._list("}", self._binding, bindings)
            sigma = Substitution(bindings)
        elif rule == "mp":
            if kinds[i] != "ident":
                raise self._expected(i, "premise step")
            if kinds[i + 1] != "ident":
                raise self._expected(i + 1, "premise step")
            refs = (values[i], values[i + 1])
            p.i = i + 2
        elif rule == "all":
            binder = self._ident("bound variable")
            refs = (self._ident("premise step"),)
        elif rule == "lemma":
            label = self._ident("lemma name")
        else:
            raise p.error_at(at, f"unknown proof rule {rule!r}")
        if values[p.i] == "==>":
            p.i += 1
            claimed = p.term()
        return ProofStep(values[at], rule, self.tokens, at, label, term,
                         sigma, refs, binder, claimed)

    def _model(self) -> ModelBlock:
        p = self.terms
        head = p.i
        p.i += 1  # `model`
        name = self._ident("model name")
        p.expect("{")
        p.expect("carrier")
        carrier = self._values()
        interp, entry_at, row_at = [], [], []
        while self.values[p.i] != "}":
            entry_at.append(p.i)
            abs_name = self._ident("abstraction name")
            p.expect(":=")
            if p.accept("{"):
                rows = self._list("}", self._row)
                interp.append((abs_name, tuple((key, out) for _, key, out in rows)))
                row_at.append(tuple(at for at, _, _ in rows))
            else:
                interp.append((abs_name, self._ident("carrier value")))
                row_at.append(())
        p.expect("}")
        return ModelBlock(name, carrier, tuple(interp), self.tokens, head,
                          tuple(entry_at), tuple(row_at))

    def _row(self) -> tuple[int, TableKey, str]:
        """The token index of a row's `(`, its key and its value."""
        at = self.terms.i
        self.terms.expect("(")
        key = tuple(self._list(")", self._key_part))
        self.terms.expect("->")
        return at, key, self._ident("carrier value")

    def _key_part(self) -> str | tuple[str, ...]:
        if not self.terms.accept("["):
            return self._ident("carrier value")
        entries = self._values()
        self.terms.expect("]")
        return entries

    def _binding(self, out: dict[tuple[str, int], Template]) -> None:
        """One `name[/arity] := template` entry of a substitution literal,
        added to `out`; a key already there is an error at this entry.  The
        name and `:=` are checked on the token arrays, as `_step` checks."""
        p, values = self.terms, self.values
        at = p.i
        if self.kinds[at] != "ident":
            raise self._expected(at, "variable name")
        name = values[at]
        p.i = i = at + 1
        declared = None
        if values[i] == "/":
            p.i += 1
            declared = self._num("expected an arity after /")
            i = p.i
        if values[i] != ":=":
            raise self._expected(i, "':='")
        p.i = i = i + 1
        if values[i] == "[":
            p.i += 1
            binders = []
            while values[p.i] != ".":
                binders.append(self._ident("template binder"))
            p.i += 1
            p.frames.append(tuple(binders))
            body = p.term()
            p.frames.pop()
            p.expect("]")
            with _placed(self.tokens, at):
                tmpl = Template(tuple(binders), body)
        else:
            tmpl = Template((), p.term())
        if declared is not None and declared != tmpl.arity:
            raise p.error(
                f"{name}/{declared} bound to a template of arity {tmpl.arity}",
                "ArityMismatch")
        key = name, tmpl.arity
        if key in out:
            raise p.error_at(at, f"{name}/{tmpl.arity} is bound twice in one "
                             "substitution", "DuplicateBinding")
        out[key] = tmpl


def parse_theory(text: str) -> TheoryFile:
    parser = TheoryParser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.terms.error(_TOO_DEEP, "TooDeep") from None


# theory printing (round-trip support)

def print_theory(tf: TheoryFile, unicode: bool = False) -> str:
    lines = []
    if tf.base:
        lines.append(f"logic {tf.base}")
    for d in tf.decls:
        lines.append(f"abstraction {d.name} {d.shape}")
    for label, node in tf.axioms:
        lines.append(f"axiom {label}: {print_term(node, unicode)}")
    for block in tf.theorems:
        lines.append(f"theorem {block.name}: {print_term(block.node, unicode)}")
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
    return ", ".join(f"[{', '.join(p)}]" if isinstance(p, tuple) else p for p in key)


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
        body = tmpl.body
        if isinstance(body, tuple):  # parsed: a node under the parameters' frame
            body = _named(body, [tmpl.binders])
        body = print_term(body, uni)
        if arity == 0:
            parts.append(f"{name} := {body}")
        else:
            parts.append(f"{name}/{arity} := [{' '.join(tmpl.binders)}. {body}]")
    return "{ " + ", ".join(parts) + " }"
