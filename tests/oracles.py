"""Independent reference implementations used to cross-check the package.

Deliberately written with different algorithms than the package: alpha
comparison walks both terms with explicit rename environments (no nameless
encoding), substitution freshens every binder globally before doing plain
textual replacement (no index shifting), the tokenizer matches each blank
run on its own and counts columns as it goes, the term parser spends one
call per precedence level instead of climbing and builds named terms whose
binder scope `encode` works out afterwards instead of nameless nodes
resolved as they are read, the proof checker walks the
tree with every rule written out inline instead of folding the kernel's
rules, evaluation and free variables follow binder names through the
named term (a valuation updated for each binder value) instead of reading
the nameless form, and model enumeration tries every table instead of
searching.  find_models_oracle is the model search as it stood before
axiom instances were ground: it evaluates each instance's nameless form
again in every propagation round.  The nameless substitution walkers
(`subst_node_oracle`, `instantiate_oracle`, `lift_oracle`, `bind_oracle`,
`settle_oracle`) are the package's as they stood before they kept
unchanged sub-nodes: they build every node of their output again.
`check_node_oracle` is the node check as it stood before its fast paths
for declared heads and for variable leaves: it runs every check of
`_check_abs` on every abstraction node, and makes one call per sub-node.
`StepParser` reads proof steps as the theory parser did before it read the
common step forms off the token arrays.
"""
from __future__ import annotations

import itertools
import re
from itertools import product
from typing import Callable, Sequence

from abslog import (
    AbstractionAlgebra,
    Abs,
    All,
    Ax,
    Lemma,
    Mp,
    Subst,
    Term,
    OperationTable,
    Universe,
    Valuation,
    Var,
    alpha_eq,
    apply_subst,
    is_extension,
    pure_shape,
)
from abslog.algebra import _row, _row_count, _valuations, argument_keys
from abslog.errors import (
    AllMismatch,
    ArityCapExceeded,
    ArityMismatch,
    IllFormed,
    MalformedTerm,
    MpMismatch,
    NotAnAxiom,
    NotAnImplication,
    NotLogicSignature,
    ProofError,
    SubstMismatch,
    TermError,
    UnknownAbstraction,
    UnknownLemma,
    ValenceMismatch,
)
from abslog.logics import ALL, IMP, TRUE, all_
from abslog.shape import (BINDER_SHAPE, BINOP_SHAPE, AbstractionDecl, Signature,
                          is_logic_signature)
from abslog.syntax import (
    _ATOM,
    _LOOSEST,
    _NOT,
    _OP_TOKENS,
    ALIAS,
    INFIX,
    KEYWORDS,
    OP_GLYPHS,
    ParseError,
    ProofStep,
    TheoryParser,
    Tokens,
    _placed,
)
from abslog.nameless import _check_abs, free_in
from abslog.subst import Substitution, Template, _named, fresh_var
from abslog.term import encode

_fresh = itertools.count()


def _freshname() -> str:
    return f"fv{next(_fresh)}"


# --- alpha equivalence by parallel renaming ----------------------------------

def alpha_oracle(s: Term, t: Term) -> bool:
    return _alpha(s, t, {}, {}, [0])


def _alpha(s, t, env_s, env_t, counter) -> bool:
    if isinstance(s, Var) != isinstance(t, Var):
        return False
    if isinstance(s, Var):
        if s.arity != t.arity:
            return False
        if s.arity == 0:
            bs, bt = env_s.get(s.name), env_t.get(t.name)
            if bs is None and bt is None:
                return s.name == t.name
            return bs is not None and bs == bt
        # higher-arity occurrences are never bound, names must agree
        if s.name != t.name:
            return False
        return all(_alpha(a, b, env_s, env_t, counter)
                   for a, b in zip(s.args, t.args))
    if s.name != t.name or s.shape != t.shape:
        return False
    for i, (a, b) in enumerate(zip(s.args, t.args)):
        es, et = dict(env_s), dict(env_t)
        for j in s.shape.binder_sets[i]:
            counter[0] += 1
            es[s.binders[j]] = counter[0]
            et[t.binders[j]] = counter[0]
        if not _alpha(a, b, es, et, counter):
            return False
    return True


# --- substitution by global freshening ----------------------------------------

def rename_binders(t: Term) -> Term:
    """Alpha-variant of t in which every binder has a globally unique name."""
    return _rename(t, {})


def _rename(t, env):
    if isinstance(t, Var):
        if t.arity == 0 and t.name in env:
            return Var(env[t.name])
        return Var(t.name, tuple(_rename(a, env) for a in t.args))
    fresh = tuple(_freshname() for _ in t.binders)
    args = []
    for i, a in enumerate(t.args):
        env2 = dict(env)
        for j in t.shape.binder_sets[i]:
            env2[t.binders[j]] = fresh[j]
        args.append(_rename(a, env2))
    return Abs(t.name, t.shape, fresh, tuple(args))


def subst_oracle(sigma, t: Term) -> Term:
    """Capture-avoiding substitution: freshen all binders of t, then replace
    free occurrences of the domain variables bottom-up."""
    mapping = dict(sigma.items()) if hasattr(sigma, "items") else dict(sigma)
    return _replace(rename_binders(t), mapping)


def _replace(t, mapping):
    if isinstance(t, Var):
        args = tuple(_replace(a, mapping) for a in t.args)
        tmpl = mapping.get((t.name, t.arity))
        if tmpl is None:
            return Var(t.name, args)
        body = rename_binders(tmpl.body)
        return _plug(body, dict(zip(tmpl.binders, args)))
    return Abs(t.name, t.shape, t.binders,
               tuple(_replace(a, mapping) for a in t.args))


def _plug(t, env):
    # binders of t are globally fresh, so direct replacement cannot capture
    if isinstance(t, Var):
        if t.arity == 0 and t.name in env:
            return env[t.name]
        return Var(t.name, tuple(_plug(a, env) for a in t.args))
    return Abs(t.name, t.shape, t.binders,
               tuple(_plug(a, env) for a in t.args))


# --- the nameless walkers as they stood before they shared sub-nodes ---------

def _rebuild_copying(node: tuple, leaf, depth: int = 0) -> tuple:
    """nameless._rebuild that builds every node again, changed or not."""
    tag = node[0]
    if tag == "b":
        return leaf(node, depth)
    if tag == "v":
        return leaf(("v", node[1], tuple(_rebuild_copying(a, leaf, depth)
                                         for a in node[2])), depth)
    _, name, shape, hints, args = node
    return ("A", name, shape, hints, tuple(
        _rebuild_copying(a, leaf, depth + len(p))
        for p, a in zip(shape.binder_sets, args)))


def lift_oracle(node: tuple, k: int) -> tuple:
    return node if not k else _rebuild_copying(node, lambda n, depth: (
        ("b", n[1] + k) if n[0] == "b" and n[1] >= depth else n))


def instantiate_oracle(body: tuple, args: tuple) -> tuple:
    n = len(args)
    return _rebuild_copying(body, lambda node, depth: (
        lift_oracle(args[n - 1 - (node[1] - depth)], depth)
        if node[0] == "b" and node[1] >= depth else node))


def subst_node_oracle(node: tuple, enc_sigma: dict) -> tuple:
    def leaf(node: tuple, depth: int) -> tuple:
        body = enc_sigma.get((node[1], len(node[2]))) if node[0] == "v" else None
        return node if body is None else instantiate_oracle(body, node[2])
    return _rebuild_copying(node, leaf)


def bind_oracle(node: tuple, name: str) -> tuple:
    return _rebuild_copying(node, lambda n, depth: (
        ("b", depth) if n[0] == "v" and n[1] == name and not n[2] else n))


def settle_oracle(node: tuple, path: frozenset = frozenset()) -> tuple:
    tag = node[0]
    if tag == "b" or tag == "v" and not node[2]:
        return node
    if tag == "v":
        return ("v", node[1], tuple(settle_oracle(a, path) for a in node[2]))
    _, name, shape, hints, args = node
    if shape.valence:
        avoid = {x for x, _ in free_in(node)} | path
        chosen = []
        for j in range(shape.valence):
            nm = fresh_var(avoid, hints[j])
            avoid.add(nm)
            chosen.append(nm)
        hints = tuple(chosen)
        path = path | set(chosen)
    return ("A", name, shape, hints, tuple(settle_oracle(a, path) for a in args))


# --- tokens and terms, one precedence level per call --------------------------

_BLANK_RUN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<op>""" + "|".join(map(re.escape, _OP_TOKENS)) + r"""|[()\[\]{},.;:=/¬])
  | (?P<num>\d+)
  | (?P<ident>∃₁|[⊤⊥⅄∀∃]|[A-Za-z_][A-Za-z0-9_′]*)
""", re.VERBOSE)


def _scan_oracle(text: str):
    """Each token's kind, value, start offset, line and column, eof last."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _BLANK_RUN_RE.match(text, pos)
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
            tokens.append((kind, value, pos, line, col))
            col += len(m.group())
        pos = m.end()
    tokens.append(("eof", "", pos, line, col))
    return tokens


def tokenize_oracle(text: str) -> Tokens:
    kinds, values, starts, _, _ = (list(column) for column in zip(*_scan_oracle(text)))
    return Tokens(kinds, values, text, starts)


def token_positions_oracle(text: str) -> list[tuple[int, int]]:
    """The line and column of each token, eof included, counted as the
    blank runs are matched."""
    return [(line, col) for _, _, _, line, col in _scan_oracle(text)]


class NamedTermParser:
    """The term parser as it was before it built nameless nodes: it builds
    named `Var` and `Abs` terms, and `encode` works out binder scope later.
    Operator-precedence term parser over a signature, driven by INFIX.

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

    # cold paths: errors and the rare constructs
    def peek(self) -> str:
        return self.values[self.i]

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

    def _op_decl(self, token: str, name: str) -> AbstractionDecl:
        d = self.sig.get(name)
        if d is None:
            raise self.error(f"operator {token!r} ({name}) is not declared",
                             "UnknownName")
        return d

    def term(self) -> Term:
        i, kinds, values = self.i, self.kinds, self.values
        # binder sugar `all x. t`; an ident is never the eof token, and
        # neither is one after it, so i + 2 is in range
        if (kinds[i] == "ident" and kinds[i + 1] == "ident"
                and values[i + 2] == "." and values[i] not in KEYWORDS):
            d = self.resolve(values[i])
            if d is not None and d.shape == BINDER_SHAPE:
                self.i = i + 3
                return Abs(d.name, d.shape, (values[i + 1],), (self.term(),))
        return self._level(_LOOSEST)

    def _level(self, level: int) -> Term:
        """A term whose operators bind at `level` or tighter: a prefix `not`
        or an atom, then each operator below `ceiling`.  A left-associative
        operator lowers the ceiling past its own level, `->` and `=` to it,
        so `x = y = z` stops after `x = y`."""
        values = self.values
        if level <= _NOT and values[self.i] in ("not", "¬"):
            self.i += 1
            d = self._op_decl("not", "¬")
            left = Abs(d.name, d.shape, (), (self._level(_NOT),))
            ceiling = _NOT
        else:
            left = self.atom()
            ceiling = _ATOM
        while ((op := INFIX.get(token := values[self.i]))
               and level <= op[1] < ceiling):
            name, op_level, assoc = op
            self.i += 1
            d = self._op_decl(token, name)
            right = self._level(op_level + (assoc != "right"))
            left = Abs(d.name, d.shape, (), (left, right))
            ceiling = op_level + (assoc == "left")
        return left

    def atom(self) -> Term:
        i = self.i
        value = self.values[i]
        if value == "(":
            return self._parens()
        if self.kinds[i] == "ident" and value not in KEYWORDS:
            self.i = i + 1
            d = self.resolve(value)
            if d is not None:
                return self._abs_atom(i, d)
            if self.values[i + 1] == "[":
                self.i = i + 2
                return Var(value, self._args("]"))
            return Var(value)
        raise self.error(f"expected a term, found {value!r}")

    def _args(self, close: str) -> tuple[Term, ...]:
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

    def _abs_atom(self, at: int, d: AbstractionDecl) -> Term:
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
            return Abs(d.name, shape, (), args)
        if shape.arity == 0:
            return Abs(d.name, shape)
        raise self.error_at(at, f"{written} expects arguments", "ArityMismatch")

    def _parens(self) -> Term:
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
        if shape.arity == 1:
            args = (self.term(),)
        else:
            args = []
            while values[self.i] != ")":
                args.append(self.atom())
            args = tuple(args)
        self.expect(")")
        if len(args) != shape.arity:
            raise self.error_at(
                head, f"{written} expects {shape.arity} arguments, got "
                f"{len(args)}", "ArityMismatch")
        with _placed(self.tokens, head):
            return Abs(d.name, shape, binders, args)



class LevelParser(NamedTermParser):
    """`TermParser` with one `_level` call per precedence level."""

    def _level(self, level: int) -> Term:
        if level == _ATOM:
            return self.atom()
        if level == _NOT:
            if self.peek() in ("not", "¬"):
                self.i += 1
                d = self._op_decl("not", "¬")
                return Abs(d.name, d.shape, (), (self._level(_NOT),))
            level += 1  # no prefix: parse the next level in this frame
        left = self._level(level + 1)
        while (op := INFIX.get(self.peek())) and op[1] == level:
            name, _, assoc = op
            token = self.peek()
            self.i += 1
            d = self._op_decl(token, name)
            right = self._level(level + (assoc != "right"))
            left = Abs(d.name, d.shape, (), (left, right))
            if assoc != "left":
                break
        return left


class EncodingLevelParser(LevelParser):
    """LevelParser as the term parser of a theory file: each outermost term
    comes out as `encode` gives the named term, under the frames the theory
    parser opens (template parameters)."""

    def __init__(self, tokens: Tokens, sig):
        super().__init__(tokens, sig)
        self.frames, self.depth = [], 0

    def term(self):
        self.depth += 1
        try:
            t = super().term()
        finally:
            self.depth -= 1
        return t if self.depth else encode(t, list(self.frames), self.sig)


class StepParser(TheoryParser):
    """The theory parser with proof steps read through its helpers: every
    name through `_ident`, every punctuation token through `expect`, and a
    substitution literal's bindings through `_list` and a lambda."""

    def _step(self) -> ProofStep:
        p, kinds, values = self.terms, self.kinds, self.values
        at = p.i
        if kinds[at] != "ident":
            raise p.error(f"expected step name, found {values[at]!r}")
        p.i = at + 1
        p.expect(":")
        rule = self._ident("proof rule")
        label = term = sigma = binder = claimed = None
        refs: tuple[str, ...] = ()
        if rule == "ax":
            i = p.i
            if kinds[i] == "ident" and values[i] in self.labels:
                label = values[i]
                p.i = i + 1
            else:
                term = p.term()
        elif rule == "subst":
            refs = (self._ident("premise step"),)
            p.expect("{")
            bindings: dict = {}
            self._list("}", lambda: self._binding(bindings))
            sigma = Substitution(bindings)
        elif rule == "mp":
            refs = (self._ident("premise step"), self._ident("premise step"))
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

    def _binding(self, out: dict) -> None:
        p, values = self.terms, self.values
        at = p.i
        name = self._ident("variable name")
        declared = None
        if values[p.i] == "/":
            p.i += 1
            declared = self._num("expected an arity after /")
        p.expect(":=")
        if values[p.i] == "[":
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


def parse_term_oracle(text: str, sig) -> Term:
    parser = LevelParser(tokenize_oracle(text), sig)
    t = parser.term()
    if parser.kinds[parser.i] != "eof":
        raise parser.error(f"trailing input {parser.peek()!r}")
    return t


# --- well-formedness by its own walk -------------------------------------------

def check_wellformed_oracle(t: Term, sig) -> None:
    """Raise unless t is a term whose variables have names and whose
    abstraction applications match their declarations."""
    if isinstance(t, Var):
        if not (isinstance(t.name, str) and t.name):
            raise MalformedTerm(f"variable name {t.name!r} is not a name")
        for a in t.args:
            check_wellformed_oracle(a, sig)
        return
    if not isinstance(t, Abs):
        raise MalformedTerm(f"{t!r} is not a term")
    decl = sig.get(t.name)
    if decl is None:
        raise UnknownAbstraction(f"abstraction {t.name!r} is not declared")
    if decl.shape.valence != t.shape.valence:
        raise ValenceMismatch(
            f"{t.name}: valence {t.shape.valence}, declared {decl.shape.valence}")
    if decl.shape.arity != t.shape.arity:
        raise ArityMismatch(
            f"{t.name}: arity {t.shape.arity}, declared {decl.shape.arity}")
    if decl.shape != t.shape:
        # same valence/arity but different binding structure
        raise ValenceMismatch(
            f"{t.name}: binder sets {t.shape} differ from declared {decl.shape}")
    for a in t.args:
        check_wellformed_oracle(a, sig)


def check_node_oracle(node, depth: int, sig) -> tuple:
    """node, if it is a nameless term under `depth` binders, over sig when
    given; else the TermError of its first bad sub-node, in pre-order.  A
    tag must be exactly a str."""
    tag = node[0] if type(node) is tuple and node and type(node[0]) is str else None
    if tag == "b" and len(node) == 2 and type(node[1]) is int:
        if not 0 <= node[1] < depth:
            raise MalformedTerm(f"bound index {node[1]} under {depth} binders")
    elif tag == "v" and len(node) == 3 and type(node[2]) is tuple:
        if sig is not None and not (type(node[1]) is str and node[1]):
            raise MalformedTerm(f"variable name {node[1]!r} is not a name")
        for a in node[2]:
            check_node_oracle(a, depth, sig)
    elif (tag == "A" and len(node) == 5 and type(node[3]) is tuple
          and type(node[4]) is tuple):
        _, name, shape, hints, args = node
        _check_abs(name, shape, hints, args, sig)
        for p, a in zip(shape.binder_sets, args):
            check_node_oracle(a, depth + len(p), sig)
    else:
        raise MalformedTerm(f"{node!r} is not a term")
    return node


# --- proof checking by walking the tree -----------------------------------------

def check_proof_oracle(logic, p, db=None, memo=None) -> Term:
    """The statement proof tree `p` proves in `logic`, or the ProofError of
    the offending node, memoised on node identity in `memo` if given.  As
    in the kernel, a node's premises are checked first and its target
    last, after the rule's own checks."""
    return _check(logic, p, db, (), {} if memo is None else memo)


def _wf(t, logic, path):
    try:
        check_wellformed_oracle(t, logic.signature)
    except TermError as e:
        raise IllFormed(str(e), path) from e


def _conclude(logic, target, derived, mismatch, message, path):
    if target is None:
        _wf(derived, logic, path)
        return derived
    _wf(target, logic, path)
    if not alpha_eq(target, derived):
        raise mismatch(message, path)
    return target


def _check(logic, p, db, path, memo):
    hit = memo.get(id(p))
    if hit is not None and hit[0] is p and hit[1] is logic:
        return hit[2]
    statement = _rule(logic, p, db, path, memo)
    memo[id(p)] = (p, logic, statement)
    return statement


def _rule(logic, p, db, path, memo):
    if isinstance(p, Ax):
        if isinstance(p.axiom, str):
            node = logic.axiom(p.axiom)
            if node is None:
                raise NotAnAxiom(f"no axiom labelled {p.axiom!r}", path)
            return _named(node, [])
        _wf(p.axiom, logic, path)
        for _, node in logic.axioms:
            if alpha_eq(p.axiom, _named(node, [])):
                return p.axiom
        raise NotAnAxiom("term is not an axiom of this logic", path)

    if isinstance(p, Subst):
        s = _check(logic, p.sub, db, path + (0,), memo)
    elif isinstance(p, Mp):
        h = _check(logic, p.sub_h, db, path + (0,), memo)
        g = _check(logic, p.sub_g, db, path + (1,), memo)
    elif isinstance(p, All):
        s = _check(logic, p.sub, db, path + (0,), memo)

    if isinstance(p, Subst):
        for (_, _), tmpl in p.sigma.items():
            _wf(tmpl.body, logic, path)
        return _conclude(logic, p.target, apply_subst(p.sigma, s), SubstMismatch,
                         "target is not α-equivalent to the substituted premise",
                         path)

    if isinstance(p, Mp):
        if not (isinstance(g, Abs) and g.name == IMP and g.shape == BINOP_SHAPE):
            raise NotAnImplication("second premise is not an implication", path)
        h2, t2 = g.args
        if not alpha_eq(h2, h):
            raise MpMismatch("antecedent does not match the first premise", path)
        return _conclude(logic, p.target, t2, MpMismatch,
                         "consequent does not match the target", path)

    if isinstance(p, All):
        return _conclude(logic, p.target, all_(p.binder, s), AllMismatch,
                         "target is not (∀ x. premise)", path)

    if isinstance(p, Lemma):
        thm = db.get(p.name) if db is not None else None
        if thm is None:
            raise UnknownLemma(f"no stored theorem named {p.name!r}", path)
        if thm.logic is not logic and not is_extension(logic, thm.logic):
            raise UnknownLemma(
                f"the theorem was certified in {thm.logic.name}, which "
                f"{logic.name} does not extend", path)
        return thm.statement

    raise ProofError(f"unknown proof node {type(p).__name__}", path)


# --- free variables and evaluation by named scope ---------------------------------

def _frame(t: Abs, i: int) -> tuple[str, ...]:
    return tuple(t.binders[j] for j in t.shape.binder_sets[i])


def free_vars_oracle(t: Term) -> frozenset:
    out: set = set()
    _free(t, [], out)
    return frozenset(out)


def _free(t, frames, out) -> None:
    if isinstance(t, Var):
        if t.arity == 0:
            if not any(t.name in fr for fr in frames):
                out.add((t.name, 0))
        else:
            out.add((t.name, t.arity))
            for a in t.args:
                _free(a, frames, out)
        return
    for i, a in enumerate(t.args):
        _free(a, frames + [_frame(t, i)], out)


def eval_oracle(alg, nu, t: Term) -> int:
    """Value of t: a variable reads the valuation, and a binder-covered
    argument is tabulated by updating the valuation at each binder."""
    if isinstance(t, Var):
        return nu.get(t.name, t.arity).apply([eval_oracle(alg, nu, a) for a in t.args])
    key = []
    for i, a in enumerate(t.args):
        frame = _frame(t, i)
        key.append(tabulate_oracle(alg, nu, frame, a) if frame
                   else eval_oracle(alg, nu, a))
    return alg.interp[t.name].apply(tuple(key))


def tabulate_oracle(alg, nu, binders, body: Term) -> tuple:
    """Entries of body as an operation of its binders, row-major."""
    entries = []
    for us in product(range(alg.size), repeat=len(binders)):
        overrides = dict(nu.overrides)
        for x, u in zip(binders, us):
            overrides[(x, 0)] = OperationTable(alg.size, pure_shape(0), (u,))
        entries.append(eval_oracle(alg, Valuation(alg.size, overrides), body))
    return tuple(entries)


def check_model_oracle(alg, axioms) -> list[tuple]:
    """(passed, failing valuation, value) per axiom, trying the tables of
    the sorted free variables in row-major order."""
    top = alg.interp[TRUE].entries[0]
    out = []
    for axiom in axioms:
        fvs = sorted(free_vars_oracle(axiom))
        verdict = (True, None, None)
        spaces = [list(product(range(alg.size), repeat=alg.size ** n)) for _, n in fvs]
        for choice in product(*spaces):
            nu = Valuation(alg.size, {fv: OperationTable(alg.size, pure_shape(fv[1]), e)
                                      for fv, e in zip(fvs, choice)})
            value = eval_oracle(alg, nu, axiom)
            if value != top:
                verdict = (False, tuple(zip(fvs, choice)), value)
                break
        out.append(verdict)
    return out


# --- every algebra over a signature ---------------------------------------------

def enumerate_algebras(sig, size: int, limit: int = 10 ** 6):
    """All abstraction algebras over sig with the given carrier size.
    Only feasible for tiny signatures; guarded by a count limit."""
    names = [str(i) for i in range(size)]
    keyspaces = [tuple(argument_keys(size, d.shape)) for d in sig.decls]
    total = 1
    for keys in keyspaces:
        total *= size ** len(keys)
    if total > limit:
        raise ArityCapExceeded(
            f"enumeration of {total} algebras exceeds limit {limit}")
    for assignment in product(*(product(range(size), repeat=len(keys))
                                for keys in keyspaces)):
        interp = {
            d.name: OperationTable(size, d.shape, values)
            for d, keys, values in zip(sig.decls, keyspaces, assignment)
        }
        yield AbstractionAlgebra(Universe(tuple(names)), sig, interp)


# --- model search as it stood before ground instances -----------------------
#
# The search that re-evaluated every axiom instance from its nameless form in
# each propagation round, with _Need exceptions for the first unassigned
# cell.  find_models must return exactly its model lists.

def _logic_conditions_oracle(entry: Callable[[str, int], int], size: int,
                             top: int) -> list[Callable[[], bool]]:
    """The two minimum requirements on ⇒ and ∀, one check per table entry
    read: ⊤ ⇒ u is ⊤ only for u = ⊤, and ∀ of the constant-⊤ operation is
    ⊤."""
    all_top = _row(size, ((top,) * size,))
    return [lambda u=u: not (entry(IMP, top * size + u) == top and u != top)
            for u in range(size)] + [lambda: entry(ALL, all_top) == top]


def _eval_oracle(entry: Callable[[str, int], int], size: int, nu: Valuation,
                 node, env: tuple[int, ...]) -> int:
    """Value of a nameless term, each table entry read through
    entry(name, row), which may stop the evaluation at a cell that has no
    value yet (find_models_oracle's query raises _Need)."""
    tag = node[0]
    if tag == "b":
        return env[-1 - node[1]]
    row = 0
    if tag == "v":
        _, name, args = node
        for a in args:
            row = row * size + _eval_oracle(entry, size, nu, a, env)
        return nu.get(name, len(args)).entries[row]
    _, name, shape, _, args = node
    for p, a in zip(shape.binder_sets, args):
        for us in product(range(size), repeat=len(p)):
            row = row * size + _eval_oracle(entry, size, nu, a, env + us)
    return entry(name, row)


class _Need(Exception):
    def __init__(self, key):
        self.key = key


def _solve_oracle(cs: list, cells: dict, size: int, limit: int,
                  found: list[dict]) -> None:
    """One node of find_models_oracle's search, the cells assigned on the
    way to it in cells: propagate (drop satisfied constraints, intersect
    the viable values of every queried-but-unassigned cell, assign forced
    cells), then branch on a cell with the fewest viable values.  The
    cells this call assigns are on the trail, and are unassigned when it
    returns."""
    if len(found) >= limit:
        return
    trail: list = []
    try:
        while True:
            remaining, viable, progress = [], {}, False
            for c in cs:
                try:
                    ok = c()
                except _Need as need:
                    k = need.key
                    ok_vals = set()
                    for value in viable.get(k, range(size)):
                        cells[k] = value
                        try:
                            if c() is not False:
                                ok_vals.add(value)
                        except _Need:
                            ok_vals.add(value)
                    del cells[k]
                    if not ok_vals:
                        return
                    if len(ok_vals) == 1:
                        cells[k] = next(iter(ok_vals))
                        trail.append(k)
                        viable.pop(k, None)
                        progress = True
                    else:
                        viable[k] = ok_vals
                    remaining.append(c)
                    continue
                if not ok:
                    return
            cs = remaining
            if not cs:
                found.append(dict(cells))
                return
            if not progress:
                break
        k = min(viable, key=lambda k: len(viable[k]))
        trail.append(k)
        for value in sorted(viable[k]):
            cells[k] = value
            _solve_oracle(cs, cells, size, limit, found)
            if len(found) >= limit:
                break
    finally:
        for k in trail:
            del cells[k]


def find_models_oracle(sig: Signature, axioms: Sequence[Term], size: int,
                       limit: int = 1) -> list[AbstractionAlgebra]:
    """Search for logic algebras of the given carrier size in which every
    axiom holds under every valuation.

    The constraints are the logic-algebra conditions and one per axiom
    instance, the same checks is_logic_algebra and check_model make.
    Interpretation entries are chosen lazily: a constraint that needs an
    undetermined table entry branches on its value, so the search never
    materialises the full (often astronomically large) space of operator
    tables.  It is exhaustive: an empty result means no model exists.
    """
    if not is_logic_signature(sig):
        raise NotLogicSignature("signature lacks ⊤/⇒/∀ with their required shapes")
    # The constraint set is closed under renaming carrier values (axiom
    # instances range over all argument tables), so every model is isomorphic
    # to one interpreting ⊤ as value 0; fixing that cuts the search threefold.
    # A cell is the entry at an (abstraction, row).
    cells: dict[tuple[str, int], int] = {(TRUE, 0): 0}
    top = 0

    def query(name: str, row: int) -> int:
        k = (name, row)
        if k not in cells:
            raise _Need(k)
        return cells[k]

    # the logic-algebra conditions, then one constraint per axiom instance
    # (an assignment of operations to the axiom's free variables; together
    # they stand for every valuation), smaller instances first so that unit
    # propagation fires early
    def _term_size(t: Term) -> int:
        return 1 + sum(_term_size(a) for a in t.args)

    instances = []
    for axiom in axioms:
        node = encode(axiom, [], sig)
        weight = _term_size(axiom)
        for nu in _valuations(size, sorted(free_in(node))):
            instances.append((weight, node, nu))
    instances.sort(key=lambda inst: inst[0])
    constraints = _logic_conditions_oracle(query, size, top)
    for _, node, nu in instances:
        constraints.append(
            lambda node=node, nu=nu: _eval_oracle(query, size, nu, node, ()) == top)

    found: list[dict] = []
    _solve_oracle(constraints, cells, size, limit, found)

    # cells no constraint read are free; they take value 0
    universe = Universe(tuple(str(i) for i in range(size)))
    return [AbstractionAlgebra(universe, sig, {
                d.name: OperationTable(size, d.shape, tuple(
                    found_cells.get((d.name, row), 0)
                    for row in range(_row_count(size, d.shape))))
                for d in sig.decls})
            for found_cells in found]
