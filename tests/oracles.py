"""Independent reference implementations used to cross-check the package.

Deliberately written with different algorithms than the package: alpha
comparison walks both terms with explicit rename environments (no nameless
encoding), substitution freshens every binder globally before doing plain
textual replacement (no index shifting), the tokenizer matches each blank
run on its own and counts columns as it goes, the term parser spends one
call per precedence level instead of climbing, the proof checker walks the
tree with every rule written out inline instead of folding the kernel's
rules, evaluation and free variables follow binder names through the
named term (a valuation updated for each binder value) instead of reading
the nameless form, and model enumeration tries every table instead of
searching.
"""
from __future__ import annotations

import itertools
import re
from itertools import product

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
    check_wellformed,
    is_extension,
    pure_shape,
)
from abslog.algebra import argument_keys
from abslog.errors import (
    AllMismatch,
    ArityCapExceeded,
    IllFormed,
    MpMismatch,
    NotAnAxiom,
    NotAnImplication,
    ProofError,
    SubstMismatch,
    TermError,
    UnknownLemma,
)
from abslog.logics import IMP, TRUE, all_
from abslog.shape import BINOP_SHAPE
from abslog.syntax import (
    _ATOM,
    _NOT,
    _OP_TOKENS,
    INFIX,
    OP_GLYPHS,
    ParseError,
    TermParser,
    Token,
    _Stream,
)

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


# --- tokens and terms, one precedence level per call --------------------------

_BLANK_RUN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<op>""" + "|".join(map(re.escape, _OP_TOKENS)) + r"""|[()\[\]{},.;:=/¬])
  | (?P<num>\d+)
  | (?P<ident>∃₁|[⊤⊥⅄∀∃]|[A-Za-z_][A-Za-z0-9_′]*)
""", re.VERBOSE)


def tokenize_oracle(text: str) -> list[Token]:
    out = []
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
            out.append(Token(kind, value, line, col))
            col += len(m.group())
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


class LevelParser(TermParser):
    """`TermParser` with one `_level` call per precedence level."""

    def _level(self, level: int) -> Term:
        if level == _ATOM:
            return self.atom()
        if level == _NOT:
            if self.s.peek().value in ("not", "¬"):
                self.s.next()
                d = self._op_decl("not", "¬")
                return Abs(d.name, d.shape, (), (self._level(_NOT),))
            level += 1  # no prefix: parse the next level in this frame
        left = self._level(level + 1)
        while (op := INFIX.get(self.s.peek().value)) and op[1] == level:
            name, _, assoc = op
            d = self._op_decl(self.s.next().value, name)
            right = self._level(level + (assoc != "right"))
            left = Abs(d.name, d.shape, (), (left, right))
            if assoc != "left":
                break
        return left


def parse_term_oracle(text: str, sig) -> Term:
    stream = _Stream(tokenize_oracle(text))
    t = LevelParser(stream, sig).term()
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return t


# --- proof checking by walking the tree -----------------------------------------

def check_proof_oracle(logic, p, db=None, memo=None) -> Term:
    """The statement proof tree `p` proves in `logic`, or the ProofError of
    the offending node, memoised on node identity in `memo` if given.  As
    in the kernel, a node's premises are checked first and its target
    last, after the rule's own checks."""
    return _check(logic, p, db, (), {} if memo is None else memo)


def _wf(t, logic, path):
    try:
        check_wellformed(t, logic.signature)
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
            t = logic.axiom(p.axiom)
            if t is None:
                raise NotAnAxiom(f"no axiom labelled {p.axiom!r}", path)
            return t
        _wf(p.axiom, logic, path)
        for _, a in logic.axioms:
            if alpha_eq(p.axiom, a):
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
    return alg.lookup(t.name, tuple(key))


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
    top = alg.value_of(TRUE)
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
