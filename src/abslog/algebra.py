"""Finite abstraction algebras, valuations, evaluation and model checking.

Universes are finite and carrier values are represented as indices
0..size-1.  Operations are extensional tables; operators are tables keyed
by argument tuples where a binder-covered argument position carries the
entry tuple of the argument operation.  Everything is then checkable by
exhaustive enumeration.

Evaluation reads the nameless form of term.py: a bound occurrence is an
index into the values of the enclosing binders, and a free one is looked
up in the valuation, so binder scope is never worked out here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    BadTableKey,
    DuplicateName,
    EmptyCarrier,
    IllFormedTemplate,
    IllFormedTerm,
    MissingInterpretation,
    MissingRow,
    ModelError,
    NotLogicAlgebra,
    NotLogicSignature,
    SpecKindMismatch,
    TermError,
    UnknownValue,
)
from .logics import (
    ALL,
    AND,
    EQ,
    EX,
    FALSE,
    IFF,
    IMP,
    NEQ,
    NOT,
    OR,
    SIG_K,
    TRUE,
)
from .shape import Shape, Signature, is_logic_signature
from .subst import Substitution, apply_subst
from .term import (DeBruijnTerm, Term, check_wellformed, encode, free_in,
                   to_debruijn)


@dataclass(frozen=True)
class Universe:
    value_names: tuple[str, ...]

    def __post_init__(self):
        if not self.value_names:
            raise ValueError("universe must contain at least one value")
        if len(set(self.value_names)) != len(self.value_names):
            raise DuplicateName("universe value names must be distinct")

    @property
    def size(self) -> int:
        return len(self.value_names)

    def index(self, name: str) -> int:
        return self.value_names.index(name)


@dataclass(frozen=True)
class OperationTable:
    """Total n-ary operation over a carrier of the given size; entries are
    listed row-major over argument tuples."""
    size: int
    arity: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.size ** self.arity:
            raise ArityMismatch(
                f"table of arity {self.arity} over {self.size} values needs "
                f"{self.size ** self.arity} entries, got {len(self.entries)}")

    def apply(self, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.entries[idx]


def constant_table(size: int, arity: int, value: int) -> OperationTable:
    return OperationTable(size, arity, (value,) * size ** arity)


@cache
def argument_keys(size: int, shape: Shape) -> tuple[tuple, ...]:
    """Every tuple of arguments a shape-compatible operator can receive:
    a value index for p_i = ∅, the entry tuple of a |p_i|-ary operation
    otherwise.  Memoised, so every table of one shape shares its keys."""
    spaces = []
    for p in shape.binder_sets:
        if not p:
            spaces.append(tuple(range(size)))
        else:
            spaces.append(tuple(product(range(size), repeat=size ** len(p))))
    return tuple(product(*spaces))


@dataclass(frozen=True)
class OperatorImpl:
    shape: Shape
    rule: Mapping[tuple, int]


@dataclass(frozen=True)
class AbstractionAlgebra:
    universe: Universe
    signature: Signature
    interp: Mapping[str, OperatorImpl]

    def __post_init__(self):
        for d in self.signature.decls:
            impl = self.interp.get(d.name)
            if impl is None:
                raise IllFormedTerm(f"abstraction {d.name!r} is uninterpreted")
            if impl.shape != d.shape:
                raise IllFormedTerm(
                    f"interpretation of {d.name!r} has shape {impl.shape}, "
                    f"declared {d.shape}")
            for key in argument_keys(self.size, d.shape):
                if key not in impl.rule:
                    raise MissingRow(
                        f"table for {d.name} has no row for "
                        f"{_show_key(key, self.universe.value_names)}")

    @property
    def size(self) -> int:
        return self.universe.size

    def value_of(self, name: str) -> int:
        """Interpretation of a value-shaped abstraction."""
        return self.interp[name].rule[()]

    def lookup(self, name: str, key: tuple) -> int:
        impl = self.interp.get(name)
        if impl is None:
            raise IllFormedTerm(f"abstraction {name!r} is uninterpreted")
        return impl.rule[key]


@dataclass(frozen=True)
class Valuation:
    """Finite overrides over the default valuation that assigns the
    constant value-0 operation at every (name, arity)."""
    size: int
    overrides: Mapping[tuple[str, int], OperationTable] = field(default_factory=dict)

    def get(self, name: str, arity: int) -> OperationTable:
        table = self.overrides.get((name, arity))
        if table is None:
            return constant_table(self.size, arity, 0)
        return table


def _eval(lookup: Callable[[str, tuple], int], size: int, nu: Valuation,
          node: DeBruijnTerm, env: tuple[int, ...]) -> int:
    """Value of a nameless term; env holds the values of the enclosing
    binders, innermost last."""
    tag = node[0]
    if tag == "b":
        return env[-1 - node[1]]
    if tag == "v":
        _, name, args = node
        return nu.get(name, len(args)).apply(
            [_eval(lookup, size, nu, a, env) for a in args])
    _, name, shape, _, args = node
    key = []
    for p, a in zip(shape.binder_sets, args):
        key.append(_tabulate(lookup, size, nu, len(p), a, env) if p
                   else _eval(lookup, size, nu, a, env))
    return lookup(name, tuple(key))


def _tabulate(lookup: Callable[[str, tuple], int], size: int, nu: Valuation,
              n: int, body: DeBruijnTerm, env: tuple[int, ...]) -> tuple[int, ...]:
    """Entries of body as an operation of n more binders, row-major over
    their values (one entry when n is 0)."""
    return tuple(_eval(lookup, size, nu, body, env + us)
                 for us in product(range(size), repeat=n))


def eval_term(alg: AbstractionAlgebra, nu: Valuation, t: Term) -> int:
    """Value of t in alg under nu; requires t well-formed over alg's
    signature."""
    try:
        check_wellformed(t, alg.signature)
    except TermError as e:
        raise IllFormedTerm(str(e)) from e
    return _eval(alg.lookup, alg.size, nu, to_debruijn(t), ())


def valuation_from_subst(nu: Valuation, sigma: Substitution,
                         alg: AbstractionAlgebra) -> Valuation:
    """The valuation ν_σ: mapped variables take the value of their
    (resolved) template under ν, unmapped ones fall through to ν."""
    if not isinstance(sigma, Substitution):
        sigma = Substitution(sigma)
    overrides = dict(nu.overrides)
    for (name, arity), tmpl in sigma.items():
        try:
            check_wellformed(tmpl.body, alg.signature)
        except TermError as e:
            raise IllFormedTemplate(str(e)) from e
        body = encode(tmpl.body, [tmpl.binders])
        overrides[(name, arity)] = OperationTable(
            alg.size, arity, _tabulate(alg.lookup, alg.size, nu, arity, body, ()))
    return Valuation(alg.size, overrides)


# --- logic algebras and model checking -------------------------------------

def _logic_conditions(lookup: Callable[[str, tuple], int], size: int,
                      top: int) -> list[Callable[[], bool]]:
    """The two minimum requirements on ⇒ and ∀, one check per table entry
    read: ⊤ ⇒ u is ⊤ only for u = ⊤, and ∀ of the constant-⊤ operation is
    ⊤."""
    conditions = [lambda u=u: not (lookup(IMP, (top, u)) == top and u != top)
                  for u in range(size)]
    conditions.append(lambda: lookup(ALL, ((top,) * size,)) == top)
    return conditions


def is_logic_algebra(alg: AbstractionAlgebra) -> bool:
    """Check the two minimum requirements on ⇒ and ∀ by enumeration."""
    if not is_logic_signature(alg.signature):
        raise NotLogicSignature("signature lacks ⊤/⇒/∀ with their required shapes")
    return all(c() for c in _logic_conditions(alg.lookup, alg.size,
                                              alg.value_of(TRUE)))


@dataclass(frozen=True)
class AxiomVerdict:
    label: str
    axiom: Term
    passed: bool
    # on failure: the valuation restricted to the axiom's free variables,
    # and the value the axiom evaluated to
    failing_valuation: tuple[tuple[tuple[str, int], tuple[int, ...]], ...] | None = None
    value: int | None = None


@dataclass(frozen=True)
class ModelReport:
    verdicts: tuple[AxiomVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def all_tables(size: int, arity: int) -> Iterator[OperationTable]:
    for entries in product(range(size), repeat=size ** arity):
        yield OperationTable(size, arity, entries)


def _valuations(size: int, fvs: Sequence[tuple[str, int]]) -> Iterator[Valuation]:
    """Every assignment of operations to the free variables fvs: checking
    an axiom under these is checking it under every valuation."""
    for tables in product(*(all_tables(size, n) for _, n in fvs)):
        yield Valuation(size, dict(zip(fvs, tables)))


def check_model(alg: AbstractionAlgebra, axioms: Sequence[Term],
                arity_cap: int = 2,
                labels: Sequence[str] | None = None) -> ModelReport:
    """Exhaustively check that every axiom evaluates to I(⊤) under every
    assignment of operations to its free variables."""
    if not is_logic_algebra(alg):
        raise NotLogicAlgebra("⇒ or ∀ violates the logic-algebra conditions")
    top = alg.value_of(TRUE)
    size = alg.size
    if labels is None:
        labels = [str(i + 1) for i in range(len(axioms))]
    verdicts = []
    for label, axiom in zip(labels, axioms):
        check_wellformed(axiom, alg.signature)
        node = to_debruijn(axiom)
        fvs = sorted(free_in(node))
        for name, arity in fvs:
            if arity > arity_cap:
                raise ArityCapExceeded(
                    f"axiom {label}: free variable {name} has arity {arity} > "
                    f"cap {arity_cap}")
        verdict = AxiomVerdict(label, axiom, True)
        for nu in _valuations(size, fvs):
            value = _eval(alg.lookup, size, nu, node, ())
            if value != top:
                verdict = AxiomVerdict(
                    label, axiom, False,
                    tuple((fv, tb.entries) for fv, tb in nu.overrides.items()),
                    value)
                break
        verdicts.append(verdict)
    return ModelReport(tuple(verdicts))


# --- builtin models ---------------------------------------------------------

def _operator(size: int, shape: Shape, fn: Callable[..., int]) -> OperatorImpl:
    """The operator that maps each argument key (one part per position) to
    fn(*key)."""
    return OperatorImpl(shape, {key: fn(*key) for key in argument_keys(size, shape)})


def boolean_model() -> AbstractionAlgebra:
    """Two-element boolean algebra over the classical signature, with ∀
    true on the constantly-true operation only and ∃ true when some entry
    is true."""
    T, F = 0, 1
    b = lambda cond: T if cond else F
    fns = {
        TRUE: lambda: T,
        FALSE: lambda: F,
        IMP: lambda a, c: b(a == F or c == T),
        NOT: lambda a: b(a == F),
        AND: lambda a, c: b(a == T and c == T),
        OR: lambda a, c: b(a == T or c == T),
        IFF: lambda a, c: b(a == c),
        EQ: lambda a, c: b(a == c),
        NEQ: lambda a, c: b(a != c),
        ALL: lambda f: b(all(u == T for u in f)),
        EX: lambda f: b(any(u == T for u in f)),
    }
    interp = {d.name: _operator(2, d.shape, fns[d.name]) for d in SIG_K.decls}
    return AbstractionAlgebra(Universe(("T", "F")), SIG_K, interp)


def degenerate_model(sig: Signature) -> AbstractionAlgebra:
    """One-value universe; each abstraction gets the unique compatible
    operator."""
    interp = {d.name: _operator(1, d.shape, lambda *key: 0) for d in sig.decls}
    return AbstractionAlgebra(Universe(("*",)), sig, interp)


# --- enumeration and model search -------------------------------------------

class _Need(Exception):
    def __init__(self, key):
        self.key = key


def find_models(sig: Signature, axioms: Sequence[Term], size: int,
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
    entries: dict[tuple[str, tuple], int] = {(TRUE, ()): 0}
    top = 0

    def query(name: str, key: tuple) -> int:
        k = (name, key)
        if k not in entries:
            raise _Need(k)
        return entries[k]

    # the logic-algebra conditions, then one constraint per axiom instance
    # (an assignment of operations to the axiom's free variables; together
    # they stand for every valuation), smaller instances first so that unit
    # propagation fires early
    def _term_size(t: Term) -> int:
        return 1 + sum(_term_size(a) for a in t.args)

    instances = []
    for axiom in axioms:
        check_wellformed(axiom, sig)
        weight = _term_size(axiom)
        node = to_debruijn(axiom)
        for nu in _valuations(size, sorted(free_in(node))):
            instances.append((weight, node, nu))
    instances.sort(key=lambda inst: inst[0])
    constraints = _logic_conditions(query, size, top)
    for _, node, nu in instances:
        constraints.append(
            lambda node=node, nu=nu: _eval(query, size, nu, node, ()) == top)

    found: list[dict] = []

    def solve(cs: list) -> None:
        # propagate: drop satisfied constraints, intersect the viable values
        # of every queried-but-unassigned entry, assign forced entries; then
        # branch on an entry with the fewest viable values
        if len(found) >= limit:
            return
        trail: list = []
        viable: dict[tuple, set] = {}
        while True:
            remaining = []
            viable = {}
            progress = False
            failed = False
            for c in cs:
                try:
                    ok = c()
                except _Need as need:
                    k = need.key
                    ok_vals = set()
                    for value in viable.get(k, range(size)):
                        entries[k] = value
                        try:
                            if c() is not False:
                                ok_vals.add(value)
                        except _Need:
                            ok_vals.add(value)
                    del entries[k]
                    if not ok_vals:
                        failed = True
                        break
                    if len(ok_vals) == 1:
                        entries[k] = next(iter(ok_vals))
                        trail.append(k)
                        viable.pop(k, None)
                        progress = True
                    else:
                        viable[k] = ok_vals
                    remaining.append(c)
                    continue
                if not ok:
                    failed = True
                    break
            if failed:
                for k in trail:
                    del entries[k]
                return
            cs = remaining
            if not cs:
                found.append(dict(entries))
                for k in trail:
                    del entries[k]
                return
            if not progress:
                break
        k = min(viable, key=lambda k: len(viable[k]))
        for value in sorted(viable[k]):
            entries[k] = value
            solve(cs)
            if len(found) >= limit:
                break
        del entries[k]
        for k in trail:
            del entries[k]

    solve(constraints)

    # entries no constraint read are free; they take value 0
    names = tuple(str(i) for i in range(size))
    return [AbstractionAlgebra(Universe(names), sig, {
                d.name: _operator(size, d.shape,
                                  lambda *key, n=d.name: partial.get((n, key), 0))
                for d in sig.decls})
            for partial in found]


# --- model descriptions -------------------------------------------------------

def model_from_spec(model: str, carrier: Sequence[str],
                    interp: Mapping[str, object], sig: Signature,
                    aliases: Mapping[str, str] | None = None) -> AbstractionAlgebra:
    """Build the algebra that a named model description defines.

    carrier lists the value names.  interp maps each abstraction (or an
    alias of it) to a value name if its shape is a value, else to a table
    from argument keys to value names.  A key has one part per argument
    position: a value name, or, where the position binds variables, the
    row-major entry list of the argument operation (a lone value name is a
    one-entry list).  Every defect raises a ModelError that names the model
    and the abstraction.
    """
    if not carrier:
        raise EmptyCarrier(f"model {model}: the carrier has no values")
    if len(set(carrier)) != len(carrier):
        raise DuplicateName(f"model {model}: carrier values repeat")
    size = len(carrier)
    idx = {v: i for i, v in enumerate(carrier)}
    aliases = aliases or {}
    raw = {aliases.get(k, k): v for k, v in interp.items()}

    def value(name: str, v) -> int:
        if isinstance(v, str) and v in idx:
            return idx[v]
        raise UnknownValue(f"model {model}: {name}: {v!r} is not a carrier value")

    def part(name: str, p: tuple[int, ...], i: int, v) -> int | tuple[int, ...]:
        if not p:
            if isinstance(v, tuple):
                raise BadTableKey(f"model {model}: {name}: argument {i + 1} "
                                  f"takes a value, not an entry list")
            return value(name, v)
        entries = v if isinstance(v, tuple) else (v,)
        if len(entries) != size ** len(p):
            raise BadTableKey(
                f"model {model}: {name}: argument {i + 1} binds variables, so "
                f"it takes the entry list of a {len(p)}-ary operation "
                f"({size ** len(p)} values), not {v!r}")
        return tuple(value(name, e) for e in entries)

    ops = {}
    for d in sig.decls:
        if d.name not in raw:
            raise MissingInterpretation(
                f"model {model} interprets no abstraction {d.name!r}")
        spec = raw[d.name]
        if d.shape.arity == 0:
            if isinstance(spec, Mapping):
                raise SpecKindMismatch(
                    f"model {model}: {d.name} is a value, not a table")
            ops[d.name] = OperatorImpl(d.shape, {(): value(d.name, spec)})
            continue
        if not isinstance(spec, Mapping):
            raise SpecKindMismatch(
                f"model {model}: {d.name} needs a table, not a value")
        sets = d.shape.binder_sets
        rule = {}
        for key, out in spec.items():
            if len(key) != len(sets):
                raise BadTableKey(f"model {model}: {d.name}: row key {key!r} "
                                  f"needs {len(sets)} argument(s)")
            rule[tuple(part(d.name, p, i, v)
                       for i, (p, v) in enumerate(zip(sets, key)))] = value(d.name, out)
        ops[d.name] = OperatorImpl(d.shape, rule)
    try:
        return AbstractionAlgebra(Universe(tuple(carrier)), sig, ops)
    except MissingRow as e:
        raise MissingRow(f"model {model}: {e}") from None


def _show_key(key: tuple, names: Sequence[str]) -> str:
    return "(%s)" % ", ".join(
        "[%s]" % ", ".join(names[e] for e in k) if isinstance(k, tuple)
        else names[k] for k in key)


def load_model(path: str, sig: Signature,
               aliases: Mapping[str, str] | None = None) -> AbstractionAlgebra:
    """Load a model description from a JSON file.

    Schema: {"carrier": [names...], "interp": {abstraction: spec}} where a
    spec is a value name for value shapes, a nested array for pure
    operations, or an object keyed by ";"-separated argument keys (table
    arguments are ","-joined entry lists) for general operators.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"model {path}: not a UTF-8 JSON document: {e}") from e
    if not (isinstance(doc, dict) and isinstance(doc.get("carrier"), list)
            and all(isinstance(v, str) for v in doc["carrier"])
            and isinstance(doc.get("interp"), dict)):
        raise ModelError(f'model {path}: expected an object with a "carrier" '
                         f'list of value names and an "interp" object')
    carrier = doc["carrier"]
    interp = {}
    for name, spec in doc["interp"].items():
        if isinstance(spec, list):
            spec = dict(_array_rows(spec, carrier, f"model {path}: {name}"))
        elif isinstance(spec, dict):
            spec = {tuple(tuple(p.split(",")) if "," in p else p
                          for p in key.split(";")): out
                    for key, out in spec.items()}
        interp[name] = spec
    return model_from_spec(path, carrier, interp, sig, aliases)


def _array_rows(cell, carrier: list[str], where: str,
                key: tuple = ()) -> Iterator[tuple]:
    """Rows of a nested array: cell[a0][a1]... is the value at (a0, a1, ...)."""
    if not isinstance(cell, list):
        yield key, cell
        return
    if len(cell) != len(carrier):
        raise BadTableKey(f"{where}: a nested array has {len(cell)} entries "
                          f"for {len(carrier)} carrier values")
    for name, sub in zip(carrier, cell):
        yield from _array_rows(sub, carrier, where, key + (name,))
