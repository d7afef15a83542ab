"""Finite abstraction algebras, valuations, evaluation and model checking.

Carrier values are indices 0..size-1.  Every operation, binding or not, is
one OperationTable: an entry per argument key, row-major over
argument_keys(size, shape).  A key's row is its digits in base size: a
value per position that binds nothing, the argument operation's entries
per position that binds variables.  A valuation's n-ary table has the pure
shape (0; ∅ⁿ).  Everything is checkable by exhaustive enumeration.

Evaluation reads the nameless form of term.py (binder scope is never
worked out here) and builds each row digit by digit as it evaluates the
arguments.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    BadTableKey,
    DuplicateName,
    DuplicateRow,
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
from .shape import Shape, Signature, is_logic_signature, pure_shape
from .subst import Substitution, apply_subst, encode_template
from .term import DeBruijnTerm, Term, check_wellformed, free_in, to_debruijn


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


def _row_count(size: int, shape: Shape) -> int:
    return size ** sum(size ** len(p) for p in shape.binder_sets)  # size^digits


def _row(size: int, key: Sequence) -> int:
    """Position of an argument key in argument_keys order."""
    row = 0
    for part in key:
        for e in part if isinstance(part, tuple) else (part,):
            row = row * size + e
    return row


@dataclass(frozen=True, slots=True)
class OperationTable:
    """Total operation of a shape over a carrier of the given size; entries
    are listed row-major over argument_keys(size, shape)."""
    size: int
    shape: Shape
    entries: tuple[int, ...]

    def __post_init__(self):
        rows = _row_count(self.size, self.shape)
        if len(self.entries) != rows:
            raise ArityMismatch(
                f"table of shape {self.shape} over {self.size} values needs "
                f"{rows} entries, got {len(self.entries)}")

    def apply(self, key: Sequence) -> int:
        return self.entries[_row(self.size, key)]

    @property
    def rule(self) -> dict[tuple, int]:  # a fresh dict: key -> entry
        return dict(zip(argument_keys(self.size, self.shape), self.entries))


def constant_table(size: int, arity: int, value: int) -> OperationTable:
    return OperationTable(size, pure_shape(arity), (value,) * size ** arity)


def _keys(size: int, binder_sets: tuple) -> Iterator[tuple]:
    """The keys of argument_keys one at a time, in its order."""
    if not binder_sets:
        yield ()
        return
    p = binder_sets[0]
    for part in product(range(size), repeat=size ** len(p)) if p else range(size):
        for rest in _keys(size, binder_sets[1:]):
            yield (part,) + rest


@cache
def argument_keys(size: int, shape: Shape) -> tuple[tuple, ...]:
    """Every argument key, in row order: a value for p_i = ∅, the entry
    tuple of a |p_i|-ary operation otherwise.  Memoised per shape."""
    return tuple(_keys(size, shape.binder_sets))


def table_from_rows(name: str, universe: Universe, shape: Shape,
                    rows: Iterable[tuple[tuple, int]]) -> OperationTable:
    """The table of abstraction `name` from (key, value) rows.  A key listed
    twice is a DuplicateRow; the first key, in row order, that no row lists
    is a MissingRow, found lazily so that a huge key space costs nothing."""
    given: dict[tuple, int] = {}
    for key, value in rows:
        if key in given:
            raise DuplicateRow(f"table for {name} lists the row "
                               f"{_show_key(key, universe.value_names)} twice")
        given[key] = value
    entries = []
    for key in _keys(universe.size, shape.binder_sets):
        if key not in given:
            raise MissingRow(f"table for {name} has no row for "
                             f"{_show_key(key, universe.value_names)}")
        entries.append(given[key])
    return OperationTable(universe.size, shape, tuple(entries))


@dataclass(frozen=True)
class AbstractionAlgebra:
    universe: Universe
    signature: Signature
    interp: Mapping[str, OperationTable]

    def __post_init__(self):
        for d in self.signature.decls:
            table = self.interp.get(d.name)
            if table is None or (table.size, table.shape) != (self.size, d.shape):
                raise IllFormedTerm(f"abstraction {d.name!r} needs a table of "
                                    f"shape {d.shape} over {self.size} values")

    @property
    def size(self) -> int:
        return self.universe.size

    def value_of(self, name: str) -> int:
        """Interpretation of a value-shaped abstraction."""
        return self.interp[name].entries[0]

    def lookup(self, name: str, key: tuple) -> int:
        return self.interp[name].apply(key)

    def entry(self, name: str, row: int) -> int:
        return self.interp[name].entries[row]


@dataclass(frozen=True)
class Valuation:
    """Finite overrides over the default valuation that assigns the
    constant value-0 operation at every (name, arity)."""
    size: int
    overrides: Mapping[tuple[str, int], OperationTable] = field(default_factory=dict)

    def get(self, name: str, arity: int) -> OperationTable:
        return (self.overrides.get((name, arity))
                or constant_table(self.size, arity, 0))


def _eval(entry: Callable[[str, int], int], size: int, nu: Valuation,
          node: DeBruijnTerm, env: tuple[int, ...]) -> int:
    """Value of a nameless term; env holds the values of the enclosing
    binders, innermost last, and entry(name, row) reads an abstraction's
    table."""
    tag = node[0]
    if tag == "b":
        return env[-1 - node[1]]
    row = 0
    if tag == "v":
        _, name, args = node
        for a in args:
            row = row * size + _eval(entry, size, nu, a, env)
        return nu.get(name, len(args)).entries[row]
    _, name, shape, _, args = node
    for p, a in zip(shape.binder_sets, args):
        if p:
            for us in product(range(size), repeat=len(p)):
                row = row * size + _eval(entry, size, nu, a, env + us)
        else:
            row = row * size + _eval(entry, size, nu, a, env)
    return entry(name, row)


def eval_term(alg: AbstractionAlgebra, nu: Valuation, t: Term) -> int:
    """Value of t in alg under nu; requires t well-formed over alg's
    signature."""
    try:
        check_wellformed(t, alg.signature)
    except TermError as e:
        raise IllFormedTerm(str(e)) from e
    return _eval(alg.entry, alg.size, nu, to_debruijn(t), ())


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
        body = encode_template(tmpl)
        overrides[(name, arity)] = OperationTable(alg.size, pure_shape(arity), tuple(
            _eval(alg.entry, alg.size, nu, body, us)
            for us in product(range(alg.size), repeat=arity)))
    return Valuation(alg.size, overrides)


# --- logic algebras and model checking -------------------------------------

def _logic_conditions(entry: Callable[[str, int], int], size: int,
                      top: int) -> list[Callable[[], bool]]:
    """The two minimum requirements on ⇒ and ∀, one check per table entry
    read: ⊤ ⇒ u is ⊤ only for u = ⊤, and ∀ of the constant-⊤ operation is
    ⊤."""
    all_top = _row(size, ((top,) * size,))
    return [lambda u=u: not (entry(IMP, top * size + u) == top and u != top)
            for u in range(size)] + [lambda: entry(ALL, all_top) == top]


def is_logic_algebra(alg: AbstractionAlgebra) -> bool:
    """Check the two minimum requirements on ⇒ and ∀ by enumeration."""
    if not is_logic_signature(alg.signature):
        raise NotLogicSignature("signature lacks ⊤/⇒/∀ with their required shapes")
    return all(c() for c in _logic_conditions(alg.entry, alg.size,
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
    shape = pure_shape(arity)
    for entries in product(range(size), repeat=size ** arity):
        yield OperationTable(size, shape, entries)


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
            value = _eval(alg.entry, size, nu, node, ())
            if value != top:
                verdict = AxiomVerdict(
                    label, axiom, False,
                    tuple((fv, tb.entries) for fv, tb in nu.overrides.items()),
                    value)
                break
        verdicts.append(verdict)
    return ModelReport(tuple(verdicts))


# --- builtin models ---------------------------------------------------------

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
    interp = {d.name: OperationTable(2, d.shape, tuple(
                  fns[d.name](*key) for key in argument_keys(2, d.shape)))
              for d in SIG_K.decls}
    return AbstractionAlgebra(Universe(("T", "F")), SIG_K, interp)


def degenerate_model(sig: Signature) -> AbstractionAlgebra:
    """One-value universe; each abstraction gets the unique compatible
    operator."""
    interp = {d.name: OperationTable(1, d.shape, (0,)) for d in sig.decls}
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
        # of every queried-but-unassigned cell, assign forced cells; then
        # branch on a cell with the fewest viable values.  The cells this
        # call assigns are on the trail, and are unassigned when it returns.
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
                solve(cs)
                if len(found) >= limit:
                    break
        finally:
            for k in trail:
                del cells[k]

    solve(constraints)

    # cells no constraint read are free; they take value 0
    universe = Universe(tuple(str(i) for i in range(size)))
    return [AbstractionAlgebra(universe, sig, {
                d.name: OperationTable(size, d.shape, tuple(
                    found_cells.get((d.name, row), 0)
                    for row in range(_row_count(size, d.shape))))
                for d in sig.decls})
            for found_cells in found]


# --- model descriptions -------------------------------------------------------

def model_from_spec(model: str, carrier: Sequence[str],
                    interp: Iterable[tuple[str, object]], sig: Signature,
                    aliases: Mapping[str, str] | None = None) -> AbstractionAlgebra:
    """Build the algebra that a named model description defines.

    carrier lists the value names.  interp pairs each abstraction (or an
    alias of it) with a value name if its shape is a value, else with a
    tuple of (key, value name) rows.  A key has one part per argument
    position: a value name, or, where the position binds variables, the
    row-major entry list of the argument operation (a lone value name is a
    one-entry list).  Every defect raises a ModelError that names the model
    and the abstraction.
    """
    if not carrier:
        raise EmptyCarrier(f"model {model}: the carrier has no values")
    if len(set(carrier)) != len(carrier):
        raise DuplicateName(f"model {model}: carrier values repeat")
    universe = Universe(tuple(carrier))
    idx = {v: i for i, v in enumerate(carrier)}
    aliases = aliases or {}
    raw = {aliases.get(k, k): v for k, v in interp}

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
        if len(entries) != universe.size ** len(p):
            raise BadTableKey(
                f"model {model}: {name}: argument {i + 1} binds variables, so "
                f"it takes the entry list of a {len(p)}-ary operation "
                f"({universe.size ** len(p)} values), not {v!r}")
        return tuple(value(name, e) for e in entries)

    tables = {}
    for d in sig.decls:
        if d.name not in raw:
            raise MissingInterpretation(
                f"model {model} interprets no abstraction {d.name!r}")
        spec, sets = raw[d.name], d.shape.binder_sets
        if isinstance(spec, tuple) != bool(sets):
            raise SpecKindMismatch(f"model {model}: {d.name} " + (
                "needs a table, not a value" if sets else "is a value, not a table"))
        rows = []
        for key, out in spec if sets else [((), spec)]:
            if len(key) != len(sets):
                raise BadTableKey(f"model {model}: {d.name}: row key {key!r} "
                                  f"needs {len(sets)} argument(s)")
            rows.append((tuple(part(d.name, p, i, v)
                               for i, (p, v) in enumerate(zip(sets, key))),
                         value(d.name, out)))
        try:
            tables[d.name] = table_from_rows(d.name, universe, d.shape, rows)
        except (MissingRow, DuplicateRow) as e:
            raise type(e)(f"model {model}: {e}") from None
    return AbstractionAlgebra(universe, sig, tables)


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
    arguments are ","-joined entry lists) for general operators.  Objects
    are read as their (key, value) pairs, so a repeated key is not lost.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=tuple)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"model {path}: not a UTF-8 JSON document: {e}") from e
    top = dict(doc) if isinstance(doc, tuple) else {}
    carrier, interp = top.get("carrier"), top.get("interp")
    if not (isinstance(carrier, list) and all(isinstance(v, str) for v in carrier)
            and isinstance(interp, tuple)):
        raise ModelError(f'model {path}: expected an object with a "carrier" '
                         f'list of value names and an "interp" object')
    specs = []
    for name, spec in interp:
        if isinstance(spec, list):
            spec = tuple(_array_rows(spec, carrier, f"model {path}: {name}"))
        elif isinstance(spec, tuple):
            spec = tuple((tuple(tuple(p.split(",")) if "," in p else p
                                for p in key.split(";")), out)
                         for key, out in spec)
        specs.append((name, spec))
    return model_from_spec(path, carrier, specs, sig, aliases)


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
