"""Finite abstraction algebras, valuations, evaluation and model checking.

Carrier values are indices 0..size-1.  Every operation, binding or not, is
one OperationTable: an entry per argument key, row-major over
argument_keys(size, shape).  A key's row is its digits in base size: a
value per position that binds nothing, the argument operation's entries
per position that binds variables.  A valuation's n-ary table has the pure
shape (0; ∅ⁿ).  Everything is checkable by exhaustive enumeration.

Evaluation reads the nameless form of term.py (binder scope is never
worked out here) and builds each row digit by digit as it evaluates the
arguments, reading tables[name][row] from a {name: entries} dict that
each entry point fills from the algebra once per call: check_model with
every table, eval_term and valuation_from_subst with each table when
the evaluation first reaches its head.  Model search
compiles each axiom once into closures (`_grounder`) and grounds each
instance with one call: its valuation and binder values are filled in,
so what remains is the operator cells it reads.  An instance whose
ground term repeats an earlier one is dropped.  Propagation reads an
instance again only once a cell that its last read stopped at has been
assigned.  The search works on plain ints: each table entry is a
numbered cell, a set of values is a bitmask, and a model found keeps one
byte per entry.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import cache, wraps
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ArityCapExceeded,
    ArityMismatch,
    BadTableKey,
    DuplicateInterpretation,
    DuplicateName,
    DuplicateRow,
    EmptyCarrier,
    IllFormedTemplate,
    IllFormedTerm,
    LabelCountMismatch,
    MissingInterpretation,
    MissingRow,
    ModelError,
    NotLogicAlgebra,
    NotLogicSignature,
    SearchLimitOutOfRange,
    SearchSizeOutOfRange,
    SpecKindMismatch,
    StrayInterpretation,
    TermError,
    TermTooDeep,
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
from .subst import Substitution, encode_template
from .syntax import ALIAS
from .term import DeBruijnTerm, Term, encode, free_in
from .value import Value, _set


class Universe(Value):
    __slots__ = _fields = ("value_names",)

    def __init__(self, value_names: tuple[str, ...]):
        if not value_names:
            raise ValueError("universe must contain at least one value")
        if len(set(value_names)) != len(value_names):
            raise DuplicateName("universe value names must be distinct")
        _set(self, "value_names", value_names)

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


class OperationTable(Value):
    """Total operation of a shape over a carrier of the given size; entries
    are listed row-major over argument_keys(size, shape)."""
    __slots__ = _fields = ("size", "shape", "entries")

    def __init__(self, size: int, shape: Shape, entries: tuple[int, ...]):
        rows = _row_count(size, shape)
        if len(entries) != rows:
            raise ArityMismatch(
                f"table of shape {shape} over {size} values needs "
                f"{rows} entries, got {len(entries)}")
        _set(self, "size", size)
        _set(self, "shape", shape)
        _set(self, "entries", entries)

    def apply(self, key: Sequence) -> int:
        return self.entries[_row(self.size, key)]

    @property
    def rule(self) -> dict[tuple, int]:  # a fresh dict: key -> entry
        return dict(zip(argument_keys(self.size, self.shape), self.entries))


@cache
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
    for row, (key, value) in enumerate(rows):
        if key in given:
            e = DuplicateRow(f"table for {name} lists the row "
                             f"{_show_key(key, universe.value_names)} twice")
            e.row = row
            raise e
        given[key] = value
    entries = []
    for key in _keys(universe.size, shape.binder_sets):
        if key not in given:
            raise MissingRow(f"table for {name} has no row for "
                             f"{_show_key(key, universe.value_names)}")
        entries.append(given[key])
    return OperationTable(universe.size, shape, tuple(entries))


class AbstractionAlgebra(Value):
    __slots__ = _fields = ("universe", "signature", "interp")

    def __init__(self, universe: Universe, signature: Signature,
                 interp: Mapping[str, OperationTable]):
        size = universe.size
        for d in signature.decls:
            table = interp.get(d.name)
            if table is None or (table.size, table.shape) != (size, d.shape):
                raise IllFormedTerm(f"abstraction {d.name!r} needs a table of "
                                    f"shape {d.shape} over {size} values")
        _set(self, "universe", universe)
        _set(self, "signature", signature)
        _set(self, "interp", interp)

    @property
    def size(self) -> int:
        return self.universe.size


class Valuation(Value):
    """Finite overrides over the default valuation that assigns the
    constant value-0 operation at every (name, arity); `overrides` is a
    fresh dict unless given."""
    __slots__ = _fields = ("size", "overrides")

    def __init__(self, size: int,
                 overrides: Mapping[tuple[str, int], OperationTable] | None = None):
        _set(self, "size", size)
        _set(self, "overrides", {} if overrides is None else overrides)

    def get(self, name: str, arity: int) -> OperationTable:
        return (self.overrides.get((name, arity))
                or constant_table(self.size, arity, 0))


def _depth_checked(fn):
    """fn, with a RecursionError from a term too deep for the recursive
    walkers (encode, _eval, _grounder and its closures, _value) raised
    as TermTooDeep."""
    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise TermTooDeep(f"{fn.__name__}: a term nests too deeply "
                              f"to evaluate") from None
    return checked


def _tables(alg: AbstractionAlgebra) -> dict[str, tuple[int, ...]]:
    return {name: table.entries for name, table in alg.interp.items()}


class _TablesRead(dict):
    """The entries of the tables of `interp` by name, as _eval reads them;
    each table is read from `interp` when an evaluation first needs it."""
    __slots__ = ("_interp",)

    def __init__(self, interp: Mapping[str, OperationTable]):
        super().__init__()
        self._interp = interp

    def __missing__(self, name: str) -> tuple[int, ...]:
        entries = self[name] = self._interp[name].entries
        return entries


def _eval(tables: Mapping[str, Sequence[int]], size: int, nu: Valuation,
          node: DeBruijnTerm, env: tuple[int, ...]) -> int:
    """Value of a nameless term; env holds the values of the enclosing
    binders, innermost last, and tables[name] an abstraction's entries."""
    tag = node[0]
    if tag == "b":
        return env[-1 - node[1]]
    row = 0
    if tag == "v":
        _, name, args = node
        for a in args:
            row = row * size + _eval(tables, size, nu, a, env)
        return nu.get(name, len(args)).entries[row]
    _, name, shape, _, args = node
    for p, a in zip(shape.binder_sets, args):
        if p:
            for us in product(range(size), repeat=len(p)):
                row = row * size + _eval(tables, size, nu, a, env + us)
        else:
            row = row * size + _eval(tables, size, nu, a, env)
    return tables[name][row]


@_depth_checked
def eval_term(alg: AbstractionAlgebra, nu: Valuation, t: Term) -> int:
    """Value of t in alg under nu; requires t well-formed over alg's
    signature."""
    try:
        node = encode(t, [], alg.signature)
    except TermError as e:
        raise IllFormedTerm(str(e)) from e
    return _eval(_TablesRead(alg.interp), alg.size, nu, node, ())


def valuation_from_subst(nu: Valuation, sigma: Substitution,
                         alg: AbstractionAlgebra) -> Valuation:
    """The valuation ν_σ: mapped variables take the value of their
    (resolved) template under ν, unmapped ones fall through to ν."""
    if not isinstance(sigma, Substitution):
        sigma = Substitution(sigma)
    overrides, tables = dict(nu.overrides), _TablesRead(alg.interp)
    for (name, arity), tmpl in sigma.items():
        try:
            body = encode_template(tmpl, alg.signature)
        except TermError as e:
            raise IllFormedTemplate(str(e)) from e
        overrides[(name, arity)] = OperationTable(alg.size, pure_shape(arity), tuple(
            _eval(tables, alg.size, nu, body, us)
            for us in product(range(alg.size), repeat=arity)))
    return Valuation(alg.size, overrides)


# --- logic algebras and model checking -------------------------------------

def _logic_conditions(size: int, top: int) -> list[tuple[str, int, int]]:
    """The two minimum requirements on ⇒ and ∀ as (name, row, allowed values
    as a bitmask): ⊤ ⇒ u is ⊤ only for u = ⊤ (the entry ⊤ ⇒ ⊤ may hold any
    value), and ∀ of the constant-⊤ operation is ⊤."""
    every, only_top = (1 << size) - 1, 1 << top
    return [(IMP, top * size + u, every if u == top else every ^ only_top)
            for u in range(size)] + [(ALL, _row(size, ((top,) * size,)), only_top)]


def _logic_tables(alg: AbstractionAlgebra) -> dict[str, tuple[int, ...]] | None:
    """alg's tables as _eval reads them, or None if alg is no logic algebra."""
    if not is_logic_signature(alg.signature):
        raise NotLogicSignature("signature lacks ⊤/⇒/∀ with their required shapes")
    tables = _tables(alg)
    conditions = _logic_conditions(alg.size, tables[TRUE][0])
    return tables if all(mask >> tables[n][r] & 1 for n, r, mask in conditions) else None


def is_logic_algebra(alg: AbstractionAlgebra) -> bool:
    """Check the two minimum requirements on ⇒ and ∀ by enumeration."""
    return _logic_tables(alg) is not None


class AxiomVerdict(Value):
    """An axiom's verdict, the axiom as check_model was given it; on
    failure, the valuation restricted to the axiom's free variables and
    the value the axiom evaluated to."""
    __slots__ = _fields = ("label", "axiom", "passed", "failing_valuation", "value")

    def __init__(self, label: str, axiom: Term | DeBruijnTerm, passed: bool,
                 failing_valuation: tuple[tuple[tuple[str, int], tuple[int, ...]], ...]
                 | None = None, value: int | None = None):
        self._init(label, axiom, passed, failing_valuation, value)


class ModelReport(Value):
    __slots__ = _fields = ("verdicts",)

    def __init__(self, verdicts: tuple[AxiomVerdict, ...]):
        self._init(verdicts)

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


@_depth_checked
def check_model(alg: AbstractionAlgebra, axioms: Sequence[Term | DeBruijnTerm],
                arity_cap: int = 2,
                labels: Sequence[str] | None = None) -> ModelReport:
    """Exhaustively check that every axiom evaluates to I(⊤) under every
    assignment of operations to its free variables."""
    if labels is None:
        labels = [str(i + 1) for i in range(len(axioms))]
    elif len(labels) != len(axioms):
        raise LabelCountMismatch(f"{len(labels)} labels for {len(axioms)} axioms")
    if (tables := _logic_tables(alg)) is None:
        raise NotLogicAlgebra("⇒ or ∀ violates the logic-algebra conditions")
    top, size = tables[TRUE][0], alg.size
    verdicts = []
    for label, axiom in zip(labels, axioms):
        node = encode(axiom, [], alg.signature)
        fvs = sorted(free_in(node))
        for name, arity in fvs:
            if arity > arity_cap:
                raise ArityCapExceeded(
                    f"axiom {label}: free variable {name} has arity {arity} > "
                    f"cap {arity_cap}")
        verdict = AxiomVerdict(label, axiom, True)
        for nu in _valuations(size, fvs):
            value = _eval(tables, size, nu, node, ())
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

# The search numbers every table entry: row r of abstraction d is the cell
# size + offset(d) + r, the offsets running over the tables in signature
# order (_cell_bases), so an int below size is a value and one at or above it
# is a cell.  A ground term is an axiom instance's nameless form with its
# valuation and every binder value filled in: an int, a value where it reads
# no operator entry and a cell where it reads one entry at a known row, or
# else (head, kids), where head is an abstraction's first cell or a
# variable's entries and kids are ground terms whose values give the row.
# Evaluating it reads cells in exactly the order _eval reads the entries of
# the term it came from.  A two-argument head binding nothing (⇒, =, ∧) and
# a unary variable have grounders of their own, and _value a two-kid path.

@cache
def _cell_bases(sig: Signature, size: int) -> tuple[dict[str, int], int]:
    """The first cell of each abstraction's table, and the cell after the
    last table.  Memoised: the search and the models it returns share the
    dict, and none of them changes it."""
    bases, end = {}, size
    for d in sig.decls:
        bases[d.name] = end
        end += _row_count(size, d.shape)
    return bases, end


def _grounder(node: DeBruijnTerm, pos: Mapping[tuple[str, int], int],
              bases: Mapping[str, int], size: int,
              top: int) -> Callable[[tuple, tuple[int, ...]], object]:
    """node compiled into ground(tables, env): its ground term when the free
    variable v has the entries tables[pos[v]] and the enclosing binders have
    the values env, innermost last.  The tag of each sub-node, the place of
    each variable, the value tuples of each binding position and the cell
    of each nullary head are worked out here, once; ⊤ reads as top, the
    value the search fixes for it."""
    tag = node[0]
    if tag == "b":
        i = -1 - node[1]
        return lambda tables, env: env[i]
    if tag == "v":
        _, name, args = node
        p = pos[name, len(args)]
        if not args:
            return lambda tables, env: tables[p][0]
        if len(args) == 1:  # F(a): no list, no loop
            kid = _grounder(args[0], pos, bases, size, top)

            def ground_var1(tables, env):
                g = kid(tables, env)
                return (tables[p][g] if g.__class__ is int and g < size
                        else (tables[p], (g,)))
            return ground_var1
        kids = []
        for a in args:
            kids.append(_grounder(a, pos, bases, size, top))

        def ground_var(tables, env):
            ground, row = [], 0  # row is None once a kid is not a value
            for kid in kids:
                g = kid(tables, env)
                ground.append(g)
                if row is not None:
                    row = row * size + g if g.__class__ is int and g < size else None
            head = tables[p]
            return head[row] if row is not None else (head, tuple(ground))
        return ground_var
    _, name, shape, _, args = node
    head = bases[name]
    if not args:
        cell = top if name == TRUE else head
        return lambda tables, env: cell
    if shape.binder_sets == ((), ()):  # a ⇒ b, a = b, …: no list, no loop
        kid_a = _grounder(args[0], pos, bases, size, top)
        kid_b = _grounder(args[1], pos, bases, size, top)

        def ground_abs2(tables, env):
            a, b = kid_a(tables, env), kid_b(tables, env)
            if a.__class__ is int and a < size and b.__class__ is int and b < size:
                return head + a * size + b
            return head, (a, b)
        return ground_abs2
    # one (grounder, binder values) per kid: a position has a kid per tuple
    # of values of the variables it binds, and one, with (), if it binds none
    calls = []
    for p, a in zip(shape.binder_sets, args):
        kid = _grounder(a, pos, bases, size, top)
        calls += [(kid, us) for us in product(range(size), repeat=len(p))]

    def ground_abs(tables, env):
        ground, row = [], 0  # as in ground_var
        for kid, us in calls:
            g = kid(tables, env + us)
            ground.append(g)
            if row is not None:
                row = row * size + g if g.__class__ is int and g < size else None
        return head + row if row is not None else (head, tuple(ground))
    return ground_abs


def _value(g, cells: dict[int, int], size: int) -> int:
    """The value of ground term g (an int below size), or the first cell
    it reads that cells does not assign (an int at or above it)."""
    if g.__class__ is int:
        return cells.get(g, g)  # a value is no key of cells
    head, kids = g
    if len(kids) == 2:  # a ⇒ b, a = b, …: read a, then b, then the head
        a, b = kids
        a = cells.get(a, a) if a.__class__ is int else _value(a, cells, size)
        if a >= size:
            return a
        b = cells.get(b, b) if b.__class__ is int else _value(b, cells, size)
        if b >= size:
            return b
        row = a * size + b
    else:
        row = 0
        for kid in kids:
            if kid.__class__ is int:  # read here to save a call
                value = cells.get(kid, kid)
            else:
                value = _value(kid, cells, size)
            if value >= size:
                return value
            row = row * size + value
    if head.__class__ is int:
        head += row
        return cells.get(head, head)
    return head[row]


def _node_size(node: DeBruijnTerm) -> int:
    return 1 if node[0] == "b" else 1 + sum(map(_node_size, node[-1]))


def _instances(nodes: Iterable[DeBruijnTerm], bases: Mapping[str, int],
               size: int, top: int) -> Iterator:
    """One (ground term, {top}) constraint per distinct instance of the
    axiom nodes, in the order the instances first occur, each ground when
    the search first reads it.  An instance assigns operations to an
    axiom's free variables; together they stand for every valuation.  A
    repeated ground term is the same constraint again, and is left out."""
    must_hold = 1 << top
    seen = set()
    for node in nodes:
        fvs = sorted(free_in(node))
        ground = _grounder(node, {v: i for i, v in enumerate(fvs)}, bases, size, top)
        # each free variable ranges over every table's entries, in all_tables order
        for tables in product(*(product(range(size), repeat=size ** n)
                                for _, n in fvs)):
            g = ground(tables, ())
            if g not in seen:
                seen.add(g)
                yield g, must_hold, None, None, None


def _propagate(cs: Iterable, cells: dict[int, int], size: int,
               trail: list[int]) -> tuple[list, dict[int, int]] | None:
    """One search node: drop satisfied constraints, intersect the viable
    values of every read-but-unassigned cell, assign forced cells (each
    appended to trail), and repeat until a round forces none.  None on a
    conflict, else the constraints left and the viable values of the cells
    they wait on.  A set of values is a bitmask: value u is bit 1 << u.

    A constraint is (ground term, allowed values, k, ok, blockers), its
    status the last three.  After a read, k is the first cell it reads
    that has no value, ok the values of k under which the look-ahead finds
    it allowed or waiting on another cell, and blockers the cells the
    look-ahead stopped at.  While k has no value, the cells read before it
    keep theirs, so a read finds k again: only the look-ahead is redone,
    over ok alone (a value that made the constraint false still does), and
    only once a blocker has a value.  Until then ok, cut to the values of
    k still viable this round, is what the look-ahead would find.  Each
    round passes the statuses on in the list it builds.  cs is read once
    per round, so it may be an iterator that grounds constraints, with no
    status yet (k, ok and blockers None), as the first round reaches them."""
    assigned = cells.keys()  # a live view: the cells with a value now
    every = (1 << size) - 1
    while True:
        remaining, viable, progress = [], {}, False
        for c in cs:
            g, allowed, k, ok_vals, blockers = c
            if k is None or k in cells:
                k = _value(g, cells, size)  # its value, or the cell it waits on
                if k < size:
                    if not allowed >> k & 1:
                        return None
                    continue
                ok_vals, blockers = every, None
            if k in viable:
                ok_vals &= viable[k]  # from size 4 on, the two may be disjoint
            if ok_vals and (blockers is None or not assigned.isdisjoint(blockers)):
                trials, ok_vals, blockers = ok_vals, 0, set()
                while trials:
                    bit = trials & -trials
                    trials ^= bit
                    cells[k] = bit.bit_length() - 1
                    v = _value(g, cells, size)
                    if v >= size:
                        ok_vals |= bit
                        blockers.add(v)
                    elif allowed >> v & 1:
                        ok_vals |= bit
                del cells[k]
                c = g, allowed, k, ok_vals, blockers
            if not ok_vals:
                return None
            if ok_vals & (ok_vals - 1) == 0:  # one value left
                cells[k] = ok_vals.bit_length() - 1
                trail.append(k)
                viable.pop(k, None)
                progress = True
            else:
                viable[k] = ok_vals
            remaining.append(c)
        cs = remaining
        if not cs or not progress:
            return cs, viable


def _solve(cs: Iterable, cells: dict[int, int], size: int, limit: int,
           found: list[dict[int, int]]) -> None:
    """Depth-first search, one _propagate per node, in one loop: append a
    copy of cells to found at each node that leaves no constraint, until
    found holds limit.  A node that leaves some opens a decision level on
    a cell with the fewest viable values, tried in ascending order.  A
    level is [the constraints, with their statuses, that the node left;
    its cell; the values still to try; the trail's length before the
    cell]: the next value first pops the trail down to that length,
    unassigning every cell the last value led to, and a level with no
    values left gives way to the one below."""
    trail: list[int] = []
    levels: list[list] = []
    while True:
        node = _propagate(cs, cells, size, trail)
        if node is not None:
            cs, viable = node
            if not cs:
                found.append(dict(cells))
                if len(found) >= limit:
                    return
            else:
                k = min(viable, key=lambda k: viable[k].bit_count())
                levels.append([cs, k, viable[k], len(trail)])
        while levels and not levels[-1][2]:
            levels.pop()
        if not levels:
            return
        cs, k, values, mark = level = levels[-1]
        while len(trail) > mark:
            del cells[trail.pop()]
        bit = values & -values
        level[2] = values ^ bit
        cells[k] = bit.bit_length() - 1
        trail.append(k)


@cache
def _universe(size: int) -> Universe:
    return Universe(tuple(str(i) for i in range(size)))


MAX_SEARCH_SIZE = 256  # the values one byte per table entry holds


@_depth_checked
def find_models(sig: Signature, axioms: Sequence[Term | DeBruijnTerm], size: int,
                limit: int = 1) -> list[AbstractionAlgebra]:
    """Search for logic algebras of the given carrier size, 1 to 256, in
    which every axiom holds under every valuation.

    The constraints are the logic-algebra conditions and one per distinct
    axiom instance (see the module docstring and _instances), the same
    checks is_logic_algebra and check_model make.  Interpretation entries
    are chosen lazily: a constraint that reads an unassigned cell branches
    on its value, so the search never materialises the full (often
    astronomically large) space of operator tables.  It is exhaustive: an
    empty result means no model exists.  The search runs in one loop,
    with no Python frame per branching choice, so its depth is bounded by
    time and memory alone; only a term too deep to walk is TermTooDeep.
    """
    if not 1 <= size <= MAX_SEARCH_SIZE:
        raise SearchSizeOutOfRange(f"find_models: carrier size {size!r} is not "
                                   f"in 1..{MAX_SEARCH_SIZE}")
    if limit.__class__ is not int or limit < 1:
        raise SearchLimitOutOfRange(f"find_models: limit {limit!r} is not an int ≥ 1")
    if not is_logic_signature(sig):
        raise NotLogicSignature("signature lacks ⊤/⇒/∀ with their required shapes")
    # The constraint set is closed under renaming carrier values (axiom
    # instances range over all argument tables), so every model is isomorphic
    # to one interpreting ⊤ as value 0; fixing that cuts the search threefold.
    top = 0
    bases, end = _cell_bases(sig, size)
    cells = {bases[TRUE]: top}
    # smaller axioms first, so that unit propagation fires early
    nodes = sorted((encode(axiom, [], sig) for axiom in axioms), key=_node_size)
    found: list[dict[int, int]] = []
    conditions = [(bases[name] + row, mask, None, None, None)
                  for name, row, mask in _logic_conditions(size, top)]
    _solve(chain(conditions, _instances(nodes, bases, size, top)),
           cells, size, limit, found)
    # cells no constraint read are free; they take value 0
    return [AbstractionAlgebra(_universe(size), sig, _PackedInterp(
                sig, size, bases, bytes(found_cells.get(c, 0) for c in range(size, end))))
            for found_cells in found]


class _PackedInterp(Mapping):
    """The interpretation of a model that find_models returns: the entries
    of every table, one byte each, laid out as the search's cells are
    (_cell_bases).  A table is built, its entries a tuple, each time it is
    read, so a kept model holds one bytes object and no dict of tables."""
    __slots__ = ("_sig", "_size", "_bases", "_entries")

    def __init__(self, sig: Signature, size: int, bases: dict[str, int], entries: bytes):
        self._sig, self._size, self._bases, self._entries = sig, size, bases, entries

    def __getitem__(self, name: str) -> OperationTable:
        start, shape = self._bases[name] - self._size, self._sig.get(name).shape
        return OperationTable(self._size, shape, tuple(
            self._entries[start:start + _row_count(self._size, shape)]))

    def __iter__(self) -> Iterator[str]:
        return (d.name for d in self._sig.decls)

    def __len__(self) -> int:
        return len(self._sig.decls)

    def __repr__(self) -> str:
        return repr(dict(self))


# --- model descriptions -------------------------------------------------------

def model_from_spec(model: str, carrier: Sequence[str],
                    interp: Iterable[tuple[str, object]],
                    sig: Signature) -> AbstractionAlgebra:
    """Build the algebra that a named model description defines.

    carrier lists the value names.  interp pairs each abstraction, named as
    in a term (its declared name, else an ASCII alias), with a value name if
    its shape is a value, else with a tuple of (key, value name) rows.  A
    key has one part per argument position: a value name, or, where the
    position binds variables, the row-major entry list of the argument
    operation (a lone value name is a one-entry list).  Every defect, an
    entry for a name the signature does not declare among them, raises a
    ModelError that names the model and the abstraction, with the index in
    `interp` of the entry at fault, and of the row where a row is at fault,
    where there is one.
    """
    if not carrier:
        raise EmptyCarrier(f"model {model}: the carrier has no values")
    if len(set(carrier)) != len(carrier):
        raise DuplicateName(f"model {model}: carrier values repeat")
    universe = Universe(tuple(carrier))
    idx = {v: i for i, v in enumerate(carrier)}
    raw = {}
    for entry, (k, spec) in enumerate(interp):
        name = ALIAS[k] if k not in sig and k in ALIAS else k
        if name not in sig:
            e = StrayInterpretation(f"model {model} interprets {k!r}, which "
                                    f"the signature does not declare")
        elif name in raw:
            e = DuplicateInterpretation(
                f"model {model} interprets abstraction {name!r} twice")
        else:
            raw[name] = entry, spec
            continue
        e.entry = entry
        raise e

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

    def table_rows(name: str, sets, spec):
        """The (key, value) rows of a table spec; an error is placed at its
        row."""
        for row, (key, out) in enumerate(spec):
            try:
                if len(key) != len(sets):
                    raise BadTableKey(f"model {model}: {name}: row key {key!r} "
                                      f"needs {len(sets)} argument(s)")
                yield (tuple(part(name, p, i, v)
                             for i, (p, v) in enumerate(zip(sets, key))),
                       value(name, out))
            except ModelError as e:
                e.row = row
                raise

    tables = {}
    for d in sig.decls:
        if d.name not in raw:
            raise MissingInterpretation(
                f"model {model} interprets no abstraction {d.name!r}")
        (entry, spec), sets = raw[d.name], d.shape.binder_sets
        try:
            if isinstance(spec, tuple) != bool(sets):
                raise SpecKindMismatch(f"model {model}: {d.name} " + (
                    "needs a table, not a value" if sets else "is a value, not a table"))
            rows = table_rows(d.name, sets, spec) if sets else [((), value(d.name, spec))]
            tables[d.name] = table_from_rows(d.name, universe, d.shape, rows)
        except (MissingRow, DuplicateRow) as e:
            placed = type(e)(f"model {model}: {e}")
            placed.entry, placed.row = entry, e.row
            raise placed from None
        except ModelError as e:
            e.entry = entry
            raise
    return AbstractionAlgebra(universe, sig, tables)


def _show_key(key: tuple, names: Sequence[str]) -> str:
    return "(%s)" % ", ".join(
        "[%s]" % ", ".join(names[e] for e in k) if isinstance(k, tuple)
        else names[k] for k in key)


def load_model(path: str, sig: Signature) -> AbstractionAlgebra:
    """Load a model description from a JSON file.

    Schema: {"carrier": [names...], "interp": {abstraction: spec}} where a
    spec is a value name for value shapes, a nested array for pure
    operations, or an object keyed by ";"-separated argument keys (table
    arguments are ","-joined entry lists) for general operators.  Objects
    are read as their (key, value) pairs, so a repeated key is not lost.
    """
    import json  # here, not at the top: only a model file needs it

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
    return model_from_spec(path, carrier, specs, sig)


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
