"""Shared random generators for property tests.

Everything is driven by explicit random.Random instances so failures are
reproducible from the printed seed.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from abslog import (
    AbstractionAlgebra,
    OperationTable,
    Signature,
    Substitution,
    Template,
    Universe,
    Valuation,
    Var,
    Abs,
    free_vars,
    make_shape,
    pure_shape,
    signature,
)
from abslog.algebra import argument_keys

BINDER_POOL = ("x", "y", "z", "u")
FREE_POOL = ("A", "B", "x", "y")


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rnd():
    return random.Random(20260823)


def random_shape(rnd, max_valence=2, max_arity=2):
    m = rnd.randint(0, max_valence)
    n = rnd.randint(1, max_arity) if m else rnd.randint(0, max_arity)
    sets = [set() for _ in range(n)]
    for j in range(m):
        sets[rnd.randrange(n)].add(j)
        for i in range(n):
            if rnd.random() < 0.25:
                sets[i].add(j)
    return make_shape(m, sets)


def random_signature(rnd, count=4):
    return signature([(f"f{i}", random_shape(rnd)) for i in range(count)])


def random_term(rnd, sig, depth=4, bound=()):
    """Well-formed random term over sig; bound is the pool of names usable
    as (possibly bound) arity-0 occurrences."""
    leafy = depth <= 0 or rnd.random() < 0.3
    if leafy:
        values = [d for d in sig.decls if d.shape.arity == 0]
        roll = rnd.random()
        if values and roll < 0.25:
            d = rnd.choice(values)
            return Abs(d.name, d.shape)
        pool = tuple(bound) + FREE_POOL
        return Var(rnd.choice(pool))
    if rnd.random() < 0.35:
        arity = rnd.randint(1, 2)
        name = rnd.choice(FREE_POOL)
        return Var(name, tuple(random_term(rnd, sig, depth - 1, bound)
                               for _ in range(arity)))
    opers = [d for d in sig.decls if d.shape.arity > 0]
    if not opers:
        return Var(rnd.choice(tuple(bound) + FREE_POOL))
    d = rnd.choice(opers)
    binders = rnd.sample(BINDER_POOL, d.shape.valence)
    args = []
    for i in range(d.shape.arity):
        covered = tuple(binders[j] for j in d.shape.binder_sets[i])
        args.append(random_term(rnd, sig, depth - 1, tuple(bound) + covered))
    return Abs(d.name, d.shape, tuple(binders), tuple(args))


def size_cap(sig):
    """Largest carrier size keeping operator tables small enough to build."""
    widest = max((len(p) for d in sig.decls for p in d.shape.binder_sets),
                 default=0)
    return 2 if widest >= 2 else 3


def random_algebra(rnd, sig, size):
    interp = {}
    for d in sig.decls:
        interp[d.name] = OperationTable(size, d.shape, tuple(
            rnd.randrange(size) for key in argument_keys(size, d.shape)))
    names = tuple(f"v{i}" for i in range(size))
    return AbstractionAlgebra(Universe(names), sig, interp)


def random_valuation(rnd, size, fvs):
    overrides = {}
    for name, arity in fvs:
        entries = tuple(rnd.randrange(size) for _ in range(size ** arity))
        overrides[(name, arity)] = OperationTable(size, pure_shape(arity), entries)
    return Valuation(size, overrides)


def random_substitution(rnd, sig, term, depth=3):
    mapping = {}
    for name, arity in sorted(free_vars(term)):
        if rnd.random() < 0.3:
            continue
        binders = tuple(f"p{k}" for k in range(arity))
        body = random_term(rnd, sig, depth, binders)
        mapping[(name, arity)] = Template(binders, body)
    return Substitution(mapping)
