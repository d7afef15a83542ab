"""The value classes: terms, shapes, signatures, logics, algebras, parsed
blocks and reports.  Each equals only a value of its exact class with
equal fields (leaving out the token fields of a parsed block), hashes as
the tuple of those fields, prints as `Class(field=value, ...)`, cannot be
changed, and is copied and pickled through its constructor, so through
its checks."""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from abslog import (
    AbstractionAlgebra,
    AbstractionDecl,
    AxiomVerdict,
    BlockResult,
    CheckReport,
    Diagnostic,
    Logic,
    ModelBlock,
    ModelReport,
    OperationTable,
    Shape,
    Signature,
    Template,
    TheoryFile,
    Universe,
    Valuation,
    Var,
    constant_table,
    degenerate_model,
    make_shape,
    parse_theory,
)
from abslog.errors import (
    ArityMismatch,
    DuplicateAbstraction,
    DuplicateAxiom,
    DuplicateBinder,
    DuplicateName,
    IllFormedTerm,
    IndexOutOfRange,
)
from abslog.logics import SIG_D, TRUE, const, imp, v
from abslog.shape import BINOP_SHAPE, UNOP_SHAPE, VALUE_SHAPE
from abslog.term import Abs, encode
from abslog.value import Value

_FILE = ("logic D\naxiom X: A -> A\n"
         "model m { carrier a  true := a  imp := { (a, a) -> a }  all := { ([a]) -> a } }\n")

# each class's constructor parameters, in order, as its dataclass had them
FIELDS = {
    Var: ("name", "args"),
    Abs: ("name", "shape", "binders", "args"),
    Shape: ("valence", "binder_sets"),
    AbstractionDecl: ("name", "shape"),
    Signature: ("decls",),
    Template: ("binders", "body"),
    Logic: ("name", "signature", "axioms"),
    Universe: ("value_names",),
    OperationTable: ("size", "shape", "entries"),
    AbstractionAlgebra: ("universe", "signature", "interp"),
    Valuation: ("size", "overrides"),
    AxiomVerdict: ("label", "axiom", "passed", "failing_valuation", "value"),
    ModelReport: ("verdicts",),
    BlockResult: ("name", "kind", "verdict", "theorem", "diagnostics"),
    CheckReport: ("results",),
    Diagnostic: ("severity", "line", "col", "message", "code"),
    ModelBlock: ("name", "carrier", "interp", "tokens", "at", "entry_at", "row_at"),
    TheoryFile: ("base", "decls", "axioms", "theorems", "models", "tokens", "axiom_at"),
}
# fields that == and hash leave out
UNCOMPARED = {ModelBlock: ("tokens", "at", "entry_at", "row_at"),
              TheoryFile: ("tokens", "axiom_at")}


def _arguments() -> dict[type, tuple]:
    """The constructor's arguments of one value of each class."""
    node = encode(imp(v("A"), v("A")), [], SIG_D)
    tf = parse_theory(_FILE)
    mb = tf.models[0]
    diagnostic = Diagnostic("error", 3, 4, "bad step", "Code")
    verdict = AxiomVerdict("X", node, False, ((("A", 0), (1,)),), 1)
    result = BlockResult("t", "theorem", "failed", None, (diagnostic,))
    return {
        Var: ("x", (Var("y"),)),
        Abs: ("∀", make_shape(1, [(0,)]), ("x",), (v("A", v("x")),)),
        Shape: (2, ((0,), (0, 1), ())),
        AbstractionDecl: ("f", BINOP_SHAPE),
        Signature: ((AbstractionDecl("c", VALUE_SHAPE), AbstractionDecl("f", UNOP_SHAPE)),),
        Template: (("x",), v("B", v("x"))),
        Logic: ("L", SIG_D, (("T", const(TRUE)),)),
        Universe: (("T", "F"),),
        OperationTable: (2, UNOP_SHAPE, (1, 0)),
        AbstractionAlgebra: tuple(getattr(degenerate_model(SIG_D), f)
                                  for f in FIELDS[AbstractionAlgebra]),
        Valuation: (2, {("A", 0): constant_table(2, 0, 1)}),
        AxiomVerdict: ("X", node, False, ((("A", 0), (1,)),), 1),
        ModelReport: ((verdict,),),
        BlockResult: ("t", "theorem", "failed", None, (diagnostic,)),
        CheckReport: ((result,),),
        Diagnostic: ("error", 3, 4, "bad step", "Code"),
        ModelBlock: tuple(getattr(mb, f) for f in FIELDS[ModelBlock]),
        TheoryFile: tuple(getattr(tf, f) for f in FIELDS[TheoryFile]),
    }


_S1 = "Shape(valence=1, binder_sets=((0,),))"
_S2 = "Shape(valence=0, binder_sets=((), ()))"
_S0 = "Shape(valence=0, binder_sets=())"
_SIG_D = (f"Signature(decls=(AbstractionDecl(name='⊤', shape={_S0}), "
          f"AbstractionDecl(name='⇒', shape={_S2}), AbstractionDecl(name='∀', shape={_S1})))")
_NODE = f"('A', '⇒', {_S2}, (), (('v', 'A', ()), ('v', 'A', ())))"
_MODEL = ("ModelBlock(name='m', carrier=('a',), interp=(('true', 'a'), "
          "('imp', ((('a', 'a'), 'a'),)), ('all', (((('a',),), 'a'),))), at=8)")
_DIAGNOSTIC = "Diagnostic(severity='error', line=3, col=4, message='bad step', code='Code')"
_VERDICT = (f"AxiomVerdict(label='X', axiom={_NODE}, passed=False, "
            "failing_valuation=((('A', 0), (1,)),), value=1)")
_RESULT = (f"BlockResult(name='t', kind='theorem', verdict='failed', theorem=None, "
           f"diagnostics=({_DIAGNOSTIC},))")
_TABLE = "OperationTable(size=1, shape={}, entries=(0,))"
# each repr as the dataclasses printed it
REPRS = {
    Var: "Var(name='x', args=(Var(name='y', args=()),))",
    Abs: (f"Abs(name='∀', shape={_S1}, binders=('x',), "
          "args=(Var(name='A', args=(Var(name='x', args=()),)),))"),
    Shape: "Shape(valence=2, binder_sets=((0,), (0, 1), ()))",
    AbstractionDecl: f"AbstractionDecl(name='f', shape={_S2})",
    Signature: (f"Signature(decls=(AbstractionDecl(name='c', shape={_S0}), "
                "AbstractionDecl(name='f', shape=Shape(valence=0, binder_sets=((),)))))"),
    Template: "Template(binders=('x',), body=Var(name='B', args=(Var(name='x', args=()),)))",
    Logic: f"Logic(name='L', signature={_SIG_D}, axioms=(('T', ('A', '⊤', {_S0}, (), ())),))",
    Universe: "Universe(value_names=('T', 'F'))",
    OperationTable: "OperationTable(size=2, shape=Shape(valence=0, binder_sets=((),)), entries=(1, 0))",
    AbstractionAlgebra: (
        f"AbstractionAlgebra(universe=Universe(value_names=('*',)), signature={_SIG_D}, "
        f"interp={{'⊤': {_TABLE.format(_S0)}, '⇒': {_TABLE.format(_S2)}, "
        f"'∀': {_TABLE.format(_S1)}}})"),
    Valuation: ("Valuation(size=2, overrides={('A', 0): "
                "OperationTable(size=2, shape=Shape(valence=0, binder_sets=()), entries=(1,))})"),
    AxiomVerdict: _VERDICT,
    ModelReport: f"ModelReport(verdicts=({_VERDICT},))",
    BlockResult: _RESULT,
    CheckReport: f"CheckReport(results=({_RESULT},))",
    Diagnostic: _DIAGNOSTIC,
    ModelBlock: _MODEL,
    TheoryFile: (f"TheoryFile(base='D', decls=(), axioms=(('X', {_NODE}),), theorems=(), "
                 f"models=({_MODEL},))"),
}


@pytest.fixture(scope="module")
def values():
    return {cls: (cls(*args), args) for cls, args in _arguments().items()}


def _compared(value) -> tuple:
    """The fields of value that == and hash read, in order."""
    cls = type(value)
    return tuple(getattr(value, f) for f in FIELDS[cls] if f not in UNCOMPARED.get(cls, ()))


def test_every_value_class_is_covered():
    assert set(Value.__subclasses__()) == set(FIELDS) == set(REPRS)
    assert len(FIELDS) == 18
    for cls, fields in FIELDS.items():
        assert cls._fields == fields


def test_each_repr_is_as_before(values):
    for cls, (value, _) in values.items():
        assert repr(value) == REPRS[cls], cls.__name__


def test_a_value_equals_only_its_exact_class(values):
    for cls, (value, args) in values.items():
        again = cls(*args)
        assert again == value and not again != value, cls.__name__
        sub = type(cls.__name__, (cls,), {})(*args)
        assert sub != value and value != sub and not sub == value, cls.__name__
        assert value != tuple(args) and value != _compared(value)
        assert all(value != other for other, _ in values.values() if other is not value)


def test_a_value_hashes_as_the_tuple_of_its_compared_fields(values):
    for cls, (value, args) in values.items():
        if cls in (AbstractionAlgebra, Valuation):  # a dict field: no hash
            with pytest.raises(TypeError):
                hash(value)
            continue
        assert hash(value) == hash(cls(*args)) == hash(_compared(value)), cls.__name__


def test_token_fields_are_not_compared_or_hashed(values):
    """A model block and a theory file compare and hash without the
    tokens they were parsed from and the token indices they keep; so does
    a signature without its name table."""
    block, _ = values[ModelBlock]
    other = parse_theory("\n\n" + _FILE).models[0]
    assert (other.tokens, other.at) != (block.tokens, block.at)
    for moved in (other, ModelBlock(block.name, block.carrier, block.interp, None, 0, (), ())):
        assert moved == block and hash(moved) == hash(block)
    assert ModelBlock("n", block.carrier, block.interp, *_arguments()[ModelBlock][3:]) != block
    tf, _ = values[TheoryFile]
    bare = TheoryFile(tf.base, tf.decls, tf.axioms, tf.theorems, tf.models)
    assert bare.tokens is None and bare.axiom_at == {} != tf.axiom_at
    assert bare == tf and hash(bare) == hash(tf)
    assert TheoryFile("K", tf.decls, tf.axioms, tf.theorems, tf.models) != tf
    sig, _ = values[Signature]
    again = Signature(sig.decls)
    assert again._by_name is not sig._by_name
    assert again == sig and hash(again) == hash(sig)


def test_a_value_cannot_be_changed(values):
    for cls, (value, args) in values.items():
        for name in (*FIELDS[cls], "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*args) and repr(value) == REPRS[cls]


_COPIES = pytest.mark.parametrize(
    "how", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"])


@_COPIES
def test_copies_and_pickles_are_equal_values(values, how):
    for cls, (value, _) in values.items():
        again = how(value)
        assert type(again) is cls and again == value, cls.__name__
        assert repr(again) == repr(value)


_BROKEN = [  # a field a checked class refuses, and the error
    (Shape, "valence", -1, IndexOutOfRange),
    (Abs, "binders", ("x", "x"), DuplicateBinder),
    (Signature, "decls", (AbstractionDecl("c", VALUE_SHAPE),) * 2, DuplicateAbstraction),
    (Template, "binders", ("x", "x"), DuplicateBinder),
    (Logic, "axioms", (("T", const(TRUE)),) * 2, DuplicateAxiom),
    (Universe, "value_names", ("T", "T"), DuplicateName),
    (OperationTable, "entries", (0,), ArityMismatch),
    (AbstractionAlgebra, "interp", {}, IllFormedTerm),
]


@pytest.mark.parametrize("cls, field, bad, error", _BROKEN,
                         ids=[cls.__name__ for cls, *_ in _BROKEN])
@_COPIES
def test_a_copy_or_pickle_is_checked_again(cls, field, bad, error, how):
    value = cls(*_arguments()[cls])
    object.__setattr__(value, field, bad)  # past the constructor
    with pytest.raises(error):
        how(value)


def test_keyword_construction_and_defaults(values):
    for cls, (value, args) in values.items():
        assert cls(**dict(zip(FIELDS[cls], args))) == value, cls.__name__
    assert Var("x").args == () and Var(name="x") == Var("x", ())
    assert Abs("c", VALUE_SHAPE) == Abs("c", VALUE_SHAPE, (), ())
    node = _arguments()[AxiomVerdict][1]
    verdict = AxiomVerdict("X", node, True)
    assert (verdict.failing_valuation, verdict.value) == (None, None)
    empty = TheoryFile()
    assert (empty.base, empty.decls, empty.axioms, empty.theorems, empty.models,
            empty.tokens, empty.axiom_at) == (None, (), (), (), (), None, {})
    assert TheoryFile().axiom_at is not empty.axiom_at
    assert Valuation(2).overrides == {} and Valuation(2).overrides is not Valuation(2).overrides


def test_import_loads_none_of_the_cold_modules():
    """`import abslog` and `import abslog.cli`, each in a fresh
    interpreter, load neither dataclasses nor inspect, json or string; and
    `import abslog` does not load argparse."""
    src = str(Path(__file__).parent.parent / "src")
    for module, barred in (("abslog", {"dataclasses", "inspect", "json", "string", "argparse"}),
                           ("abslog.cli", {"dataclasses", "inspect", "json", "string"})):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
                f"import {module}; print(' '.join(sorted(set(sys.modules) - before)))")
        env = {k: val for k, val in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True, env=env).stdout.split()
        assert module in out and "abslog.value" in out
        assert not barred & set(out), (module, sorted(barred & set(out)))
