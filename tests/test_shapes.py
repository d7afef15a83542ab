import copy
import pickle

import pytest

from abslog import (
    BINDER_SHAPE,
    BINOP_SHAPE,
    Shape,
    UNOP_SHAPE,
    VALUE_SHAPE,
    extends_signature,
    is_logic_signature,
    make_shape,
    signature,
)
from abslog.errors import (DegenerateShape, DuplicateAbstraction, IndexOutOfRange,
                           ShapeError)
from abslog.logics import SIG_D, SIG_E, SIG_K
from abslog.shape import AbstractionDecl, Signature

from conftest import random_signature


def test_value_shape():
    s = make_shape(0, [])
    assert s == VALUE_SHAPE
    assert s.valence == 0 and s.arity == 0
    assert str(s) == "(0;)"


def test_unary_operator_shape():
    s = make_shape(1, [{0}])
    assert s == BINDER_SHAPE
    assert str(s) == "(1; {0})"


def test_degenerate_rejected():
    with pytest.raises(DegenerateShape):
        make_shape(1, [set()])
    with pytest.raises(DegenerateShape):
        make_shape(2, [{0}, {0}])
    # zero arguments force zero valence
    with pytest.raises(DegenerateShape):
        make_shape(1, [])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        make_shape(1, [{1}])
    with pytest.raises(IndexOutOfRange):
        make_shape(-1, [])


def test_binder_sets_sorted_and_deduped():
    s = make_shape(2, [[1, 0, 1], []])
    assert s.binder_sets == ((0, 1), ())


@pytest.mark.parametrize("valence, sets, error", [
    (1, ((5,),), IndexOutOfRange),  # once a theorem whose statement raised IndexError
    (-1, (), IndexOutOfRange),
    (2, ((0,), (0,)), DegenerateShape),
    (2, ((1, 0),), ShapeError),
    (1, ((0, 0),), ShapeError),
    (1, [(0,)], ShapeError),
    (True, ((0,),), ShapeError),
])
def test_a_shape_built_directly_is_checked_as_make_shape_checks(valence, sets, error):
    with pytest.raises(error):
        Shape(valence, sets)


def test_signature_rejects_duplicates():
    with pytest.raises(DuplicateAbstraction):
        signature([("f", VALUE_SHAPE), ("f", BINOP_SHAPE)])


def test_signature_table_is_read_only():
    """Writing into the name table once declared a head in the builtin D
    for the kernel's node check; a copy or a pickle is built again."""
    with pytest.raises(TypeError):
        SIG_D._by_name["nope"] = AbstractionDecl("nope", BINOP_SHAPE)
    assert "nope" not in SIG_D
    for again in (copy.copy(SIG_D), pickle.loads(pickle.dumps(SIG_D))):
        assert again == SIG_D and again.get("⇒") == SIG_D.get("⇒")
    with pytest.raises(AttributeError):  # `get` is the table's own lookup
        SIG_D.get = lambda name: None


def test_a_signature_subclass_keeps_its_own_lookup():
    """A Signature answers `get` with its name table's own lookup, unless
    a subclass defines `get`: then that is what answers."""
    class Open(Signature):
        def get(self, name):
            return super().get(name) or super().get("⇒")

    assert SIG_D.get("nope") is None and "nope" not in SIG_D
    assert Open(SIG_D.decls).get("nope") == SIG_D.get("⇒") and "nope" in Open(SIG_D.decls)


def test_signature_takes_only_plain_declarations():
    """A declaration is exactly an AbstractionDecl of a str and a Shape:
    the node check reads its name and shape again, and a subclass could
    answer differently each time."""
    class Decl(AbstractionDecl):
        pass

    class Name(str):
        pass

    for decl in (Decl("f", BINOP_SHAPE), AbstractionDecl(Name("f"), BINOP_SHAPE),
                 AbstractionDecl("f", "(0; {}, {})"), ("f", BINOP_SHAPE)):
        with pytest.raises(ShapeError):
            Signature(SIG_D.decls + (decl,))


def test_signature_lookup_and_extend():
    sig = signature([("f", UNOP_SHAPE)])
    assert sig.get("f").shape == UNOP_SHAPE
    assert sig.get("g") is None
    assert "f" in sig
    ext = sig.extend(signature([("g", VALUE_SHAPE)]).decls)
    assert ext.names == ("f", "g")
    assert sig.names == ("f",)  # original untouched


def test_is_logic_signature():
    assert is_logic_signature(SIG_D)
    assert not is_logic_signature(signature([]))
    wrong = signature([("⊤", VALUE_SHAPE), ("⇒", BINOP_SHAPE),
                       ("∀", UNOP_SHAPE)])
    assert not is_logic_signature(wrong)


def test_extends_signature_examples():
    assert extends_signature(SIG_E, SIG_D)
    assert extends_signature(SIG_D, SIG_D)
    clash = signature([("⊤", VALUE_SHAPE), ("⇒", BINOP_SHAPE),
                       ("∀", BINDER_SHAPE), ("=", UNOP_SHAPE)])
    assert not extends_signature(clash, SIG_E)


def test_extends_signature_reflexive_transitive(rnd):
    sigs = [random_signature(rnd, count=rnd.randint(1, 5)) for _ in range(20)]
    for sig in sigs:
        assert extends_signature(sig, sig)
    for sig in sigs:
        bigger = sig.extend(signature([("extra", VALUE_SHAPE)]).decls)
        biggest = bigger.extend(signature([("extra2", UNOP_SHAPE)]).decls)
        assert extends_signature(bigger, sig)
        assert extends_signature(biggest, bigger)
        assert extends_signature(biggest, sig)


def test_logic_signature_preserved_by_extension():
    assert extends_signature(SIG_K, SIG_D)
    assert is_logic_signature(SIG_K)
