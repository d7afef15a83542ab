"""Shape-checked terms, capture-avoiding substitution, finite abstraction
algebras and a small trusted proof kernel, with a concrete syntax for
theory files."""

from .algebra import (
    AbstractionAlgebra,
    AxiomVerdict,
    ModelReport,
    OperationTable,
    Universe,
    Valuation,
    boolean_model,
    check_model,
    constant_table,
    degenerate_model,
    eval_term,
    find_models,
    is_logic_algebra,
    load_model,
    table_from_rows,
    valuation_from_subst,
)
from .driver import (
    BlockResult,
    CheckReport,
    build_model,
    check_theorem,
    check_theory,
    inconsistency_expand,
    model_for,
)
from .errors import AbslogError, ProofError
from .kernel import (
    All,
    Ax,
    Lemma,
    Mp,
    Subst,
    Theorem,
    TheoremDB,
    check_proof,
)
from .logics import (
    BUILTIN_NAMES,
    Logic,
    builtin_logic,
    is_extension,
)
from .shape import (
    AbstractionDecl,
    BINDER_SHAPE,
    BINOP_SHAPE,
    Shape,
    Signature,
    UNOP_SHAPE,
    VALUE_SHAPE,
    extends_signature,
    is_logic_signature,
    make_shape,
    pure_shape,
    signature,
)
from .subst import (
    Substitution,
    Template,
    apply_subst,
    canonical,
    fresh_var,
    resolve_template,
)
from .syntax import (
    Diagnostic,
    ModelBlock,
    ParseError,
    ProofStep,
    TheoremBlock,
    TheoryFile,
    parse_term,
    parse_theory,
    print_term,
    print_theory,
)
from .term import (
    Abs,
    Term,
    Var,
    alpha_eq,
    check_wellformed,
    free_vars,
    to_debruijn,
)

__all__ = [name for name in dir() if not name.startswith("_")]
