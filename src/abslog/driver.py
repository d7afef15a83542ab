"""Untrusted glue between parsed theory files and the trusted kernel.

The elaborator turns every proof step into a kernel proof node whose
premises are the nodes of the steps it cites, with the step's `==>`
annotation, if any, as the target; the kernel's rules derive the
conclusion of an unannotated step.  Each step's tree goes whole to
`check_proof`, which applies each node's rule once per theorem store.  A
bug here can only produce a spurious failure, never a bogus theorem.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AbstractionAlgebra,
    boolean_model,
    degenerate_model,
    load_model,
    model_from_spec,
)
from .errors import AbslogError, PreconditionFailed, TermError
from .kernel import All, Ax, Lemma, Mp, Proof, Subst, TheoremDB, check_proof
from .logics import Logic, all_, builtin_logic, imp, is_extension, v
from .shape import Signature, extends_signature
from .subst import Substitution, Template
from .syntax import (
    ALIAS,
    Diagnostic,
    ModelBlock,
    ProofStep,
    TheoremBlock,
    TheoryFile,
)
from .term import Term, alpha_eq, check_wellformed, encode, same_class


@dataclass(frozen=True)
class BlockResult:
    name: str
    kind: str
    verdict: str  # "proved" | "failed"
    statement: Term | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "proved"

    def to_json(self):
        return {"name": self.name, "kind": self.kind, "verdict": self.verdict,
                "diagnostics": [d.to_json() for d in self.diagnostics]}


@dataclass(frozen=True)
class CheckReport:
    results: tuple[BlockResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _failed(block: TheoremBlock, at, message: str, code: str) -> BlockResult:
    """A failed verdict with one error at `at`, a step or the block."""
    d = Diagnostic("error", at.line, at.col, message, code)
    return BlockResult(block.name, "theorem", "failed", None, (d,))


def _elaborate(step: ProofStep, trees: dict) -> Proof:
    def ref(name: str) -> Proof:
        if name not in trees:
            e = AbslogError(
                f"step {step.name}: no earlier step named {name!r}")
            e.code = "UnknownStep"
            raise e
        return trees[name]

    if step.rule == "ax":
        return Ax(step.label if step.label is not None else step.term)
    if step.rule == "lemma":
        return Lemma(step.label)
    if step.rule == "subst":
        return Subst(step.claimed, step.sigma, ref(step.refs[0]))
    if step.rule == "mp":
        return Mp(step.claimed, ref(step.refs[0]), ref(step.refs[1]))
    if step.rule == "all":
        return All(step.claimed, step.binder, ref(step.refs[0]))
    raise AbslogError(f"unknown proof rule {step.rule!r}")


def check_theorem(logic: Logic, block: TheoremBlock,
                  db: TheoremDB) -> BlockResult:
    trees: dict[str, Proof] = {}
    thm = None
    for step in block.steps:
        if step.name in trees:
            return _failed(block, step, f"step {step.name!r} defined twice",
                           "DuplicateStep")
        try:
            node = _elaborate(step, trees)
            thm = check_proof(logic, node, db)
        except AbslogError as e:
            return _failed(block, step, e.message, e.code)
        if step.claimed is not None and not alpha_eq(thm.statement, step.claimed):
            return _failed(block, step, "step proves a different statement "
                           "than annotated", "ClaimMismatch")
        trees[step.name] = node
    if thm is None:
        return _failed(block, block, "empty proof", "EmptyProof")
    if not same_class(thm.node, encode(block.statement, [])):
        return _failed(block, block, "final step does not prove the stated "
                       "theorem", "ConclusionMismatch")
    db.add(block.name, thm)
    return BlockResult(block.name, "theorem", "proved", thm.statement, ())


def check_theory(tf: TheoryFile, db: TheoremDB | None = None) -> CheckReport:
    """Check every theorem block in order, accumulating proved theorems so
    later blocks can cite earlier ones as lemmas."""
    logic = tf.logic()
    if db is None:
        db = TheoremDB()
    results = [check_theorem(logic, block, db) for block in tf.theorems]
    return CheckReport(tuple(results))


def inconsistency_expand(logic: Logic, p_forall: Proof, target: Term,
                         db: TheoremDB | None = None) -> Proof:
    """Given a proof of (∀x. x), build a proof of an arbitrary target:
    instantiate D4 with [x. x], apply modus ponens to get the theorem x,
    then substitute the target for x."""
    if not is_extension(logic, builtin_logic("D")):
        raise PreconditionFailed("logic does not extend deduction logic")
    x = v("x")
    forall_x = all_("x", x)
    if not alpha_eq(check_proof(logic, p_forall, db).statement, forall_x):
        raise PreconditionFailed("premise does not prove (∀x. x)")
    try:
        check_wellformed(target, logic.signature)
    except TermError as e:
        raise PreconditionFailed(str(e)) from e
    d4 = imp(all_("x", v("A", x)), v("A", x))
    d4_inst = Subst(imp(forall_x, x),
                    Substitution({("A", 1): Template(("x",), x)}), Ax(d4))
    theorem_x = Mp(x, p_forall, d4_inst)
    return Subst(target, Substitution({("x", 0): Template((), target)}), theorem_x)


# --- model checking for theory files ------------------------------------------

def build_model(block: ModelBlock, sig: Signature) -> AbstractionAlgebra:
    """Turn a parsed in-file model block into an abstraction algebra.  An
    error it raises carries the line and column of the block."""
    try:
        return model_from_spec(block.name, block.carrier, block.interp, sig, ALIAS)
    except AbslogError as e:
        e.line, e.col = block.line, block.col
        raise


def model_for(tf: TheoryFile, spec: str) -> AbstractionAlgebra:
    """Resolve a --model argument: "boolean", "degenerate", the name of a
    model block in the file, or a path to a JSON model description."""
    sig = tf.signature
    block = tf.model_block(spec)
    if block is not None:
        return build_model(block, sig)
    if spec == "degenerate":
        return degenerate_model(sig)
    if spec == "boolean":
        base = boolean_model()
        if not extends_signature(base.signature, sig):
            raise AbslogError(
                "the boolean model only interprets the classical connectives")
        return AbstractionAlgebra(base.universe, sig, base.interp)
    return load_model(spec, sig, ALIAS)
