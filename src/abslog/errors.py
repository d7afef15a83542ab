"""Exception hierarchy shared across the kernel and its front ends.

Every error carries a stable machine ``code`` so the CLI can map it to a
diagnostic without string matching.
"""


class AbslogError(Exception):
    code = "Error"
    line = col = None  # where in a theory file, when known
    source = None  # what the line and column count in, if not that file

    def __init__(self, message=""):
        super().__init__(message or self.code)
        self.message = message or self.code


# --- shapes / signatures ---

class ShapeError(AbslogError):
    code = "ShapeError"


class DegenerateShape(ShapeError):
    code = "DegenerateShape"


class IndexOutOfRange(ShapeError):
    code = "IndexOutOfRange"


class DuplicateAbstraction(AbslogError):
    code = "DuplicateAbstraction"


# --- terms ---

class TermError(AbslogError):
    code = "TermError"


class UnknownAbstraction(TermError):
    code = "UnknownAbstraction"


class ValenceMismatch(TermError):
    code = "ValenceMismatch"


class ArityMismatch(TermError):
    code = "ArityMismatch"


class DuplicateBinder(TermError):
    code = "DuplicateBinder"


class MalformedTerm(TermError):
    """A variable name or binder that is not a non-empty string, or an
    argument that is not a term."""
    code = "MalformedTerm"


class BadSubstitution(TermError):
    """A substitution key that is not a (name, arity) pair, or a template
    body that is not a term."""
    code = "BadSubstitution"


# --- algebras ---

class AlgebraError(AbslogError):
    code = "AlgebraError"


class IllFormedTerm(AlgebraError):
    code = "IllFormedTerm"


class IllFormedTemplate(AlgebraError):
    code = "IllFormedTemplate"


class DuplicateName(AlgebraError):
    code = "DuplicateName"


class NotLogicSignature(AlgebraError):
    code = "NotLogicSignature"


class NotLogicAlgebra(AlgebraError):
    code = "NotLogicAlgebra"


class ArityCapExceeded(AlgebraError):
    code = "ArityCapExceeded"


class SearchSizeOutOfRange(AlgebraError):
    """A model search asked for a carrier size outside 1..256, the values
    one byte per table entry holds."""
    code = "SearchSizeOutOfRange"


class SearchLimitOutOfRange(AlgebraError):
    """A model search asked for fewer than one model: its empty result would
    read as a proof that no model exists."""
    code = "SearchLimitOutOfRange"


class LabelCountMismatch(AlgebraError):
    """Labels for a model check that do not pair one to one with its axioms."""
    code = "LabelCountMismatch"


class TermTooDeep(AlgebraError):
    """A term too deep for the recursion limit of the evaluator or of the
    model search.  It is raised where that limit is spent, so it is built
    by the C constructor, with no Python frame, and reads its message from
    its args."""
    code = "TooDeep"
    __init__ = Exception.__init__
    message = property(lambda self: self.args[0])


class ModelError(AlgebraError):
    """A model description (a model block or a JSON file) that defines no
    algebra over the signature."""
    code = "ModelError"
    # the index of the interpretation at fault, and of its row, when known
    entry = row = None


class EmptyCarrier(ModelError):
    code = "EmptyCarrier"


class UnknownValue(ModelError):
    code = "UnknownValue"


class MissingInterpretation(ModelError):
    code = "MissingInterpretation"


class SpecKindMismatch(ModelError):
    """A table given for a value-shaped abstraction, or a single value for
    an operator."""
    code = "SpecKindMismatch"


class BadTableKey(ModelError):
    code = "BadTableKey"


class MissingRow(ModelError):
    code = "MissingRow"


class DuplicateRow(ModelError):
    code = "DuplicateRow"


class StrayInterpretation(ModelError):
    """An interpretation of a name that the signature declares neither
    directly nor through its ASCII alias."""
    code = "StrayInterpretation"


class DuplicateInterpretation(ModelError):
    """An abstraction interpreted twice, under one name or under its glyph
    and its alias."""
    code = "DuplicateInterpretation"


# --- logics ---

class UnknownLogic(AbslogError):
    code = "UnknownLogic"


class DuplicateAxiom(AbslogError):
    code = "DuplicateAxiom"


# --- kernel ---

class ProofError(AbslogError):
    """Raised by the trusted checker; ``path`` locates the offending node
    in the proof tree (tuple of child indices from the root)."""

    code = "ProofError"

    def __init__(self, message="", path=()):
        super().__init__(message)
        self.path = tuple(path)


class NotAnAxiom(ProofError):
    code = "NotAnAxiom"


class SubstMismatch(ProofError):
    code = "SubstMismatch"


class NotAnImplication(ProofError):
    code = "NotAnImplication"


class MpMismatch(ProofError):
    code = "MpMismatch"


class AllMismatch(ProofError):
    code = "AllMismatch"


class IllFormed(ProofError):
    code = "IllFormed"


class UnknownLemma(ProofError):
    code = "UnknownLemma"


class ProofTooDeep(ProofError):
    """A proof tree too deep for the recursion limit."""
    code = "TooDeep"


class KernelPrivilege(AbslogError):
    code = "KernelPrivilege"


class PreconditionFailed(AbslogError):
    code = "PreconditionFailed"
