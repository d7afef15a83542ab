"""Exception hierarchy shared across the kernel and its front ends.

Every error carries a stable machine ``code`` so the CLI can map it to a
diagnostic without string matching.
"""


class AbslogError(Exception):
    """The base of every abslog error.  Its `code` is the class name unless
    the class sets its own."""
    code = "Error"
    line = col = None  # where in a theory file, when known
    source = None  # what the line and column count in, if not that file

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "code" not in vars(cls):
            cls.code = cls.__name__

    def __init__(self, message=""):
        super().__init__(message or self.code)
        self.message = message or self.code


# --- shapes / signatures ---

class ShapeError(AbslogError):
    pass


class DegenerateShape(ShapeError):
    pass


class IndexOutOfRange(ShapeError):
    pass


class DuplicateAbstraction(AbslogError):
    pass


# --- terms ---

class TermError(AbslogError):
    pass


class UnknownAbstraction(TermError):
    pass


class ValenceMismatch(TermError):
    pass


class ArityMismatch(TermError):
    pass


class DuplicateBinder(TermError):
    pass


class MalformedTerm(TermError):
    """A variable name or binder that is not a non-empty string, or an
    argument that is not a term."""


class BadSubstitution(TermError):
    """A substitution key that is not a (name, arity) pair, or a template
    body that is not a term."""


# --- algebras ---

class AlgebraError(AbslogError):
    pass


class IllFormedTerm(AlgebraError):
    pass


class IllFormedTemplate(AlgebraError):
    pass


class DuplicateName(AlgebraError):
    pass


class NotLogicSignature(AlgebraError):
    pass


class NotLogicAlgebra(AlgebraError):
    pass


class ArityCapExceeded(AlgebraError):
    pass


class SearchSizeOutOfRange(AlgebraError):
    """A model search asked for a carrier size outside 1..256, the values
    one byte per table entry holds."""


class SearchTooLarge(AlgebraError):
    """A model search whose tables have more cells than its store holds
    (algebra.MAX_SEARCH_CELLS), refused before any work."""


class SearchLimitOutOfRange(AlgebraError):
    """A model search asked for fewer than one model: its empty result would
    read as a proof that no model exists."""


class LabelCountMismatch(AlgebraError):
    """Labels for a model check that do not pair one to one with its axioms."""


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
    # the index of the interpretation at fault, and of its row, when known
    entry = row = None


class EmptyCarrier(ModelError):
    pass


class UnknownValue(ModelError):
    pass


class MissingInterpretation(ModelError):
    pass


class SpecKindMismatch(ModelError):
    """A table given for a value-shaped abstraction, or a single value for
    an operator."""


class BadTableKey(ModelError):
    pass


class MissingRow(ModelError):
    pass


class DuplicateRow(ModelError):
    pass


class StrayInterpretation(ModelError):
    """An interpretation of a name that the signature declares neither
    directly nor through its ASCII alias."""


class DuplicateInterpretation(ModelError):
    """An abstraction interpreted twice, under one name or under its glyph
    and its alias."""


# --- logics ---

class UnknownLogic(AbslogError):
    pass


class DuplicateAxiom(AbslogError):
    pass


# --- kernel ---

class ProofError(AbslogError):
    """Raised by the trusted checker; ``path`` locates the offending node
    in the proof tree (tuple of child indices from the root)."""

    def __init__(self, message="", path=()):
        super().__init__(message)
        self.path = tuple(path)


class NotAnAxiom(ProofError):
    pass


class SubstMismatch(ProofError):
    pass


class NotAnImplication(ProofError):
    pass


class MpMismatch(ProofError):
    pass


class AllMismatch(ProofError):
    pass


class IllFormed(ProofError):
    pass


class UnknownLemma(ProofError):
    pass


class ProofTooDeep(ProofError):
    """A proof tree too deep for the recursion limit."""
    code = "TooDeep"


class KernelPrivilege(AbslogError):
    pass


class PreconditionFailed(AbslogError):
    pass


# --- command line ---

class BadAssignment(AbslogError):
    """An `eval --assign` item that is not name=value, names no variable,
    repeats a name or gives a value the model's carrier lacks."""
