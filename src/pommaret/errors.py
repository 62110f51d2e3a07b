"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` (stable, used by the
CLI) next to the human message.
"""


class PommaretError(Exception):
    """Base class; ``code`` identifies the failure kind to scripts."""

    code = "error"

    def __init__(self, message=""):
        super().__init__(message)
        self.message = message


# --- input / construction -------------------------------------------------

class ArityMismatch(PommaretError):
    code = "arity-mismatch"


class UnitMonomial(PommaretError):
    code = "unit-monomial"


class EmptyInput(PommaretError):
    code = "empty-input"


class UnitGenerator(PommaretError):
    code = "unit-generator"


class TooManyGenerators(PommaretError):
    code = "too-many-generators"


class IdealSyntaxError(PommaretError):
    """Bad ideal file; carries 1-based line and column."""

    code = "syntax-error"

    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


# --- math preconditions ---------------------------------------------------

class NotQuasiStable(PommaretError):
    code = "not-quasi-stable"


class DegreeOutOfRange(PommaretError):
    code = "degree-out-of-range"


class TauNotNonMultiplicative(PommaretError):
    code = "tau-not-nonmultiplicative"


# --- structural -----------------------------------------------------------

class MismatchedBases(PommaretError):
    code = "mismatched-bases"


class NotPSComplex(PommaretError):
    code = "not-ps-complex"


class NotAMorseMatching(PommaretError):
    code = "not-a-morse-matching"


class NonUnitPair(PommaretError):
    code = "non-unit-pair"


class NotAComplex(PommaretError):
    code = "not-a-complex"


class NotMinimal(PommaretError):
    code = "not-minimal"


class BrokenInvariant(PommaretError):
    """An internal consistency check failed: a bug, not bad input."""

    code = "broken-invariant"
