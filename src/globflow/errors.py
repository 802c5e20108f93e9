"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems (bad files, unknown
ids, grammar errors) exit 1, structural axiom violations exit 2, and an
exhausted search budget, a realization over its size limit or a PV
program whose grid is over the compile limit exits 3.  Any other
exception is an internal error and exits 4.
"""

from __future__ import annotations


class GlobflowError(Exception):
    """Base class for all library errors."""


class UnknownIdError(GlobflowError, KeyError):
    """A state, edge, or path id does not resolve."""

    def __str__(self) -> str:  # KeyError quotes its payload otherwise
        return self.args[0] if self.args else ""


class InvalidComplexError(GlobflowError, ValueError):
    """A globular complex failed validation where validity is required."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid complex: " + "; ".join(self.violations))


class InvalidFlowError(GlobflowError, ValueError):
    """A flow failed validation where validity is required."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid flow: " + "; ".join(self.violations))


class InvalidMorphismError(GlobflowError, ValueError):
    """A structure map is not a morphism of the stated kind."""


class InvalidAttachmentError(GlobflowError, ValueError):
    """A cell cannot be attached to the complex being extended."""


class SearchBudgetExceeded(GlobflowError, RuntimeError):
    """An exhaustive search hit its candidate budget before finishing.

    Distinct from a completed search that found nothing: callers must not
    read this as "disproved".
    """

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"search budget exhausted after {budget} candidates")


class RealizationLimitExceeded(GlobflowError, RuntimeError):
    """A realization would hold more paths and composites than its limit.

    Raised before anything is built, from exact counts, so a complex too
    large to realize fails fast instead of exhausting memory.
    """

    def __init__(self, paths: int, composites: int, limit: int):
        self.paths = paths
        self.composites = composites
        self.limit = limit
        super().__init__(
            f"realization limit exceeded: {paths} paths + {composites} composites "
            f"> limit {limit}"
        )


class CompileLimitExceeded(GlobflowError, RuntimeError):
    """A PV program's grid would hold more cells than the compile limit.

    Raised before any position tuple is built, from exact counts of the
    states, edges and squares, so a program too large to compile fails fast
    instead of exhausting memory.
    """

    def __init__(self, states: int, edges: int, squares: int, limit: int):
        self.states = states
        self.edges = edges
        self.squares = squares
        self.limit = limit
        super().__init__(
            f"compile limit exceeded: {states} states + {edges} edges + {squares} squares "
            f"> limit {limit}"
        )


class FormatError(GlobflowError, ValueError):
    """A document does not conform to one of the textual formats."""


class PvError(GlobflowError, ValueError):
    """A PV program is syntactically or semantically ill-formed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class PvSyntaxError(PvError):
    """Tokenization or grammar failure, with position."""
