"""Exception hierarchy.

Everything raised on purpose derives from SetOrderError so the CLI can map
failures to exit codes without fishing for stray ValueErrors.
"""

from __future__ import annotations


class SetOrderError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SetOrderError):
    """Vector/set/cone dimensions disagree."""


class ConeSpecError(SetOrderError):
    """Malformed cone description (zero rows, non-finite entries, bad dim)."""


class NotSolid(SetOrderError):
    """No interior direction exists: the cone has empty interior."""


class ContainmentNotEstablished(SetOrderError):
    """Cone containment precondition failed or was refuted by a witness."""


class SetSpecError(SetOrderError):
    """Malformed set literal (empty box, non-finite lower end, bad flags)."""


class Unsupported(SetOrderError):
    """Representation/cone pairing outside the exact-semantics envelope.

    Box unions under a non-orthant cone are refused rather than approximated.
    """


class ExprError(SetOrderError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int):
        # expressions live in single-line JSON strings, so line is always 1
        super().__init__(f"{message} (line 1, column {pos + 1})")
        self.reason = message
        self.pos = pos


class UnboundVariable(ExprError):
    """Expression references a variable absent from the environment."""


class DomainError(ExprError):
    """Evaluation left the reals: sqrt of a negative, division by zero, NaN."""


class ProblemLoadError(SetOrderError):
    """Problem file failed schema validation or an on-grid invariant."""


class HorizonExceeded(SetOrderError):
    """A family was asked for an index beyond its n_max."""


class NoRecoveryFound(SetOrderError):
    """Upper Gamma route exhausted its search budget without a recovery point."""


class InternalCheckError(SetOrderError):
    """A redundant cross-check disagreed with the primary computation."""
