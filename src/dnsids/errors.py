"""Exception types shared across the package.

Every error descends from exactly one of three roots, which the CLI maps
to its exit codes: `ConfigError` (2), `ParseError` (3) and
`TrainingError` (4).
"""


class DnsIdsError(Exception):
    """Base class for every package-specific error."""

    fold: int | None = None   # the failing dataset, when one call trains several


class ConfigError(DnsIdsError):
    """Pipeline configuration invalid, or an input file missing or unreadable."""


class ParseError(DnsIdsError):
    """Malformed trace, dataset, or report input."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class TrainingError(DnsIdsError):
    """Classifier training or scoring failed."""


class InvalidConfig(ConfigError, ValueError):
    """A configuration object violates one of its rules.

    Raised while the object is built, whoever builds it; the message
    starts with the key that breaks the rule.
    """


def require(ok: bool, key: str, rule: str, value) -> None:
    """Raise InvalidConfig "<key> must be <rule>, got <value>" unless `ok`."""
    if not ok:
        raise InvalidConfig(f"{key} must be {rule}, got {value}")


class InvalidWidth(TrainingError):
    """Hidden-layer width outside the supported range."""


class SingularUpdate(TrainingError):
    """Damped normal equations unsolvable at every damping in (0, lm_lambda_max]."""


class NeedTwoCenters(TrainingError):
    """The width rule needs at least two centers."""


class DegenerateDesign(TrainingError):
    """Regularized least-squares system unsolvable."""


class LengthMismatch(TrainingError):
    """Prediction and truth lists differ in length."""


class Empty(TrainingError):
    """An operation received no samples."""


class NumericFault(TrainingError):
    """Overflow, division by zero or an invalid operation while a
    classifier trains or scores, as on a feature too large to square."""


class WorkerLost(TrainingError):
    """A worker process ended before it returned its result."""


class TooFewSamples(TrainingError):
    """Fewer samples than cross-validation folds, or fewer distinct points
    than cluster centers."""
