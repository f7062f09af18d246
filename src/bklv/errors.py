"""Exception types shared across the package."""


class BklvError(Exception):
    """Base class for all package errors: a message and the list of rule
    violations behind it (empty for most errors)."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class ConfigError(BklvError, ValueError):
    """Invalid model or cache configuration."""


class ShapeError(BklvError, ValueError):
    """Tensor arguments with inconsistent shapes."""


class InputError(BklvError, ValueError):
    """Invalid runtime input (tokens, prompts, corpora)."""


class AllocationError(BklvError, ValueError):
    """Budget plan construction or validation failure."""


class FormatError(BklvError, ValueError):
    """Malformed serialized artifact (weights, profiles, plans, reports)."""
