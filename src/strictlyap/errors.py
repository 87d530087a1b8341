"""The base class of every failure the CLI reports as a failed validation."""


class ValidationFailure(RuntimeError):
    """A check ran and its inequality, estimate or run failed (CLI exit 1)."""
