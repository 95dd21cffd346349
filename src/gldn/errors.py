"""Shared exception taxonomy."""


class DimensionError(ValueError):
    """Shapes or extents incompatible with an operation's contract."""


class DomainError(ValueError):
    """A value outside its documented domain (e.g. age outside [14, 97])."""


class ConfigError(ValueError):
    """A configuration that cannot produce a valid model or run."""


class NumericsError(RuntimeError):
    """Non-finite values or a numerically failed step."""


class FormatError(ValueError):
    """Malformed on-disk container. `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
