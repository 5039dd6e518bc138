"""Exception hierarchy shared across the package."""


class QlieError(Exception):
    """Base class for all library errors."""


class InputError(QlieError):
    """Malformed or inconsistent user input (CLI exit code 2)."""
