"""Shared exception types."""
from contextlib import contextmanager


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class ContractError(ValueError):
    """An operation was asked for something its contract forbids."""


class PreconditionError(RuntimeError):
    """A stated hypothesis of a bound or check is not satisfied by the input."""


@contextmanager
def reading_descriptor(what: str, d):
    """Report a malformed descriptor d (a missing key, a wrong type, a value
    that does not convert) as a DomainError naming it."""
    try:
        yield
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad {what} descriptor {d!r}: {exc!r}") from exc
