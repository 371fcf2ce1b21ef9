"""Exceptions shared across the package.

Exit-code mapping in the CLI: InputError -> 2, CapExceededError -> 3,
InternalError -> 4.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad dimensions, non-prime p, ...)."""


class PreconditionError(InputError):
    """A stated hypothesis of an operation fails; the message names it."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        msg = f"precondition violated: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class CapExceededError(RuntimeError):
    """An enumeration grew past its explicit cap."""

    def __init__(self, what: str, cap: int):
        self.what = what
        self.cap = cap
        super().__init__(f"{what} exceeded cap of {cap}")


class InternalError(RuntimeError):
    """A certificate or internal invariant failed: a bug, never bad input."""


def certify(condition, message: str) -> None:
    """Raise InternalError(message) unless condition holds; unlike assert,
    the check also runs under python -O."""
    if not condition:
        raise InternalError(message)
