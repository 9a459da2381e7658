"""Shared error type with machine-readable codes.

Every validation failure raises GrowthLabError with a stable ``code`` string
(for example ``RATIO_TOO_SMALL``) and, where one input is to blame, a JSON
``pointer`` to it; the CLI maps these to exit code 2 and a JSON diagnostic.
"""


class GrowthLabError(ValueError):
    """Validation or domain error with a stable machine-readable code."""

    def __init__(self, code: str, message: str, pointer: str = ""):
        self.code = code
        self.pointer = pointer
        super().__init__(f"{code}: {message}")


def fail(code: str, message: str, pointer: str = ""):
    raise GrowthLabError(code, message, pointer)


def refuse_unread(d: dict, allowed, what: str):
    """CONFIG_INVALID for a key of `d` outside `allowed`: a key nothing would read."""
    unread = [str(k) for k in d if k not in allowed]
    if unread:
        fail("CONFIG_INVALID", f"{what} does not read {', '.join(unread)}")


def is_number(value, kind) -> bool:
    """isinstance(value, kind), a bool aside: JSON's true is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)
