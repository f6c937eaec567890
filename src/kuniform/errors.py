"""Shared exception types.

These mark the three failure modes the library distinguishes from plain
programming errors: a computation that does not apply to the given input,
an input exceeding a configured capacity cap, and a subset search that
would overrun its evaluation budget.

`MAX_PARTIES` caps the party count a command accepts from outside the
program, so that a huge request fails at once with a `CapacityError`
instead of running without end or exhausting memory.  It sits well above
every size in use (the published tables reach N = 276).
"""

MAX_PARTIES = 4096


class NotApplicableError(RuntimeError):
    """The requested computation is not defined for this input."""


class CapacityError(RuntimeError):
    """The input exceeds a configured size cap for exact brute force."""


class BudgetExceededError(RuntimeError):
    """A subset search would exceed its evaluation budget; no partial result."""


def check_party_count(n_parties: int) -> None:
    """Raise CapacityError when a party count exceeds `MAX_PARTIES`."""
    if n_parties > MAX_PARTIES:
        raise CapacityError(
            f"party count {n_parties} exceeds the cap of {MAX_PARTIES} parties"
        )
