"""Exception taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: UsageError (and subclasses) -> 3,
VerificationError -> 2, anything else -> 1.
"""


class UsageError(ValueError):
    """A precondition or argument violation; the caller passed something invalid."""


class PrecisionError(UsageError):
    """A high-precision comparison could not be decided at the stored precision.

    Raised instead of guessing, so schedules stay reproducible bit for bit.
    """


class VerificationError(AssertionError):
    """An internal cross-check or tolerance gate failed."""


class BudgetExceededError(UsageError):
    """An enumeration would exceed its explicit budget; ``count`` bounds its size from below.
    The message shows a count past 64 bits as its power-of-two floor, short at any size."""

    def __init__(self, budget: int, count: int):
        shown = str(count) if count.bit_length() <= 64 else f"2**{count.bit_length() - 1}"
        super().__init__(f"enumeration refused: at least {shown} items, more than budget {budget}")
        self.budget = budget
        self.count = count
