"""Exception types shared across the package."""


class RankMechError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RankMechError):
    """An input violates a documented precondition (bad index, bad shape, ...)."""


class BudgetError(RankMechError):
    """A brute-force computation would exceed the configured size budget."""


class MarketSpecError(RankMechError):
    """A market spec file failed to parse or validate.

    Attributes:
        code: stable machine-readable diagnostic code (e.g. "E_DUP_TYPE").
        line: 1-based line number the diagnostic points at, 0 for file-level.
    """

    def __init__(self, code: str, line: int, message: str):
        super().__init__(f"{code} (line {line}): {message}")
        self.code = code
        self.line = line
        self.message = message
