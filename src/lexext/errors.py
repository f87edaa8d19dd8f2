"""Exceptions shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the domain a routine is defined on."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would visit more graphs than allowed."""

    def __init__(self, n: int, m: int, required: int, budget: int) -> None:
        # args holds every value, so pickle rebuilds the error when it
        # crosses from a pool worker back to its parent
        super().__init__(n, m, required, budget)
        self.n = n
        self.m = m
        self.required = required
        self.budget = budget

    def __str__(self) -> str:
        return (
            f"enumerating all graphs with n={self.n}, m={self.m} needs "
            f"{self.required} graphs, budget is {self.budget}"
        )


class FormatError(ValueError):
    """A graph document could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
