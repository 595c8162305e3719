"""Semantic exception hierarchy.

The CLI maps these onto process exit codes: invalid parameters or
configuration -> 2, regime violations -> 3, budget violations -> 4.
"""

from __future__ import annotations

__all__ = ["MagnetError", "InvalidParamsError", "ConfigError", "RegimeError", "BudgetError"]


class MagnetError(Exception):
    """Base class for all package-specific errors."""


class InvalidParamsError(MagnetError, ValueError):
    """A parameter, argument, or configuration value is out of range."""


class ConfigError(InvalidParamsError):
    """An experiment configuration file is missing, malformed, or inconsistent."""


class RegimeError(MagnetError):
    """An operation was requested in a regime where it is undefined.

    Raised when a limit-theory or bound operation needs the supercritical
    regime (or a nondegenerate sigma) and the parameters do not provide it.
    """


class BudgetError(MagnetError):
    """A compute budget (e.g. the pair budget of the graph sampler) was exceeded."""
