"""Exceptions: bad input raises InputError (the CLI exits 2), a
numerical failure a SolverFailure (the CLI exits 1)."""


class RatioscopeError(Exception):
    """Base class for all errors raised by ratioscope."""


class InputError(RatioscopeError, ValueError):
    """An input is malformed, out of range or inconsistent with another;
    the message says which and names the file when there is one."""


class SolverFailure(RatioscopeError):
    """A numerical solver failed; the CLI exits 1 rather than 2."""


class LineSearchFailure(SolverFailure):
    """No decreasing step exists at machine precision."""


class NonDecrease(SolverFailure):
    """Internal assertion: objective trace increased beyond slack."""


class SingularSystem(SolverFailure):
    """Unregularized linear system is rank-deficient."""
