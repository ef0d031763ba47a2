"""Exceptions: bad input raises InputError (the CLI exits 2), a
numerical failure a SolverFailure (the CLI exits 1)."""

import math
import numbers


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


def check_number(name, value, low, high=math.inf, *, integer=False, open_low=False,
                 open_high=False):
    """Raise InputError naming ``name`` unless ``value`` is a real number (an
    integer if ``integer``; numpy scalars pass, a bool never does) from ``low``
    to ``high``, each end included unless its ``open_*`` flag is set."""
    if not (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (low < value if open_low else low <= value)  # NaN lies in no range
            and (value < high if open_high else value <= high)):
        right = ")" if open_high or (integer and high == math.inf) else "]"  # no integer is inf
        raise InputError(f"{name} must be {'an integer' if integer else 'a number'} in "
                         f"{'(' if open_low else '['}{low}, {high}{right}, got {value!r}")


def check_choice(name, value, choices):
    """``value``, or InputError naming ``name`` unless it is a str in ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise InputError(f"{name} must be one of {', '.join(map(repr, choices))}, got {value!r}")
    return value


def check_sequence(name, values, what):
    """``values`` as a tuple, or InputError naming ``name`` unless it is iterable."""
    try:
        return tuple(values)
    except TypeError:  # not iterable
        raise InputError(f"{name} must be a sequence of {what}, got {values!r}") from None
