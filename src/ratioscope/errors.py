"""Exception hierarchy shared across the package."""


class RatioscopeError(Exception):
    """Base class for all errors raised by ratioscope."""


class DimensionMismatch(RatioscopeError):
    """Inputs disagree on dimensionality or feature naming."""


class TooFewSamples(RatioscopeError):
    """An operation needs more samples than were provided."""


class InvalidLabel(RatioscopeError):
    """A label column holds a value other than inlier/outlier."""


class MalformedCsv(RatioscopeError):
    """A CSV file has a bad header, a row of the wrong length or a bad value."""


class DegenerateData(RatioscopeError):
    """Data is degenerate (e.g. all points coincide)."""


class InvalidK(RatioscopeError):
    """Neighbor count is out of range for the sample count."""


class SolverFailure(RatioscopeError):
    """A numerical solver failed; the CLI exits 1 rather than 2."""


class LineSearchFailure(SolverFailure):
    """No decreasing step exists at machine precision."""


class NonDecrease(SolverFailure):
    """Internal assertion: objective trace increased beyond slack."""


class NegativeThreshold(RatioscopeError):
    """Detection threshold must be nonnegative."""


class UnknownSample(RatioscopeError):
    """Requested sample id does not exist."""


class SingleClass(RatioscopeError):
    """Both classes are required for ROC/AUC computation."""


class InvalidSpec(RatioscopeError):
    """Synthetic-data specification is invalid."""


class InfeasibleNu(RatioscopeError):
    """One-class SVM nu makes the dual infeasible."""


class SingularSystem(SolverFailure):
    """Unregularized linear system is rank-deficient."""


class AllZeroAlphas(RatioscopeError):
    """Projection annihilated all kernel coefficients."""
