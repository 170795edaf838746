"""Exception types shared across the package.

The CLI maps these onto its exit codes: ConfigError -> 2,
NumericalError -> 3, CriterionViolation and BoundaryClashError -> 4.
Verification failures are reported, not raised.
"""


class ConfigError(ValueError):
    """Invalid configuration or arguments (bad N, wrong potential length, ...)."""


class NumericalError(RuntimeError):
    """A computation failed: a result beyond float64 range (eigenvalue, band
    edge or prediction), a failed LAPACK solve, rotation sweeps beyond their
    cap, or a drifted normalization check."""


class CriterionViolation(ValueError):
    """A mathematical precondition of the requested computation is violated."""


class BoundaryClashError(ValueError):
    """A compactly supported vector does not fit inside the finite section."""
