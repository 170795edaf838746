"""Exception types shared across the package.

The CLI maps these onto its exit codes, one type per code: ConfigError
-> 2, NumericalError -> 3, CriterionViolation -> 4 (a regime or
flat-band precondition, or a flat-band vector whose support leaves the
open section).  Verification failures are reported, not raised.
"""


class ConfigError(ValueError):
    """Invalid configuration or arguments (bad N, wrong potential length, ...)."""


class NumericalError(RuntimeError):
    """A computation failed: a result beyond float64 range (eigenvalue, band
    edge or prediction), a failed LAPACK solve, rotation sweeps beyond their
    cap, or a drifted normalization check."""


class CriterionViolation(ValueError):
    """A mathematical precondition of the requested computation is violated."""
