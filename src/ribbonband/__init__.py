"""Band structure of a zigzag nanoribbon tight-binding model.

The ribbon Hamiltonian reduces, one quasimomentum at a time, to a
one-parameter family of tridiagonal Jacobi matrices; this package computes
the resulting bands, the exactly flat central band, and the weak-field,
band-edge, and strong-field asymptotics, each cross-checked against an
independent dense oracle.
"""

from .asymptotics import (
    StrongFieldEstimate,
    constant_field,
    constant_field_potential,
    first_order_lower_edge,
    first_order_upper_edge,
    order_check,
    strong_field,
    weak_field_center,
    weak_field_edges,
)
from .bands import (
    SpectrumReport,
    band_function,
    band_interval,
    default_grid,
    flat_band_criterion,
    spectrum_report,
    unperturbed_spectrum,
)
from .errors import (
    ConfigError,
    CriterionViolation,
    NumericalError,
)
from .jacobi import (
    a_of_t,
    cos_node,
    eigenvalues,
    eigenvalues_batch,
    sin_node,
    unperturbed_eigenvalue,
)
from .lattice import (
    OPEN,
    PERIODIC,
    FlatBandVector,
    RibbonParams,
    build_ribbon,
    verify_flat_eigen,
)
from .oracle import (
    MultisetReport,
    bloch_union_spectrum,
    compare_multisets,
    dense_symmetric_eig,
    periodic_ribbon_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CriterionViolation",
    "FlatBandVector",
    "MultisetReport",
    "NumericalError",
    "OPEN",
    "PERIODIC",
    "RibbonParams",
    "SpectrumReport",
    "StrongFieldEstimate",
    "a_of_t",
    "band_function",
    "band_interval",
    "bloch_union_spectrum",
    "build_ribbon",
    "compare_multisets",
    "constant_field",
    "constant_field_potential",
    "cos_node",
    "default_grid",
    "dense_symmetric_eig",
    "eigenvalues",
    "eigenvalues_batch",
    "first_order_lower_edge",
    "first_order_upper_edge",
    "flat_band_criterion",
    "order_check",
    "periodic_ribbon_spectrum",
    "sin_node",
    "spectrum_report",
    "strong_field",
    "unperturbed_eigenvalue",
    "unperturbed_spectrum",
    "verify_flat_eigen",
    "weak_field_center",
    "weak_field_edges",
    "__version__",
]
