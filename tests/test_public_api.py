"""The package's public surface."""

import ribbonband


def test_all_is_pinned():
    # a name enters or leaves the public API only on purpose
    assert sorted(ribbonband.__all__) == [
        "ConfigError", "CriterionViolation",
        "FlatBandVector", "MultisetReport", "NumericalError",
        "OPEN", "PERIODIC", "RibbonParams", "SpectrumReport",
        "__version__", "a_of_t",
        "band_function", "band_interval", "bloch_union_spectrum",
        "build_ribbon", "compare_multisets", "constant_field",
        "constant_field_potential", "cos_node", "default_grid",
        "dense_symmetric_eig", "eigenvalues", "eigenvalues_batch",
        "first_order_edges",
        "flat_band_criterion",
        "order_check", "periodic_ribbon_spectrum", "sin_node",
        "spectrum_report", "strong_field", "unperturbed_eigenvalue",
        "unperturbed_spectrum", "verify_flat_eigen", "weak_field_center",
        "weak_field_edges",
    ]
    for name in ribbonband.__all__:
        assert hasattr(ribbonband, name), name
