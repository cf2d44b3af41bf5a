"""The package's public surface, pinned.

Names that only the tests call live in ``tests/oracles.py``; none of them
is exported, and a new export has to be added here on purpose.
"""

import casdrift

PUBLIC = {
    # submodules
    "errors", "lifshitz", "materials", "phys", "reflection", "spatial", "thermo",
    # errors
    "CasdriftError", "ConfigError", "DomainError", "EvaluationError",
    "ModelValidityError", "NormalizationError", "SummationError",
    # lifshitz
    "Geometry", "Plate", "SummationResult", "SumStats", "Tolerances",
    "energy_ratio", "free_energy_per_area", "g_mode", "pressure", "ratio_to_bare",
    # materials
    "BUILTIN", "GE", "SI", "MaterialSpec", "MaterialState", "SellmeierPermittivity",
    "band_gap", "bare_eps", "carrier_density", "get_material", "material_state",
    "relaxation_time",
    # phys
    "CODATA2018", "Constants", "matsubara_xi", "sigma_gaussian", "thermal_wavelength",
    # reflection
    "Bare", "Conductivity", "Drift", "IdealMetal", "Mode", "Nonlocal",
    "ReflectionModel", "amplitude_fn",
    # spatial
    "DriftTensor", "eps_perp_drift", "make_drift_tensor", "r_from_H_tilde",
    "verify_equivalence",
    # thermo
    "EntropyPoint", "NernstReport", "entropy", "nernst_sweep",
}


def test_public_names_are_pinned():
    assert set(casdrift.__all__) == PUBLIC
    assert len(casdrift.__all__) == len(PUBLIC)
