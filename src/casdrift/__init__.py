"""Casimir-Lifshitz computations for media with low carrier density.

Free energy, pressure and entropy between planar semi-spaces of intrinsic
semiconductors or dielectrics, using reflection amplitudes that account for
Debye-Hueckel screening and carrier drift, cross-validated against local
Fresnel models and the spatial-dispersion (nonlocal) formulation.
"""

__version__ = "0.1.0"

from .errors import (
    CasdriftError,
    ConfigError,
    DomainError,
    EvaluationError,
    ModelValidityError,
    NormalizationError,
    SummationError,
)
from .lifshitz import (
    Geometry,
    Plate,
    SummationResult,
    SumStats,
    Tolerances,
    energy_ratio,
    free_energy_per_area,
    g_mode,
    pressure,
    ratio_to_bare,
)
from .materials import (
    BUILTIN,
    GE,
    SI,
    MaterialSpec,
    MaterialState,
    SellmeierPermittivity,
    band_gap,
    bare_eps,
    carrier_density,
    get_material,
    material_state,
    relaxation_time,
)
from .phys import CODATA2018, Constants, matsubara_xi, sigma_gaussian, thermal_wavelength
from .reflection import (
    Bare,
    Conductivity,
    Drift,
    IdealMetal,
    Mode,
    Nonlocal,
    ReflectionModel,
    amplitude_fn,
)
from .spatial import (
    DriftTensor,
    eps_perp_drift,
    make_drift_tensor,
    r_from_H_tilde,
    verify_equivalence,
)
from .thermo import EntropyPoint, NernstReport, entropy, nernst_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
