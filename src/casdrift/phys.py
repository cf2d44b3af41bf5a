"""Physical constants and unit conversions (Gaussian-CGS internally).

Every core computation in this package runs in Gaussian-CGS units:
frequencies in rad/s, wavevectors in 1/cm, distances in cm, energies in erg,
conductivities in 1/s.  The screened-wave quantities are read in their
Gaussian form throughout (wave term ``eps * omega^2 / c^2``, inverse Debye
radius squared ``kappa^2 = 4 pi e^2 n0 / (eps0 kB T)``); this is the only
reading in which the imaginary-axis decay wavevectors are dimensionally
consistent.

Practical units (eV, ps, um, Ohm^-1 cm^-1) are converted exactly once at the
configuration/CLI boundary; nothing below that layer ever sees them.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "HBAR",
    "K_B",
    "C_LIGHT",
    "E_CHARGE",
    "M_ELECTRON",
    "CM_PER_UM",
    "ERG_PER_EV",
    "S_PER_PS",
    "GAUSS_PER_OHM_CM",
    "matsubara_xi",
    "sigma_gaussian",
    "thermal_wavelength",
]

# Fundamental constants in Gaussian-CGS, CODATA-2018 values.
HBAR = 1.054571817e-27            # reduced Planck constant [erg s]
K_B = 1.380649e-16                # Boltzmann constant [erg/K]
C_LIGHT = 2.99792458e10           # speed of light [cm/s]
E_CHARGE = 4.80320471257e-10      # elementary charge [esu] (statcoulomb)
M_ELECTRON = 9.1093837015e-28     # electron mass [g]

# Exact conversion factors.
CM_PER_UM = 1.0e-4
ERG_PER_EV = 1.602176634e-12          # CODATA 2018 exact (1 eV in erg)
S_PER_PS = 1.0e-12
# Gaussian conductivity unit: sigma[1/s] = (c^2 * 1e-9) * sigma[Ohm^-1 cm^-1].
# Numerically 8.98755...e11; kept as an exact product of defined constants.
GAUSS_PER_OHM_CM = C_LIGHT * C_LIGHT * 1.0e-9


def matsubara_xi(n: int, T: float) -> float:
    """n-th Matsubara frequency ``xi_n = 2 pi n k_B T / hbar`` [rad/s].

    Parameters
    ----------
    n : int
        Term index, >= 0.  ``n = 0`` returns exactly 0.
    T : float
        Temperature [K], must be finite and > 0.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"Matsubara index must be a nonnegative integer, got {n!r}")
    if not math.isfinite(T) or T <= 0.0:
        raise DomainError(f"temperature must be finite and positive, got {T!r} K")
    if n == 0:
        return 0.0
    return 2.0 * math.pi * n * K_B * T / HBAR


def sigma_gaussian(sigma_ohm_cm_inverse: float) -> float:
    """Convert a dc conductivity from Ohm^-1 cm^-1 to Gaussian 1/s."""
    if not math.isfinite(sigma_ohm_cm_inverse) or sigma_ohm_cm_inverse < 0.0:
        raise DomainError(
            f"conductivity must be finite and >= 0, got {sigma_ohm_cm_inverse!r}"
        )
    return GAUSS_PER_OHM_CM * sigma_ohm_cm_inverse


def thermal_wavelength(T: float) -> float:
    """Thermal photon wavelength ``hbar c / (k_B T)`` [cm] (~7.6 um at 300 K)."""
    if not math.isfinite(T) or T <= 0.0:
        raise DomainError(f"temperature must be finite and positive, got {T!r} K")
    return HBAR * C_LIGHT / (K_B * T)
