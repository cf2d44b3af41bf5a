"""Temperature-dependent optical and transport models for low-carrier media.

A material is described by a single-resonance (Sellmeier) bare permittivity
plus a nondegenerate intrinsic-carrier model: effective densities of states
``n_c(T) = A_c T^{3/2}``, ``n_v(T) = A_v T^{3/2}``, a Varshni-type band gap
``E_g(T) = E_0 - alpha T^2/(T + beta)`` and a fitted relaxation time
``tau(T) = tau_0 + tau_1 exp(C_1 (T/300)^2 + C_2 (T/300))``.

Built-in parameter sets for intrinsic Ge and Si are provided.  Electrons and
holes are treated as dynamically equivalent carriers, which doubles the
charge density entering the screening and conductivity quantities; the
doubling is applied once, in :func:`carrier_density`, so every derived
quantity (kappa^2, sigma_0) sees the same density and the
definitional closures hold identically.

The fitted transport models are quoted for roughly 20-300 K; this module
declares 0 < T <= 400 K as its validity range and attaches a warning (rather
than failing) outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import phys
from .errors import DomainError, ModelValidityError

__all__ = [
    "SellmeierPermittivity",
    "MaterialSpec",
    "MaterialState",
    "GE",
    "SI",
    "BUILTIN",
    "DEFAULT_COND_SIGMA0_OHM_CM",
    "bare_eps",
    "band_gap",
    "carrier_density",
    "relaxation_time",
    "material_state",
]

T_VALID_MAX = 400.0  # K; fits quoted for ~20-300 K
_ndarray = np.ndarray


@dataclass(frozen=True)
class SellmeierPermittivity:
    """Single-resonance bare permittivity on the imaginary frequency axis.

    eps(i xi) = eps_inf + omega0^2 (eps0 - eps_inf) / (xi^2 + omega0^2)

    eps0 is the static value, eps_inf the high-frequency limit, omega0 the
    resonance frequency [rad/s].  On the imaginary axis the value is real,
    bounded by [eps_inf, eps0] and monotonically decreasing in xi.  The
    xi-independent products omega0^2 and omega0^2 (eps0 - eps_inf) are
    formed once, at construction.
    """

    eps0: float
    eps_inf: float
    omega0: float
    _w2: float = field(init=False, repr=False, compare=False)
    _strength: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.eps0 > self.eps_inf >= 1.0):
            raise DomainError(
                f"need eps0 > eps_inf >= 1, got eps0={self.eps0}, eps_inf={self.eps_inf}"
            )
        if not (self.omega0 > 0.0):
            raise DomainError(f"need omega0 > 0, got {self.omega0}")
        object.__setattr__(self, "_w2", self.omega0**2)
        object.__setattr__(self, "_strength", self._w2 * (self.eps0 - self.eps_inf))

    def at(self, xi):
        """eps(i xi) for a float or a numpy array of frequencies."""
        if type(xi) is _ndarray:
            bad = not ((xi >= 0.0) & (xi < math.inf)).all()
        else:
            bad = not (0.0 <= xi < math.inf)
        if bad:
            raise DomainError(f"imaginary frequency must be >= 0, got {xi!r}")
        return self.eps_inf + self._strength / (xi * xi + self._w2)


@dataclass(frozen=True)
class MaterialSpec:
    """Fitted model parameters for one material (practical units noted)."""

    permittivity: SellmeierPermittivity
    nc_prefactor: float        # cm^-3 K^-3/2
    nv_prefactor: float        # cm^-3 K^-3/2
    gap_E0: float              # eV
    gap_alpha: float           # eV/K
    gap_beta: float            # K
    tau0_ps: float
    tau1_ps: float
    tau_C1: float
    tau_C2: float
    mass_ratio: float          # m/m_e
    carrier_doubling: bool = True
    name: str = "custom"

    def __post_init__(self):
        if self.nc_prefactor <= 0.0 or self.nv_prefactor <= 0.0:
            raise DomainError("density-of-states prefactors must be > 0")
        if self.mass_ratio <= 0.0:
            raise DomainError("mass_ratio must be > 0")
        if self.gap_E0 <= 0.0:
            raise DomainError("gap_E0 must be > 0")


@dataclass(frozen=True)
class MaterialState:
    """All temperature-derived transport quantities at one temperature.

    Fields (Gaussian-CGS): n0 [cm^-3] (doubled when carrier_doubling is
    set), tau [s], sigma0 = e^2 n0 tau / m [1/s], v_T = sqrt(kB T/m) [cm/s],
    mobility = e tau / m [esu], D = v_T^2 tau [cm^2/s],
    kappa = sqrt(4 pi e^2 n0/(eps0 kB T)) [1/cm], R_D = 1/kappa [cm].
    """

    T: float
    n0: float
    tau: float
    sigma0: float
    v_T: float
    mobility: float
    D: float
    kappa: float
    R_D: float
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# Built-in parameter sets (intrinsic Ge and Si, fits valid for ~20-300 K).

GE = MaterialSpec(
    permittivity=SellmeierPermittivity(eps0=16.2, eps_inf=1.1, omega0=5.0e15),
    nc_prefactor=1.98e15,
    nv_prefactor=9.6e14,
    gap_E0=0.742,
    gap_alpha=4.8e-4,
    gap_beta=235.0,
    tau0_ps=0.26,
    tau1_ps=1.49,
    tau_C1=-0.434,
    tau_C2=1.322,
    mass_ratio=0.12,
    name="Ge",
)

SI = MaterialSpec(
    permittivity=SellmeierPermittivity(eps0=11.87, eps_inf=1.035, omega0=6.6e15),
    nc_prefactor=6.2e15,
    nv_prefactor=3.5e15,
    gap_E0=1.17,
    gap_alpha=4.73e-4,
    gap_beta=636.0,
    tau0_ps=1.0,
    tau1_ps=-0.538,
    tau_C1=0.0015,
    tau_C2=-0.09,
    mass_ratio=0.26,
    name="Si",
)

BUILTIN = {"Ge": GE, "Si": SI}

# dc conductivities used by the additive-conductivity comparison model,
# in Ohm^-1 cm^-1 (resistivities 43 Ohm cm and 2.3e5 Ohm cm).  These are
# measured values and do NOT coincide with e^2 n0 tau / m computed from the
# transport fit; the conductivity model therefore takes sigma0 explicitly.
DEFAULT_COND_SIGMA0_OHM_CM = {"Ge": 1.0 / 43.0, "Si": 1.0 / 2.3e5}


# ---------------------------------------------------------------------------
# Operations

def bare_eps(spec: MaterialSpec, xi: float) -> float:
    """Bare (carrier-free) permittivity evaluated at imaginary frequency xi."""
    return spec.permittivity.at(xi)


def band_gap(spec: MaterialSpec, T: float) -> float:
    """Band gap E_g(T) [eV]."""
    if not math.isfinite(T) or T < 0.0:
        raise DomainError(f"temperature must be finite and >= 0, got {T!r}")
    return spec.gap_E0 - spec.gap_alpha * T * T / (T + spec.gap_beta)


def carrier_density(spec: MaterialSpec, T: float) -> float:
    """Intrinsic carrier density n0(T) [cm^-3].

    sqrt(n_c n_v) exp(-E_g / 2 kB T) with n_c, n_v ~ T^{3/2}; doubled when
    the material treats electrons and holes as equivalent carriers.  T <= 0, or
    kB T subnormal (below 1.6e-292 K), is a domain error; T = 0 is amplitude_fn's.
    """
    if not (math.isfinite(T) and phys.K_B * T >= np.finfo(float).tiny):
        raise DomainError(f"temperature must be finite, kB T normal and > 0, got {T!r}")
    n_c = spec.nc_prefactor * T**1.5
    n_v = spec.nv_prefactor * T**1.5
    kT_eV = phys.K_B * T / phys.ERG_PER_EV
    n0 = math.sqrt(n_c * n_v) * math.exp(-band_gap(spec, T) / (2.0 * kT_eV))
    if spec.carrier_doubling:
        n0 *= 2.0
    return n0


def relaxation_time(spec: MaterialSpec, T: float) -> float:
    """Carrier relaxation time tau(T) [s] from the fitted two-term model."""
    if not math.isfinite(T) or T < 0.0:
        raise DomainError(f"temperature must be finite and >= 0, got {T!r}")
    t = T / 300.0
    tau_ps = spec.tau0_ps + spec.tau1_ps * math.exp(
        spec.tau_C1 * t * t + spec.tau_C2 * t
    )
    if tau_ps <= 0.0:
        raise ModelValidityError(
            f"relaxation-time fit for {spec.name!r} gives tau = {tau_ps} ps <= 0 "
            f"at T = {T} K; outside the model's validity"
        )
    return tau_ps * phys.S_PER_PS


def material_state(spec: MaterialSpec, T: float) -> MaterialState:
    """All derived transport quantities at temperature T.

    Satisfies the definitional closures
    ``kappa^2 eps0 kB T = 4 pi e^2 n0`` and ``sigma0 = e^2 n0 tau / m``
    exactly (same constants, same n0).
    """
    if not math.isfinite(T) or T <= 0.0:
        raise DomainError(f"temperature must be finite and positive, got {T!r}")
    warnings = ()
    if T > T_VALID_MAX:
        warnings = (
            f"T = {T} K outside declared validity range 0 < T <= {T_VALID_MAX} K",
        )
    n0 = carrier_density(spec, T)
    tau = relaxation_time(spec, T)
    m = spec.mass_ratio * phys.M_ELECTRON
    kT = phys.K_B * T
    v_T = math.sqrt(kT / m)
    mobility = phys.E_CHARGE * tau / m
    sigma0 = phys.E_CHARGE * n0 * mobility  # = e^2 n0 tau / m
    D = v_T * v_T * tau
    kappa_sq = 4.0 * math.pi * phys.E_CHARGE**2 * n0 / (spec.permittivity.eps0 * kT)
    kappa = math.sqrt(kappa_sq)
    R_D = math.inf if kappa == 0.0 else 1.0 / kappa
    return MaterialState(
        T=T, n0=n0, tau=tau, sigma0=sigma0, v_T=v_T,
        mobility=mobility, D=D, kappa=kappa, R_D=R_D, warnings=warnings,
    )
