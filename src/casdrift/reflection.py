"""Imaginary-axis reflection amplitudes for a vacuum/medium interface.

Four models of the medium's low-frequency response are supported:

* ``Bare``          -- textbook Fresnel with the bare permittivity only;
* ``Conductivity``  -- Fresnel with an additive dc-conduction term
                       ``eps(i xi) = eps_bare(i xi) + 4 pi sigma0 / xi``;
* ``Drift``         -- amplitudes of the screened drifting-carrier theory
                       (linearized transport equation coupled to Maxwell),
                       with Debye-Hueckel screening and diffusion;
* ``Nonlocal``      -- the same physics phrased through a spatially
                       dispersive permittivity tensor (see
                       :mod:`casdrift.spatial`).

Everything is evaluated directly on the imaginary frequency axis
(omega = i xi, xi >= 0), where all quantities are real and the decay
wavevectors gamma0, eta_T, eta_L are positive; no complex arithmetic or
branch-cut choices are needed.

Inside the medium the field splits into a transverse branch decaying as
``exp(eta_T z)`` and a longitudinal (density-oscillation) branch decaying as
``exp(eta_L z)``::

    eta_L^2 = k^2 + 4 pi e^2 n0 / (eps(i xi) kB T) + xi (1 + xi tau) / (v_T^2 tau)
    eta_T^2 = k^2 + [eps(i xi) + 4 pi sigma(i xi)/xi] xi^2 / c^2,
              sigma(i xi) = sigma0 / (1 + xi tau)

The TM amplitude is ``(eps g0 - chi)/(eps g0 + chi)`` with the surface
response ``chi = [k^2 + eps (xi/c)^2 (eta_L eta_T - k^2)/(eta_T^2 - k^2)] / eta_L``;
the TE amplitude is the ordinary Fresnel form ``(g0 - eta_T)/(g0 + eta_T)``.
Static (xi = 0) values are never obtained by substituting xi = 0 into the
xi-singular expressions; each model has an explicit analytic static branch.

The providers built by :func:`amplitude_fn` accept floats or numpy arrays
through one body: floats run on :mod:`math` (the cheapest scalar path),
arrays on numpy with the same operations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import phys
from .errors import DomainError
from .materials import MaterialSpec, MaterialState, _material_state_cached

__all__ = [
    "Mode",
    "Bare",
    "Conductivity",
    "Drift",
    "Nonlocal",
    "IdealMetal",
    "ReflectionModel",
    "amplitude_fn",
]

_FOURPI = 4.0 * math.pi
_ndarray = np.ndarray


@dataclass(frozen=True)
class Mode:
    """One evaluation point (xi, k) on the imaginary-frequency / k grid.

    xi [rad/s] >= 0 is the imaginary frequency, k [1/cm] > 0 the wavevector
    projection on the interface plane.  gamma0 = sqrt(k^2 + xi^2/c^2) is the
    vacuum decay wavevector, always >= k.
    """

    xi: float
    k: float

    def __post_init__(self):
        if not math.isfinite(self.xi) or self.xi < 0.0:
            raise DomainError(f"xi must be finite and >= 0, got {self.xi!r}")
        if not math.isfinite(self.k) or self.k <= 0.0:
            raise DomainError(f"k must be finite and > 0, got {self.k!r}")

    @property
    def gamma0(self) -> float:
        return math.hypot(self.k, self.xi / phys.C_LIGHT)


# --- model tags -------------------------------------------------------------

@dataclass(frozen=True)
class Bare:
    """Fresnel amplitudes with the bare permittivity."""


@dataclass(frozen=True)
class Conductivity:
    """Fresnel amplitudes with an additive dc conduction term 4 pi sigma0/xi.

    sigma0 is the dc conductivity in Gaussian units [1/s]; it is an explicit
    input (measured values rather than the transport fit).
    """

    sigma0: float

    def __post_init__(self):
        if not math.isfinite(self.sigma0) or self.sigma0 < 0.0:
            raise DomainError(f"sigma0 must be finite and >= 0, got {self.sigma0!r}")


@dataclass(frozen=True)
class Drift:
    """Screened drifting-carrier amplitudes."""


@dataclass(frozen=True)
class Nonlocal:
    """Drift physics routed through the spatial-dispersion tensor machinery."""


@dataclass(frozen=True)
class IdealMetal:
    """Perfect reflector: r_tm = 1 (r_te = -1 for xi > 0, 0 at xi = 0).

    Not a physical model of this theory; used to build reference terms
    (e.g. the perfectly conducting n = 0 TM contribution).
    """


ReflectionModel = Union[Bare, Conductivity, Drift, Nonlocal, IdealMetal]


# --- drift-model building blocks --------------------------------------------

def _defects(xi: float, state: MaterialState, eps_bar: float):
    """(w, X, Y): w = (xi/c)^2, X = eta_T^2 - k^2, Y = eta_L^2 - k^2.

    Computed directly from the material quantities so that downstream
    differences (eta^2 - k^2) carry no cancellation error.
    """
    w = (xi / phys.C_LIGHT) ** 2
    one_xt = 1.0 + xi * state.tau
    X = eps_bar * w + _FOURPI * state.sigma0 * xi / (phys.C_LIGHT**2 * one_xt)
    Y = (
        _FOURPI * phys.E_CHARGE**2 * state.n0 / (eps_bar * phys.K_B * state.T)
        + xi * one_xt / state.D
    )
    return w, X, Y


def _drift_parts(xi, k, state: MaterialState, eps_bar, lib=math):
    """(w, X, eta_L, eta_T, chi) at xi > 0.

    Writing X = eta_T^2 - k^2 and Y = eta_L^2 - k^2, the chi bracket is
    rearranged as
        eta_L eta_T - k^2 = (k^2 (X + Y) + X Y) / (eta_L eta_T + k^2),
    which keeps the sigma0 = 0 identity chi == eta_T exact in floating
    point.  ``lib`` is :mod:`math` for floats and numpy for arrays.
    """
    k2 = k * k
    w, X, Y = _defects(xi, state, eps_bar)
    etaL_v = lib.sqrt(k2 + Y)
    etaT_v = lib.sqrt(k2 + X)
    cross = (k2 * (X + Y) + X * Y) / (etaL_v * etaT_v + k2)  # eta_L eta_T - k^2
    chi_v = (k2 + eps_bar * w * cross / X) / etaL_v
    return w, X, etaL_v, etaT_v, chi_v


# --- Fresnel helpers ---------------------------------------------------------

def _fresnel_pair(k, w, eps, X, lib=math):
    """(r_tm, r_te) for a local permittivity eps at xi > 0.

    X = eps-induced transverse defect (eta^2 - k^2) is supplied separately
    so conduction terms enter without cancellation.  The TM numerator uses
    (eps g0)^2 - eta^2 = (eps - 1)(k^2 (eps + 1) + eps w) + (eps w - X),
    exact for X = eps w, which keeps r == 0 at eps == 1 exact.
    """
    g = lib.sqrt(k * k + w)
    eta = lib.sqrt(k * k + X)
    num_tm = (eps - 1.0) * (k * k * (eps + 1.0) + eps * w) + (eps * w - X)
    r_tm_v = num_tm / ((eps * g + eta) ** 2)
    r_te_v = (w - X) / ((g + eta) ** 2)
    return r_tm_v, r_te_v


def _drift_static_tm(k, eps0: float, kappa: float, lib=math):
    q = lib.hypot(k, kappa)
    return (eps0 * q - k) / (eps0 * q + k)


# --- per-model amplitude providers -------------------------------------------

@lru_cache(maxsize=256)
def amplitude_fn(model: ReflectionModel, spec: MaterialSpec, T: float) -> Callable:
    """Build ``pair(xi, k) -> (r_tm, r_te)`` for one plate at temperature T.

    The returned closure owns the material state (computed once) and the
    per-model static branches; it is pure and safe to call from concurrent
    workers.  It is the one way the package evaluates an amplitude: the
    Lifshitz summation, ``g_mode`` and the CLI all call it.  The static TE
    amplitude is 0 for every model: the static TE field is purely magnetic
    and fully penetrates a nonmagnetic medium.

    ``xi`` and ``k`` may be floats or numpy arrays that broadcast together;
    the static branch is taken for a float ``xi == 0``, so an array ``xi``
    must hold positive frequencies only.  Amplitudes that do not depend on
    k (the static TE zero, the ideal metal) come back as floats.
    """
    if isinstance(model, IdealMetal):
        def pair_ideal(xi, k):
            if type(xi) is not _ndarray and xi == 0.0:
                return 1.0, 0.0
            return 1.0, -1.0
        return pair_ideal

    perm = spec.permittivity
    eps0 = perm.eps0

    if isinstance(model, Bare):
        def pair_bare(xi, k):
            if type(xi) is _ndarray:
                lib = np
            else:
                lib = np if type(k) is _ndarray else math
                if xi == 0.0:
                    return (eps0 - 1.0) / (eps0 + 1.0), 0.0
            eps = perm.at(xi)
            w = (xi / phys.C_LIGHT) ** 2
            return _fresnel_pair(k, w, eps, eps * w, lib)
        return pair_bare

    if isinstance(model, Conductivity):
        sigma0 = model.sigma0

        def pair_cond(xi, k):
            if type(xi) is _ndarray:
                lib = np
            else:
                lib = np if type(k) is _ndarray else math
                if xi == 0.0:
                    # 4 pi sigma0 / xi diverges: perfect TM reflector.
                    return (1.0 if sigma0 > 0.0 else (eps0 - 1.0) / (eps0 + 1.0)), 0.0
            eps_bare = perm.at(xi)
            eps = eps_bare + _FOURPI * sigma0 / xi
            w = (xi / phys.C_LIGHT) ** 2
            X = eps_bare * w + _FOURPI * sigma0 * xi / phys.C_LIGHT**2
            return _fresnel_pair(k, w, eps, X, lib)
        return pair_cond

    if isinstance(model, Drift):
        state = _material_state_cached(spec, T)

        def pair_drift(xi, k):
            if type(xi) is _ndarray:
                lib = np
            else:
                lib = np if type(k) is _ndarray else math
                if xi == 0.0:
                    return _drift_static_tm(k, eps0, state.kappa, lib), 0.0
            eps = perm.at(xi)
            w, X, _, etaT_v, chi_v = _drift_parts(xi, k, state, eps, lib)
            g = lib.hypot(k, xi / phys.C_LIGHT)
            r_tm_v = (eps * g - chi_v) / (eps * g + chi_v)
            # TE via the defect form: w - X has no cancellation, unlike
            # gamma0 - eta_T when both tend to k.
            r_te_v = (w - X) / ((g + etaT_v) ** 2)
            return r_tm_v, r_te_v
        return pair_drift

    if isinstance(model, Nonlocal):
        from . import spatial  # deferred: spatial depends on this module

        state = _material_state_cached(spec, T)
        tensor = spatial.make_drift_tensor(spec, T)

        def pair_nonlocal(xi, k):
            if type(xi) is _ndarray:
                lib = np
            else:
                lib = np if type(k) is _ndarray else math
                if xi == 0.0:
                    return _drift_static_tm(k, eps0, state.kappa, lib), 0.0
            ht_a, ht_b, ht_c, g, w = spatial._h_tildes(tensor, xi, k, lib)
            Ht_tm = spatial._assemble_H_tm_tilde(ht_a, ht_b, ht_c, k, g, w, xi)
            return spatial.r_from_H_tilde(Ht_tm), spatial.r_from_H_tilde(ht_b)
        return pair_nonlocal

    raise DomainError(f"unknown reflection model {model!r}")
