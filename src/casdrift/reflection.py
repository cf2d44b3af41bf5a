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

Each kernel is one body of plain arithmetic that serves floats and numpy
arrays alike: square roots are written ``x ** 0.5``, which numpy evaluates
as ``np.sqrt`` and Python floats through libm ``pow``.

:func:`amplitude_fn` builds one closure per (model, spec, T) and forms
everything that depends only on those when it builds it.  A call at
xi > 0 evaluates eps(i xi) once and hands it to the model's kernels:
the Fresnel provider serves ``Conductivity`` and ``Bare``, which is
``Conductivity`` with sigma0 = 0 (the conduction terms then add exact
zeros), in its own body; ``Drift`` calls the ``parts`` kernel that
:func:`_drift_parts` builds for the material state; ``Nonlocal`` calls the
kernels of :mod:`casdrift.spatial`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import phys
from .errors import DomainError
from .materials import MaterialSpec, MaterialState, material_state

__all__ = [
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
    """Drift physics through the nonlocal tensor: ``spatial.nonlocal_amplitudes``."""


@dataclass(frozen=True)
class IdealMetal:
    """Perfect reflector: r_tm = 1 (r_te = -1 for xi > 0, 0 at xi = 0).

    Not a physical model of this theory; used to build reference terms
    (e.g. the perfectly conducting n = 0 TM contribution).
    """


ReflectionModel = Union[Bare, Conductivity, Drift, Nonlocal, IdealMetal]


# --- drift-model building blocks --------------------------------------------

def _drift_parts(state: MaterialState):
    """Build ``parts(xi, k, eps_bar) -> (w, X, eta_L, eta_T, chi)`` at xi > 0.

    The products of the material state are formed once, here.  Inside,
    w = (xi/c)^2, X = eta_T^2 - k^2 and Y = eta_L^2 - k^2 come directly
    from the material quantities, so the differences eta^2 - k^2 carry no
    cancellation error, and the chi bracket is rearranged as
        eta_L eta_T - k^2 = (k^2 (X + Y) + X Y) / (eta_L eta_T + k^2),
    which keeps the sigma0 = 0 identity chi == eta_T exact in floating
    point.
    """
    tau, D, T = state.tau, state.D, state.T
    c, c2, k_b = phys.C_LIGHT, phys.C_LIGHT**2, phys.K_B
    cond = _FOURPI * state.sigma0                    # 4 pi sigma0
    screen = _FOURPI * phys.E_CHARGE**2 * state.n0   # 4 pi e^2 n0

    def parts(xi, k, eps_bar):
        k2 = k * k
        w = (xi / c) ** 2
        one_xt = 1.0 + xi * tau
        X = eps_bar * w + cond * xi / (c2 * one_xt)
        Y = screen / (eps_bar * k_b * T) + xi * one_xt / D
        etaL_v = (k2 + Y) ** 0.5
        etaT_v = (k2 + X) ** 0.5
        cross = (k2 * (X + Y) + X * Y) / (etaL_v * etaT_v + k2)  # eta_L eta_T - k^2
        chi_v = (k2 + eps_bar * w * cross / X) / etaL_v
        return w, X, etaL_v, etaT_v, chi_v
    return parts


def _drift_static_tm(k, eps0: float, kappa: float):
    """(eps0 q - k)/(eps0 q + k), q^2 = k^2 + kappa^2, through c = k/q.

    Scale-safe: exact at kappa = 0, and 1 once (kappa/k)^2 overflows.
    """
    a = kappa / k
    c = (1.0 + a * a) ** -0.5
    return (eps0 - c) / (eps0 + c)


# --- per-model amplitude providers -------------------------------------------

@lru_cache(maxsize=256)
def amplitude_fn(model: ReflectionModel, spec: MaterialSpec, T: float) -> Callable:
    """Build ``pair(xi, k) -> (r_tm, r_te)`` for one plate at temperature T.

    Building the closure does every step that depends only on (model,
    spec, T), once: the material state, the products of it that the
    kernels use (4 pi sigma0, 4 pi e^2 n0) and the constants of the static
    branches; the permittivity forms its own constants when the spec is
    built.  A call does the (xi, k) arithmetic only.  The closure is pure
    and safe to call from concurrent workers.  The cache gives one closure
    per (model, spec, T): the engine's ``pair2 is pair1`` shortcut calls a
    pair shared by identical plates once, and the benchmark's
    ``materials.states_built`` counts closures.  It is the one way the
    package evaluates an amplitude: the Lifshitz engine's
    Q = r1 r2 exp(-2 d gamma0) kernel (behind both the Matsubara sum and
    ``g_mode``), the nonlocal cross-check and the CLI's ``reflect`` all
    call it.  The static TE amplitude is 0 for every model: the static TE
    field is purely magnetic and fully penetrates a nonmagnetic medium.
    Every provider refuses a non-finite or negative frequency with
    DomainError, through the permittivity's check.

    ``xi`` and ``k`` may be floats or numpy arrays that broadcast together;
    the static branch is taken for a float ``xi == 0``, so an array ``xi``
    must hold positive frequencies only.  Amplitudes that do not depend on
    k (the static TE zero, the ideal metal) come back as floats.
    """
    perm = spec.permittivity
    at, eps0 = perm.at, perm.eps0

    if isinstance(model, IdealMetal):
        def pair_ideal(xi, k):
            if type(xi) is not _ndarray and xi == 0.0:
                return 1.0, 0.0
            at(xi)  # the frequency check every provider makes
            return 1.0, -1.0
        return pair_ideal

    if isinstance(model, (Bare, Conductivity)):
        # Bare is Conductivity(0): its conduction terms add exact zeros.
        sigma0 = model.sigma0 if isinstance(model, Conductivity) else 0.0
        cond = _FOURPI * sigma0
        c, c2 = phys.C_LIGHT, phys.C_LIGHT**2
        # 4 pi sigma0 / xi diverges at xi = 0: a perfect TM reflector.
        r_static = 1.0 if sigma0 > 0.0 else (eps0 - 1.0) / (eps0 + 1.0)

        def pair_fresnel(xi, k):
            if type(xi) is not _ndarray and xi == 0.0:
                return r_static, 0.0
            eps_bare = at(xi)
            eps = eps_bare + cond / xi
            w = (xi / c) ** 2
            # X = eta^2 - k^2 is formed from the permittivity so that the
            # conduction term enters without cancellation, and the TM
            # numerator uses (eps g0)^2 - eta^2
            #   = (eps - 1)(k^2 (eps + 1) + eps w) + (eps w - X),
            # exact for X = eps w, which keeps r == 0 at eps == 1 exact.
            X = eps_bare * w + cond * xi / c2
            k2 = k * k
            g = (k2 + w) ** 0.5
            eta = (k2 + X) ** 0.5
            num_tm = (eps - 1.0) * (k2 * (eps + 1.0) + eps * w) + (eps * w - X)
            return num_tm / ((eps * g + eta) ** 2), (w - X) / ((g + eta) ** 2)
        return pair_fresnel

    if not isinstance(model, (Drift, Nonlocal)):
        raise DomainError(f"unknown reflection model {model!r}")
    state = material_state(spec, T)
    kappa = state.kappa

    if isinstance(model, Drift):
        parts = _drift_parts(state)

        def pair_drift(xi, k):
            if type(xi) is not _ndarray and xi == 0.0:
                return _drift_static_tm(k, eps0, kappa), 0.0
            eps = at(xi)
            w, X, _, etaT_v, chi_v = parts(xi, k, eps)
            g = (k * k + w) ** 0.5
            r_tm_v = (eps * g - chi_v) / (eps * g + chi_v)
            # TE via the defect form: w - X has no cancellation, unlike
            # gamma0 - eta_T when both tend to k.
            r_te_v = (w - X) / ((g + etaT_v) ** 2)
            return r_tm_v, r_te_v
        return pair_drift

    # deferred: spatial imports this module
    from .spatial import eps_perp_drift, h_a, h_tildes, r_from_H_tilde

    h_a_at = h_a(state)

    def pair_nonlocal(xi, k):
        if type(xi) is not _ndarray and xi == 0.0:
            return _drift_static_tm(k, eps0, kappa), 0.0
        eps = at(xi)
        Ht_tm, _, ht_b, _, _ = h_tildes(
            eps_perp_drift(xi, state, eps), h_a_at(k, xi, eps), xi, k)
        return r_from_H_tilde(Ht_tm), r_from_H_tilde(ht_b)
    return pair_nonlocal
