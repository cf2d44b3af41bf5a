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

Each kernel is split into two stages of plain arithmetic that serve
floats and numpy arrays alike: square roots are written ``x ** 0.5``,
which numpy evaluates as ``np.sqrt`` and Python floats through libm
``pow``.  The frequency stage evaluates eps(i xi) once and forms every
product of xi alone into one tuple; the wavevector stage finishes the
pair from that tuple and k.

:func:`amplitude_fn` builds one closure per (model, spec, T) and forms
everything that depends only on those when it builds it.  The Fresnel
stages serve ``Conductivity`` and ``Bare``, which is ``Conductivity``
with sigma0 = 0 (the conduction terms then add exact zeros);
``Drift`` uses the stages that :func:`_drift_stages` builds for the
material state, and ``Nonlocal`` those of
:func:`casdrift.spatial.nonlocal_stages`.  The closure keeps the
frequency stage of the last float xi it saw, so a scalar sweep over k at
fixed xi pays for the frequency stage once; the memo is one immutable
tuple, safe under concurrent callers, and leaves every amplitude's bits
as they are in any call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import phys
from .errors import DomainError, EvaluationError
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


# --- the two stages of each kernel --------------------------------------------

def _fresnel_stages(sigma0: float):
    """Build the Fresnel ``frequency(xi, eps_bare)`` and ``wavevector(f, k)``.

    The frequency stage returns (eps, w, X, eps - 1, eps + 1, eps w,
    eps w - X, w - X) with eps = eps_bare + 4 pi sigma0/xi and
    w = (xi/c)^2.  X = eta^2 - k^2 is formed from the permittivity so that
    the conduction term enters without cancellation, and the TM numerator
    uses (eps g0)^2 - eta^2 = (eps - 1)(k^2 (eps + 1) + eps w) + (eps w - X),
    exact for X = eps w, which keeps r == 0 at eps == 1 exact.
    """
    cond = _FOURPI * sigma0
    c, c2 = phys.C_LIGHT, phys.C_LIGHT**2

    def frequency(xi, eps_bare):
        eps = eps_bare + cond / xi
        w = (xi / c) ** 2
        X = eps_bare * w + cond * xi / c2
        eps_w = eps * w
        return eps, w, X, eps - 1.0, eps + 1.0, eps_w, eps_w - X, w - X

    def wavevector(f, k):
        eps, w, X, eps_m1, eps_p1, eps_w, eps_w_mX, w_mX = f
        k2 = k * k
        g = (k2 + w) ** 0.5
        eta = (k2 + X) ** 0.5
        num_tm = eps_m1 * (k2 * eps_p1 + eps_w) + eps_w_mX
        return num_tm / ((eps * g + eta) ** 2), w_mX / ((g + eta) ** 2)
    return frequency, wavevector


def _drift_stages(state: MaterialState):
    """Build the Drift ``frequency(xi, eps_bar)`` and ``wavevector(f, k)``.

    The frequency stage returns (eps, w, X, Y, X + Y, X Y, eps w, w - X).
    w = (xi/c)^2, and X = eta_T^2 - k^2 and Y = eta_L^2 - k^2 come directly
    from the material quantities, so the differences eta^2 - k^2 carry no
    cancellation error.  A frequency so small that X underflows to 0 is
    refused with EvaluationError, for floats and arrays alike.  The
    wavevector stage rearranges the chi bracket as
        eta_L eta_T - k^2 = (k^2 (X + Y) + X Y) / (eta_L eta_T + k^2),
    which keeps the sigma0 = 0 identity chi == eta_T exact in floating
    point, and forms TE through the defect w - X, which has no
    cancellation, unlike gamma0 - eta_T when both tend to k.
    """
    tau, D, T = state.tau, state.D, state.T
    c, c2, k_b = phys.C_LIGHT, phys.C_LIGHT**2, phys.K_B
    cond = _FOURPI * state.sigma0                    # 4 pi sigma0
    screen = _FOURPI * phys.E_CHARGE**2 * state.n0   # 4 pi e^2 n0

    def frequency(xi, eps_bar):
        w = (xi / c) ** 2
        one_xt = 1.0 + xi * tau
        X = eps_bar * w + cond * xi / (c2 * one_xt)
        if (X == 0.0).any() if type(X) is _ndarray else X == 0.0:
            raise EvaluationError("eta_T^2 - k^2 underflowed to 0", xi=xi)
        Y = screen / (eps_bar * k_b * T) + xi * one_xt / D
        return eps_bar, w, X, Y, X + Y, X * Y, eps_bar * w, w - X

    def wavevector(f, k):
        eps, w, X, Y, X_p_Y, X_Y, eps_w, w_mX = f
        k2 = k * k
        etaL_v = (k2 + Y) ** 0.5
        etaT_v = (k2 + X) ** 0.5
        cross = (k2 * X_p_Y + X_Y) / (etaL_v * etaT_v + k2)  # eta_L eta_T - k^2
        chi_v = (k2 + eps_w * cross / X) / etaL_v
        del etaL_v, cross  # an array call's peak memory: freed before g and r
        g = (k2 + w) ** 0.5
        del k2
        return (eps * g - chi_v) / (eps * g + chi_v), w_mX / ((g + etaT_v) ** 2)
    return frequency, wavevector


def _drift_static_tm(k, eps0: float, kappa: float):
    """(eps0 q - k)/(eps0 q + k), q^2 = k^2 + kappa^2, through c = k/q.

    Scale-safe: exact at kappa = 0, and 1 once (kappa/k)^2 overflows.
    """
    a = kappa / k
    c = (1.0 + a * a) ** -0.5
    return (eps0 - c) / (eps0 + c)


def _staged(at, static, frequency, wavevector):
    """``pair(xi, k)`` from a kernel's static branch and its two stages.

    A float or scalar ``xi == 0`` returns ``static(k)``; any other xi
    returns ``wavevector(frequency(xi, at(xi)), k)``.  The one float-only
    step is a memo of the frequency stage of the last ``type(xi) is
    float`` frequency, keyed by xi: a scalar sweep over k at fixed xi
    computes eps(i xi) and the other xi-only products once.  The memo is
    one immutable (xi, stage) tuple, replaced in a single assignment, so a
    concurrent caller reads either the old entry or the new one and checks
    that entry's own xi.  Only a frequency that has passed ``at``'s check
    is stored, and nan never compares equal, so every bad frequency still
    reaches the check.  Arrays and numpy scalars always run the stage.
    """
    last = (None, None)

    def pair(xi, k):
        nonlocal last
        if type(xi) is float:
            if xi == 0.0:
                return static(k)
            entry = last
            if entry[0] == xi:
                return wavevector(entry[1], k)
            f = frequency(xi, at(xi))
            last = (xi, f)
            return wavevector(f, k)
        if type(xi) is not _ndarray and xi == 0.0:
            return static(k)
        return wavevector(frequency(xi, at(xi)), k)
    return pair


# --- per-model amplitude providers -------------------------------------------

@lru_cache(maxsize=256)
def amplitude_fn(model: ReflectionModel, spec: MaterialSpec, T: float) -> Callable:
    """Build ``pair(xi, k) -> (r_tm, r_te)`` for one plate at temperature T.

    Building the closure does every step that depends only on (model,
    spec, T), once: the material state, the products of it that the
    kernels use (4 pi sigma0, 4 pi e^2 n0) and the constants of the static
    branches; the permittivity forms its own constants when the spec is
    built.  Each kernel is split in two stages: a frequency stage that
    forms eps(i xi) and every other product of xi alone into one tuple,
    and a wavevector stage that finishes the pair from that tuple and k.
    The closure keeps the frequency stage of the last float xi, so a
    scalar sweep over k at fixed xi forms it once (see :func:`_staged`);
    the memo is safe under concurrent callers, and the amplitudes do not
    depend on the call order.  The cache gives one closure per (model,
    spec, T): the engine's ``pair2 is pair1`` shortcut calls a pair shared
    by identical plates once, and the benchmark's ``materials.states_built``
    counts closures.  It is the one way the package evaluates an
    amplitude: the Lifshitz engine's Q = r1 r2 exp(-2 d gamma0) kernel
    (behind both the Matsubara sum and ``g_mode``), the nonlocal
    cross-check and the CLI's ``reflect`` all call it.  The static TE
    amplitude is 0 for every model: the static TE field is purely magnetic
    and fully penetrates a nonmagnetic medium.  Every provider refuses a
    non-finite or negative frequency with DomainError, through the
    permittivity's check.

    ``xi`` and ``k`` may be floats or numpy arrays that broadcast together;
    one wavevector-stage body serves both.  The static branch is taken for
    a float ``xi == 0``, so an array ``xi`` must hold positive frequencies
    only.  Amplitudes that do not depend on k (the static TE zero, the
    ideal metal) come back as floats.  At T = 0, where they have no carriers,
    ``Drift`` and ``Nonlocal`` return ``Bare``'s provider.
    """
    perm = spec.permittivity
    at, eps0 = perm.at, perm.eps0

    if isinstance(model, IdealMetal):
        # the frequency stage is only the check every provider makes
        return _staged(at, lambda k: (1.0, 0.0), lambda xi, eps: None,
                       lambda f, k: (1.0, -1.0))

    if isinstance(model, (Bare, Conductivity)):
        # Bare is Conductivity(0): its conduction terms add exact zeros.
        sigma0 = model.sigma0 if isinstance(model, Conductivity) else 0.0
        # 4 pi sigma0 / xi diverges at xi = 0: a perfect TM reflector.
        r_static = 1.0 if sigma0 > 0.0 else (eps0 - 1.0) / (eps0 + 1.0)
        return _staged(at, lambda k: (r_static, 0.0), *_fresnel_stages(sigma0))

    if not isinstance(model, (Drift, Nonlocal)):
        raise DomainError(f"unknown reflection model {model!r}")
    if T == 0.0:  # n0 = 0; Bare, Conductivity and IdealMetal do not depend on T
        return amplitude_fn(Bare(), spec, 0.0)
    state = material_state(spec, T)
    kappa = state.kappa
    if isinstance(model, Drift):
        stages = _drift_stages(state)
    else:
        from .spatial import nonlocal_stages  # deferred: spatial imports this module
        stages = nonlocal_stages(state)
    return _staged(at, lambda k: (_drift_static_tm(k, eps0, kappa), 0.0), *stages)
