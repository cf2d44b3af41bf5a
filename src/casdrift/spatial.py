"""Spatial-dispersion (nonlocal) route to the reflection amplitudes.

The screened drifting-carrier medium can equivalently be described by a
uniaxial, wavevector-dependent permittivity tensor
``diag(eps_perp, eps_perp, eps_par)`` with

    eps_perp(i xi)      = eps(i xi) + 4 pi sigma(i xi) / xi            (local)
    eps_par(q, i xi)    = eps(i xi) + 4 pi sigma0 / (xi (1 + xi tau) + D q^2)

i.e. the longitudinal response keeps its full dependence on the magnitude
``q`` of the three-dimensional wavevector (Debye screening with diffusion),
while the transverse response is local.  In the static limit
``eps_par -> eps0 [1 + 1/(q R_D)^2]``, the classic screened uniaxial form.

Reflection amplitudes follow from surface-response functions H^p through
``r = (H - 1)/(H + 1)``, where H^p is assembled from three q_z-integrals of
the tensor components evaluated on the imaginary axis (q = (k, q_z),
gamma0 = sqrt(k^2 + xi^2/c^2), w = xi^2/c^2)::

    h_a = 2k      Int dq_z/2pi  1 / (q^2 eps_par(q))
    h_b = 2 g0    Int dq_z/2pi  1 / (q^2 + eps_perp w)
    h_c = 2kg0(g0+k) Int dq_z/2pi 1 / (q^2 (q^2 + eps_perp w))

    H_te = h_b                       (tilded form: h~_b + 1)
    H_tm = 1 / [ 1 + (k/g0) h~_a + (w/g0^2) h~_b - (k(g0-k)/g0^2) h~_c ]

with ``h~ = h - h|_{eps==1}`` and ``h|_{eps==1} = 1`` for all three.  With
the drift tensor these expressions reproduce the transport-theory
amplitudes identically: H_te = gamma0/eta_T and H_tm = eps gamma0 / chi
(exact algebraic identities, verified to machine precision by the test
suite and the ``nonlocal-verify`` command).

h_b and h_c have closed forms because eps_perp does not depend on q_z; h_a
has one by partial fractions of the Lorentzian-in-q^2 eps_par, so no tensor
object is needed: :func:`nonlocal_amplitudes` evaluates eps(i xi) once,
feeds it to :func:`eps_perp_drift` and :func:`h_a`, and returns (r_TM, r_TE)
for floats or numpy arrays.  The ``Nonlocal`` provider calls it for xi > 0;
the test suite holds all three integrals against adaptive q_z quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from . import phys
from .errors import DomainError, EvaluationError
from .materials import MaterialSpec, MaterialState, SellmeierPermittivity
from .reflection import Drift, Nonlocal, amplitude_fn

__all__ = [
    "eps_perp_drift",
    "h_a",
    "nonlocal_amplitudes",
    "r_from_H_tilde",
    "verify_equivalence",
]

_FOURPI = 4.0 * math.pi
_ndarray = np.ndarray


def _any(mask) -> bool:
    """Whether a comparison holds: the bool itself, or any array element."""
    return bool(mask.any()) if type(mask) is _ndarray else mask


# --- drift-model tensor components -------------------------------------------

def eps_perp_drift(xi, state: MaterialState, eps_bar):
    """Transverse drift permittivity eps(i xi) + 4 pi sigma0/(xi(1 + xi tau)).

    Independent of k.  Satisfies k^2 + eps_perp xi^2/c^2 = eta_T^2 exactly.
    xi = 0 is a domain error (the conduction term diverges; use the static
    tensor instead).
    """
    if _any(xi <= 0.0):
        raise DomainError(
            "eps_perp_drift requires xi > 0; use the static uniaxial tensor "
            "for the xi = 0 term"
        )
    return eps_bar + _FOURPI * state.sigma0 / (xi * (1.0 + xi * state.tau))


def h_a(k, xi, state: MaterialState, eps_bar):
    """h_a = (a0 + kq^2 k/eta_L) / (eps (a0 + kq^2)), for floats or arrays.

    a0 = xi(1+xi tau)/D, kq^2 = 4 pi e^2 n0/(eps kB T) and
    eta_L = sqrt(k^2 + kq^2 + a0), by partial fractions of the
    Lorentzian-in-q^2 component.
    """
    a0 = xi * (1.0 + xi * state.tau) / state.D
    kq2 = _FOURPI * phys.E_CHARGE**2 * state.n0 / (eps_bar * phys.K_B * state.T)
    eta_l = (k * k + kq2 + a0) ** 0.5
    return (a0 + kq2 * k / eta_l) / (eps_bar * (a0 + kq2))


# --- the three q_z integrals ---------------------------------------------------

def _h_tildes(ep, ha, xi, k):
    """(h~_a, h~_b, h~_c, gamma0, w) at xi > 0 from eps_perp ``ep`` and h_a ``ha``."""
    w = (xi / phys.C_LIGHT) ** 2
    g = (k * k + w) ** 0.5
    eta_t = (k * k + ep * w) ** 0.5
    ht_a = ha - 1.0
    # gamma0^2 - eta_T^2 = (1 - eps_perp) w: differences of near-equal
    # wavevectors are formed from the permittivity defect, never by
    # subtracting the roots.
    dw = (1.0 - ep) * w
    ht_b = dw / (eta_t * (g + eta_t))
    ht_c = dw * (g + eta_t + k) / ((g + eta_t) * eta_t * (eta_t + k))
    return ht_a, ht_b, ht_c, g, w


def _assemble_H_tm_tilde(ht_a, ht_b, ht_c, k, g, w, xi):
    """H_tm - 1 from the tilded integrals.

    H_tm = 1/den with den = 1 + (k/g) h~_a + (w/g^2) h~_b - (k(g-k)/g^2) h~_c,
    so H_tm - 1 = (1 - den)/den; g - k is formed as w/(g + k).
    """
    g_minus_k = w / (g + k)
    den_tilde = (
        (k / g) * ht_a
        + (w / (g * g)) * ht_b
        - (k * g_minus_k / (g * g)) * ht_c
    )
    den = 1.0 + den_tilde
    if _any(den == 0.0):
        raise EvaluationError("H_tm denominator vanished", k=k, xi=xi)
    return -den_tilde / den


def r_from_H_tilde(H_tilde):
    """(H - 1)/(H + 1) evaluated from H - 1: exact for near-unity H."""
    if _any(H_tilde == -2.0):
        raise EvaluationError("H = -1: reflection amplitude has a pole here")
    return H_tilde / (2.0 + H_tilde)


def nonlocal_amplitudes(xi, k, state: MaterialState,
                        permittivity: SellmeierPermittivity):
    """(r_TM, r_TE) of the drift tensor at xi > 0, for floats or arrays."""
    eps = permittivity.at(xi)
    ht_a, ht_b, ht_c, g, w = _h_tildes(
        eps_perp_drift(xi, state, eps), h_a(k, xi, state, eps), xi, k)
    Ht_tm = _assemble_H_tm_tilde(ht_a, ht_b, ht_c, k, g, w, xi)
    return r_from_H_tilde(Ht_tm), r_from_H_tilde(ht_b)


# --- cross-validation grid -----------------------------------------------------

_K_RANGE = (1.0e2, 1.0e6)
_XI1_FACTORS = (1.0e-3, 1.0e3)


def verify_equivalence(spec: MaterialSpec, T: float, n_k: int = 20, n_xi: int = 20):
    """Compare the Drift and Nonlocal amplitudes on a log-spaced grid.

    Returns (rows, max_rel_diff) where each row is
    (polarization, k, xi, r_drift, r_nonlocal, rel_diff).  The grid spans
    k in ``_K_RANGE`` [1/cm] and xi in ``_XI1_FACTORS`` times the first
    Matsubara frequency at T.
    """
    xi1 = phys.matsubara_xi(1, T)
    pair_drift = amplitude_fn(Drift(), spec, T)
    pair_nonlocal = amplitude_fn(Nonlocal(), spec, T)

    def logspace(lo, hi, n):
        if n == 1:
            return [lo]
        r = (hi / lo) ** (1.0 / (n - 1))
        return [lo * r**i for i in range(n)]

    rows = []
    for k in logspace(*_K_RANGE, n_k):
        for xi in logspace(_XI1_FACTORS[0] * xi1, _XI1_FACTORS[1] * xi1, n_xi):
            for pol, r_d, r_n in zip(("TM", "TE"), pair_drift(xi, k),
                                     pair_nonlocal(xi, k)):
                rel = abs(r_n - r_d) / max(abs(r_d), 1.0e-30)
                rows.append((pol, k, xi, r_d, r_n, rel))
    return rows, max(row[5] for row in rows)
