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
object is needed.  The ``Nonlocal`` provider of
:func:`casdrift.reflection.amplitude_fn` runs the two stages that
:func:`nonlocal_stages` builds for its material state.  The frequency stage
takes eps(i xi), forms eps_perp with :func:`eps_perp_drift` and returns the
xi-only parts of h_a and of the three integrals (:func:`transverse_parts`);
the wavevector stage evaluates :func:`h_a`, forms the tilded integrals and
H_tm - 1 in one :func:`h_tildes` call and maps H - 1 to r with
:func:`r_from_H_tilde`, for floats or numpy arrays.  The provider keeps the
frequency stage of its last float xi.  The test suite holds all three
integrals against adaptive q_z quadrature.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import phys
from .errors import DomainError, EvaluationError
from .materials import MaterialSpec, MaterialState
from .reflection import Drift, Nonlocal, amplitude_fn

__all__ = [
    "eps_perp_drift",
    "h_a",
    "h_tildes",
    "nonlocal_stages",
    "r_from_H_tilde",
    "transverse_parts",
    "verify_equivalence",
]

_FOURPI = 4.0 * math.pi
_ndarray = np.ndarray


# --- drift-model tensor components -------------------------------------------

def eps_perp_drift(xi, state: MaterialState, eps_bar):
    """Transverse drift permittivity eps(i xi) + 4 pi sigma0/(xi(1 + xi tau)).

    Independent of k.  Satisfies k^2 + eps_perp xi^2/c^2 = eta_T^2 exactly.
    xi = 0 is a domain error (the conduction term diverges; use the static
    tensor instead).
    """
    if (xi <= 0.0).any() if type(xi) is _ndarray else xi <= 0.0:
        raise DomainError(
            "eps_perp_drift requires xi > 0; use the static uniaxial tensor "
            "for the xi = 0 term"
        )
    return eps_bar + _FOURPI * state.sigma0 / (xi * (1.0 + xi * state.tau))


def transverse_parts(xi, ep):
    """(w, eps_perp w, (1 - eps_perp) w) with w = (xi/c)^2: h_tildes' xi-only part.

    gamma0^2 - eta_T^2 = (1 - eps_perp) w: differences of near-equal
    wavevectors are formed from the permittivity defect, never by
    subtracting the roots.
    """
    w = (xi / phys.C_LIGHT) ** 2
    return w, ep * w, (1.0 - ep) * w


def h_a(a0, kq2, eps_a, k):
    """h_a = (a0 + kq^2 k/eta_L) / (eps (a0 + kq^2)), eta_L = sqrt(k^2 + kq^2 + a0).

    a0 = xi(1+xi tau)/D, kq^2 = 4 pi e^2 n0/(eps kB T) and eps_a =
    eps (a0 + kq^2) come from the Nonlocal frequency stage; the closed form
    follows by partial fractions of the Lorentzian-in-q^2 component.
    """
    eta_l = (k * k + kq2 + a0) ** 0.5
    return (a0 + kq2 * k / eta_l) / eps_a


# --- the three q_z integrals and H -------------------------------------------

def h_tildes(w, ep_w, dw, ha, k):
    """(H_tm - 1, h~_a, h~_b, h~_c, gamma0) at xi > 0 from eps_perp and h_a.

    ``w``, ``ep_w`` and ``dw`` are :func:`transverse_parts` of eps_perp and
    ``ha`` is the value of h_a; the TE function needs no assembly,
    H_te - 1 = h~_b.  H_tm = 1/den with
    den = 1 + (k/g) h~_a + (w/g^2) h~_b - (k(g-k)/g^2) h~_c, so
    H_tm - 1 = (1 - den)/den; g - k is formed as w/(g + k).
    """
    k2 = k * k
    g = (k2 + w) ** 0.5
    eta_t = (k2 + ep_w) ** 0.5
    ht_a = ha - 1.0
    ht_b = dw / (eta_t * (g + eta_t))
    ht_c = dw * (g + eta_t + k) / ((g + eta_t) * eta_t * (eta_t + k))
    # Freed before the assembly allocates its own arrays: kept alive, the
    # temporaries made Nonlocal array sums about 4% slower on one Xeon core.
    del k2, eta_t
    g_minus_k = w / (g + k)
    den_tilde = (
        (k / g) * ht_a
        + (w / (g * g)) * ht_b
        - (k * g_minus_k / (g * g)) * ht_c
    )
    den = 1.0 + den_tilde
    if (den == 0.0).any() if type(den) is _ndarray else den == 0.0:
        raise EvaluationError(f"H_tm denominator vanished at (xi/c)^2 = {w!r}", k=k)
    return -den_tilde / den, ht_a, ht_b, ht_c, g


def r_from_H_tilde(H_tilde):
    """(H - 1)/(H + 1) evaluated from H - 1: exact for near-unity H."""
    if (H_tilde == -2.0).any() if type(H_tilde) is _ndarray else H_tilde == -2.0:
        raise EvaluationError("H = -1: reflection amplitude has a pole here")
    return H_tilde / (2.0 + H_tilde)


# --- the Nonlocal provider's two stages ---------------------------------------

def nonlocal_stages(state: MaterialState):
    """Build the Nonlocal ``frequency(xi, eps_bar)`` and ``wavevector(f, k)``.

    The frequency stage returns (a0, kq^2, eps (a0 + kq^2), w,
    eps_perp w, (1 - eps_perp) w), the xi-only parts of :func:`h_a` and
    :func:`h_tildes`; the products of the material state are formed once,
    here.  It raises EvaluationError where eps (a0 + kq^2) would overflow
    (D ~ T; Ge from 1e-288 K).  The wavevector stage forms h_a, the tilded
    integrals and H_tm - 1, and maps H - 1 to r.
    """
    tau, D, T, k_b = state.tau, state.D, state.T, phys.K_B
    screen = _FOURPI * phys.E_CHARGE**2 * state.n0   # 4 pi e^2 n0
    limit = 0.5 * D * sys.float_info.max

    def frequency(xi, eps_bar):
        ep = eps_perp_drift(xi, state, eps_bar)
        a0_D = xi * (1.0 + xi * tau)
        big = eps_bar * a0_D > limit  # checked before numpy can warn of an overflow
        if big.any() if type(big) is _ndarray else big:
            raise EvaluationError(f"eps (a0 + kq^2) overflows: D = {D!r} cm^2/s at T = {T!r} K",
                                  xi=float(xi[big][0] if type(big) is _ndarray else xi))
        a0 = a0_D / D
        kq2 = screen / (eps_bar * k_b * T)
        return (a0, kq2, eps_bar * (a0 + kq2)) + transverse_parts(xi, ep)

    def wavevector(f, k):
        a0, kq2, eps_a, w, ep_w, dw = f
        Ht_tm, _, ht_b, _, _ = h_tildes(w, ep_w, dw, h_a(a0, kq2, eps_a, k), k)
        return r_from_H_tilde(Ht_tm), r_from_H_tilde(ht_b)
    return frequency, wavevector


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

    ks = logspace(*_K_RANGE, n_k)
    xis = logspace(_XI1_FACTORS[0] * xi1, _XI1_FACTORS[1] * xi1, n_xi)
    # xi outer, so that each provider forms its frequency stage once per xi
    by_xi = [[(pair_drift(xi, k), pair_nonlocal(xi, k)) for k in ks] for xi in xis]
    rows = []
    for i, k in enumerate(ks):
        for xi, pairs in zip(xis, by_xi):
            for pol, r_d, r_n in zip(("TM", "TE"), *pairs[i]):
                rel = abs(r_n - r_d) / max(abs(r_d), 1.0e-30)
                rows.append((pol, k, xi, r_d, r_n, rel))
    return rows, max(row[5] for row in rows)
