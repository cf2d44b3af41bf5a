"""Reference values computed apart from casdrift.

Constants and the Ge parameter set are written out here (Gaussian-CGS,
CODATA 2018) instead of being read from the package, so that a fault in the
package's constants or material tables shows up as a failed check.  The
closed forms hold for the n = 0 Matsubara term alone; at d = 10 um and
300 K the n >= 1 terms carry exp(-4 pi d kB T / (hbar c)) ~ e^-16.5 and
stay far below the 1e-5 tolerance the checks use.
"""

from __future__ import annotations

import math

K_B = 1.380649e-16            # erg/K
HBAR = 1.054571817e-27        # erg s
E_CHARGE = 4.80320471257e-10  # esu
ERG_PER_EV = 1.602176634e-12

# intrinsic Ge: static permittivity, densities of states n_{c,v} = A T^1.5,
# Varshni gap E_g = E0 - alpha T^2 / (T + beta); electrons and holes counted
# as two equivalent carrier species
GE_EPS0 = 16.2
GE_NC, GE_NV = 1.98e15, 9.6e14
GE_GAP = (0.742, 4.8e-4, 235.0)

# -F(d = 1 um, 300 K) for Ge with drift amplitudes, from an independent
# 30-digit evaluation (the frozen value in tests/test_lifshitz.py)
GE_E_DRIFT_1UM_300K = -1.7391057752612807e-07


def matsubara_xi(n: int, T: float) -> float:
    """xi_n = 2 pi n kB T / hbar [rad/s]."""
    return 2.0 * math.pi * n * K_B * T / HBAR


def ge_kappa(T: float) -> float:
    """Inverse Debye radius of intrinsic Ge [1/cm]: 4 pi e^2 n0 / (eps0 kB T)."""
    e0, alpha, beta = GE_GAP
    gap_erg = (e0 - alpha * T * T / (T + beta)) * ERG_PER_EV
    n0 = 2.0 * math.sqrt(GE_NC * GE_NV) * T**1.5 * math.exp(-gap_erg / (2.0 * K_B * T))
    return math.sqrt(4.0 * math.pi * E_CHARGE**2 * n0 / (GE_EPS0 * K_B * T))


def static_tm(model: str, k: float, T: float) -> float:
    """xi = 0 TM amplitude of Ge for 'bare', 'cond', 'drift' or 'nonlocal'."""
    if model == "bare":
        return (GE_EPS0 - 1.0) / (GE_EPS0 + 1.0)
    if model == "cond":
        return 1.0
    q = math.hypot(k, ge_kappa(T))
    return (GE_EPS0 * q - k) / (GE_EPS0 * q + k)


def ge_n0_free_energies(d_cm: float, T: float) -> dict:
    """n = 0 closed forms for Ge plates [erg/cm^2] at 30 digits.

    bare:  -kT Li3(r0^2) / (16 pi d^2), r0 = (eps0 - 1)/(eps0 + 1)
    cond:  -kT zeta(3) / (16 pi d^2)
    drift:  kT / (16 pi d^2) Int_0^oo u ln(1 - r(u)^2 e^-u) du with
            r = (eps0 q - k)/(eps0 q + k), q = sqrt(k^2 + kappa^2), k = u/2d
    """
    import mpmath as mp

    with mp.workdps(30):
        pre = mp.mpf(K_B) * T / (16 * mp.pi * mp.mpf(d_cm) ** 2)
        eps0 = mp.mpf(GE_EPS0)
        r0 = (eps0 - 1) / (eps0 + 1)
        kappa = mp.mpf(ge_kappa(T))

        def f(u):
            k = u / (2 * mp.mpf(d_cm))
            q = mp.sqrt(k * k + kappa * kappa)
            r = (eps0 * q - k) / (eps0 * q + k)
            return u * mp.log(1 - r * r * mp.exp(-u))

        drift = pre * mp.quad(f, [0, 1, 5, 20, 80])
        return {
            "bare": float(-pre * mp.polylog(3, r0 * r0)),
            "cond": float(-pre * mp.zeta(3)),
            "drift": float(drift),
        }


def rel(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale
