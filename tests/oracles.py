"""Reference implementations that the tests compare the library against.

None of this is needed to compute a number; each function re-derives a
library result by an independent route:

* :func:`r_oracle_bc` -- reflection amplitudes from a 40-digit numerical
  boundary-condition solve (matching E_x, H_y and eps E_z for TM, E_y and
  H_x for TE across the interface);
* :func:`chi` -- the textbook form of the TM surface response, against
  which the cancellation-free arrangement in ``drift_quantities`` is held;
* :func:`h_integrals_quadrature` -- the three surface q_z-integrals by
  adaptive quadrature, against which the closed forms in
  :mod:`casdrift.spatial` are held;
* :func:`r_from_H` -- the plain (H - 1)/(H + 1), against which the
  compensated ``r_from_H_tilde`` is held;
* :func:`term_integrals_quad` -- one Matsubara term's u-integrals by
  scalar adaptive quadrature, one polarization at a time, against which
  the blocked Gauss-Kronrod engine of :mod:`casdrift.lifshitz` is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
from scipy.integrate import quad

from casdrift import phys
from casdrift.errors import CasdriftError, DomainError, EvaluationError
from casdrift.reflection import Mode
from casdrift.spatial import HFunctions, _assemble_H_tm_tilde


class OracleError(CasdriftError):
    """The boundary-condition linear system could not be solved."""

    def __init__(self, message, k=None, xi=None):
        super().__init__(f"{message} [k={k!r} 1/cm, xi={xi!r} rad/s]")
        self.k = k
        self.xi = xi


class IntegrationError(CasdriftError):
    """Adaptive quadrature failed to converge.

    ``achieved`` holds the best error estimate reached before giving up.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


# --- textbook surface response -------------------------------------------------

def chi(mode: Mode, etaL: float, etaT: float, eps_bar: float) -> float:
    """TM surface response chi [1/cm] (textbook form).

    (1/eta_L) [k^2 + eps (xi/c)^2 (eta_L eta_T - k^2)/(eta_T^2 - k^2)].
    The denominator eta_T^2 - k^2 vanishes only at xi = 0 (use the static
    branch there) or for unphysical eps < 1.
    """
    k2 = mode.k**2
    den = etaT * etaT - k2
    if den <= 0.0:
        raise EvaluationError(
            "degenerate eta_T^2 - k^2 <= 0 in chi; physical media with "
            "eps >= 1 and xi > 0 cannot reach this",
            k=mode.k, xi=mode.xi,
        )
    w = (mode.xi / phys.C_LIGHT) ** 2
    return (k2 + eps_bar * w * (etaL * etaT - k2) / den) / etaL


# --- boundary-condition oracle ------------------------------------------------

def r_oracle_bc(mode: Mode, etaL, etaT, eps_bar, full: bool = False):
    """Reflection amplitudes from direct numerical boundary matching.

    TM: the reflected field has two Cartesian amplitudes (r_x, r_z) tied by
    the vacuum divergence constraint, and the transmitted field has the two
    branch amplitudes (A_T, A_L); continuity of E_x, H_y and eps E_z closes
    a 4x4 linear system.  TE: unknowns (r, B, A_long) where A_long is the
    longitudinal-branch amplitude of the in-plane field component; the
    gradient source term has no y-projection, so A_long cannot feed the TE
    far field, and continuity of E_x pins it to zero -- the solve makes that
    explicit rather than assuming it.

    The solves run in 40-digit arithmetic (the TE amplitude can sit nine
    decades below gamma0 - eta_T's operands, so an oracle certifying 1e-9
    relative agreement must carry far more precision than the target).
    Inputs may be floats or mpmath values; high-precision eta inputs give
    oracle output limited only by the inputs themselves.

    Returns (r_tm, r_te); with ``full=True`` also a dict of the solved
    medium amplitudes for inspection.
    """
    if mode.xi <= 0.0:
        raise DomainError("boundary-condition oracle requires xi > 0")
    with mp.workdps(40):
        k = mp.mpf(mode.k)
        xi = mp.mpf(mode.xi)
        c = mp.mpf(phys.C_LIGHT)
        g = mp.sqrt(k * k + (xi / c) ** 2)
        etaL_m = mp.mpf(etaL)
        etaT_m = mp.mpf(etaT)
        eps_m = mp.mpf(eps_bar)

        # TM system; unknowns (r_x, r_z, A_T, A_L), incident field
        # normalized to unit z-amplitude
        M = mp.zeros(4, 4)
        b = mp.zeros(4, 1)
        # vacuum divergence of the reflected field
        M[0, 0] = k
        M[0, 1] = g
        # E_x continuity: g/k + r_x = A_T + A_L
        M[1, 0] = mp.mpf(1)
        M[1, 2] = mp.mpf(-1)
        M[1, 3] = mp.mpf(-1)
        b[1] = -g / k
        # eps E_z continuity: 1 + r_z = eps (k A_T/eta_T + eta_L A_L/k)
        M[2, 1] = mp.mpf(1)
        M[2, 2] = -eps_m * k / etaT_m
        M[2, 3] = -eps_m * etaL_m / k
        b[2] = mp.mpf(-1)
        # H_y continuity:
        # -xi/(ck) + (c/xi)(g r_x + k r_z) = -(c/xi)(etaT^2 - k^2) A_T/etaT
        M[3, 0] = (c / xi) * g
        M[3, 1] = (c / xi) * k
        M[3, 2] = (c / xi) * (etaT_m * etaT_m - k * k) / etaT_m
        b[3] = xi / (c * k)
        try:
            sol = mp.lu_solve(M, b)
        except (ZeroDivisionError, ValueError) as exc:
            raise OracleError(f"singular TM boundary system: {exc}",
                              k=mode.k, xi=mode.xi) from exc
        r_x, r_z, A_T, A_L = (sol[i] for i in range(4))

        # TE system; unknowns (r, B, A_long)
        N = mp.zeros(3, 3)
        d = mp.zeros(3, 1)
        # E_y continuity: 1 + r = B (no y-projection of the gradient term)
        N[0, 0] = mp.mpf(1)
        N[0, 1] = mp.mpf(-1)
        d[0] = mp.mpf(-1)
        # H_x continuity: g (1 - r) = etaT B
        N[1, 0] = g
        N[1, 1] = etaT_m
        d[1] = g
        # E_x continuity: vacuum TE has no x-component
        N[2, 2] = mp.mpf(1)
        try:
            te_sol = mp.lu_solve(N, d)
        except (ZeroDivisionError, ValueError) as exc:
            raise OracleError(f"singular TE boundary system: {exc}",
                              k=mode.k, xi=mode.xi) from exc
        r_te_v, B, A_long = (te_sol[i] for i in range(3))

        if full:
            return float(r_z), float(r_te_v), {
                "r_x": float(r_x), "A_T": float(A_T), "A_L": float(A_L),
                "B": float(B), "A_long": float(A_long),
            }
        return float(r_z), float(r_te_v)


# --- q_z quadrature of the surface integrals -----------------------------------

@dataclass(frozen=True)
class ConstantTensor:
    """Uniaxial tensor with q- and xi-independent components.

    Offers the same ``eps_perp``/``eps_par``/``h_a`` methods as
    :class:`casdrift.spatial.DriftTensor`, so ``h_integrals`` accepts it;
    for a constant eps_par the longitudinal integral is exactly 1/eps_par.
    """

    perp: float
    par: float

    def eps_perp(self, q: float, xi: float) -> float:
        return self.perp

    def eps_par(self, q: float, xi: float) -> float:
        return self.par

    def h_a(self, k, xi, lib=math) -> float:
        return 1.0 / self.par


def unit_tensor() -> ConstantTensor:
    """Vacuum tensor (eps == 1): all tilded integrals vanish, H = 1, r = 0."""
    return ConstantTensor(perp=1.0, par=1.0)


# Below xi/(c k) ~ 1e-8 the frequency and wavevector scales in the h_c
# integrand are separated by >= 16 decades and the q_z quadrature loses all
# relative accuracy (the closed forms stay regular and exact).
_XI_OVER_CK_MIN = 1.0e-8


def _quad_semi_infinite(f: Callable[[float], float], scale: float) -> tuple:
    """Integrate f over [0, inf) via q_z = scale * tan(t) with adaptive GK.

    Returns (value, abserr).  ``scale`` should be a characteristic width of
    the integrand so the substitution spends points where f lives.
    """
    def g(t: float) -> float:
        ct = math.cos(t)
        qz = scale * math.tan(t)
        return f(qz) * scale / (ct * ct)

    val, err = quad(g, 0.0, 0.5 * math.pi, epsabs=1e-300, epsrel=1e-11, limit=400)
    return val, err


def h_integrals_quadrature(tensor, mode: Mode) -> HFunctions:
    """h_a, h_b, h_c by adaptive q_z quadrature of the tensor components.

    ``tensor`` supplies ``eps_perp(q, xi)`` and ``eps_par(q, xi)`` at the
    wavevector magnitude q = sqrt(k^2 + q_z^2).  The eps == 1 evaluation is
    subtracted inside each integrand, so the tilded values come out at full
    precision.
    """
    k, xi = mode.k, mode.xi
    ratio = xi / (phys.C_LIGHT * k)
    if ratio < _XI_OVER_CK_MIN:
        raise EvaluationError(
            f"xi/(c k) = {ratio:.2e} < {_XI_OVER_CK_MIN:.0e}: scale separation "
            "too extreme for a verifiable q_z quadrature of h_c",
            k=k, xi=xi,
        )
    g = mode.gamma0
    w = (xi / phys.C_LIGHT) ** 2
    ep = tensor.eps_perp(k, xi)
    k2 = k * k

    def eps_par_q(q2: float) -> float:
        return tensor.eps_par(math.sqrt(q2), xi)

    def eps_perp_q(q2: float) -> float:
        return tensor.eps_perp(math.sqrt(q2), xi)

    def f_a(qz: float) -> float:
        q2 = k2 + qz * qz
        e = eps_par_q(q2)
        return (1.0 - e) / (q2 * e)

    def f_b(qz: float) -> float:
        q2 = k2 + qz * qz
        e = eps_perp_q(q2)
        return (1.0 - e) * w / ((q2 + e * w) * (q2 + w))

    def f_c(qz: float) -> float:
        q2 = k2 + qz * qz
        e = eps_perp_q(q2)
        return (1.0 - e) * w / (q2 * (q2 + e * w) * (q2 + w))

    eta_t = math.sqrt(k2 + ep * w)
    scale = max(k, eta_t)
    tildes = []
    for f, pref in (
        (f_a, 2.0 * k / math.pi),
        (f_b, 2.0 * g / math.pi),
        # 2 (omega/c)^2 k g0/(k - g0) = 2 k g0 (g0 + k) on the imaginary
        # axis: the apparent k - g0 singularity cancels against w.
        (f_c, 2.0 * k * g * (g + k) / math.pi),
    ):
        val, err = _quad_semi_infinite(f, scale)
        if not math.isfinite(val) or err > 1e-6 * max(abs(val), 1e-3):
            raise IntegrationError(
                f"q_z quadrature did not converge for {type(tensor).__name__} "
                f"at k={k:.3e}, xi={xi:.3e}",
                achieved=err,
            )
        tildes.append(pref * val)
    ht_a, ht_b, ht_c = tildes
    h_b = 1.0 + ht_b
    Ht_tm = _assemble_H_tm_tilde(ht_a, ht_b, ht_c, k, g, w, xi)
    return HFunctions(
        h_a=1.0 + ht_a, h_b=h_b, h_c=1.0 + ht_c,
        h_tilde_a=ht_a, h_tilde_b=ht_b, h_tilde_c=ht_c,
        H_tm=1.0 + Ht_tm, H_te=h_b,
        H_tm_tilde=Ht_tm, H_te_tilde=ht_b,
        gamma0=g,
    )


def r_from_H(H: float) -> float:
    """Reflection amplitude (H - 1)/(H + 1); H = -1 is a pole."""
    if H == -1.0:
        raise EvaluationError("H = -1: reflection amplitude has a pole here")
    return (H - 1.0) / (H + 1.0)


def term_integrals_quad(kind: str, d: float, xi: float, pair1, pair2,
                        quad_rel: float) -> tuple:
    """(I_tm, I_te) of one Matsubara term by scipy's scalar ``quad``.

    I_p = Int u ln(1 - Q) du (energy) or Int u^2 Q/(1 - Q) du (pressure)
    over u in [u_min, u_min + 60], Q = r1 r2 exp(-u), u = 2 d gamma0 and
    u_min = 2 d xi / c: the integrals the library's engine sums, taken
    without its shift, blocks or vectorization.
    """
    u_min = 2.0 * d * xi / phys.C_LIGHT

    def f(u: float, idx: int) -> float:
        k = math.sqrt((u - u_min) * (u + u_min)) / (2.0 * d)
        q = pair1(xi, k)[idx] * pair2(xi, k)[idx] * math.exp(-u)
        return u * math.log1p(-q) if kind == "energy" else u * u * q / (1.0 - q)

    return tuple(
        quad(f, u_min, u_min + 60.0, args=(idx,), epsabs=1e-300,
             epsrel=quad_rel, limit=300)[0]
        for idx in (0, 1)
    )
