"""Reference implementations and verification helpers used only by the tests.

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
  the blocked Gauss-Kronrod engine of :mod:`casdrift.lifshitz` is held;
* :func:`complete_matsubara_sum` -- every Matsubara term out to
  2 d xi_n / c = 52 summed directly, against which the engine's stop
  rules and its xi-integral tail are held;
* :func:`passivity_bound`, :func:`passivity_bound_sum` -- the passivity
  bound on one Matsubara term and its ``math.fsum`` over a run of terms,
  against which the kept terms of a direct sum and the engine's closed
  form R(N) are held;
* :func:`gregory_next_loop` -- the head stop's binomial differences as a
  loop over ``math.comb`` coefficients, against which the engine's
  written-out ``_gregory_next`` is held bit for bit;
* :func:`ideal_metal_energy`, :func:`ideal_metal_pressure` -- the
  low-temperature closed forms for two ideal metals;
* :func:`nernst_law` -- the T^3 law of E(T) - E(0) for bare or drift
  plates.

The rest are verification helpers that only the tests call: the (xi, k)
evaluation point :class:`Mode` the record-style helpers take, the drift
quantities and H-functions as records (:func:`drift_quantities`,
:func:`h_integrals`), the drift tensor with the longitudinal component
the q_z quadrature needs (:func:`full_drift_tensor`), the xi-stencil probe
of the mode function (:func:`g_probe`), the exact ideal-metal n = 0 TM
terms, the n = 0 swaps of the single-mode analysis
(:func:`pc_n0_ratio_asymptote`, :func:`n0_swapped_energy`) and the
carrier-free material (:func:`zero_carrier`) with the screening frequency
(:func:`omega_c`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from casdrift import lifshitz, phys
from casdrift.errors import CasdriftError, DomainError, EvaluationError
from casdrift.lifshitz import (
    Geometry, Tolerances, _with_model, free_energy_per_area, g_mode)
from casdrift.materials import MaterialSpec, MaterialState, bare_eps, material_state
from casdrift.reflection import Bare, ReflectionModel, _drift_stages, amplitude_fn
from casdrift.spatial import (
    eps_perp_drift, h_a, h_tildes, nonlocal_stages, transverse_parts,
)


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


class ProbeError(CasdriftError):
    """A finite-difference probe stencil did not behave consistently."""


# --- evaluation point of the record-style helpers ------------------------------

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


# --- drift quantities as a record ------------------------------------------------

@dataclass(frozen=True)
class DriftQuantities:
    """Decay wavevectors and TM surface response of the drift model [1/cm]."""

    eta_L: float
    eta_T: float
    chi: float


def drift_quantities(mode: Mode, state: MaterialState, eps_bar: float) -> DriftQuantities:
    """eta_L, eta_T and chi as the library's Drift stages give them.

    At xi > 0, eta_L^2 - k^2 = Y and eta_T^2 - k^2 = X come from the
    cancellation-free frequency stage of ``casdrift.reflection._drift_stages``,
    and chi is the surface response that the library's TM amplitude
    r = (eps g0 - chi)/(eps g0 + chi) implies.  At xi = 0 the analytic
    static values (eta_L^2 = k^2 + 4 pi e^2 n0/(eps kB T), eta_T = k,
    chi = k^2/eta_L) are returned directly.
    """
    k = mode.k
    if mode.xi == 0.0:
        Y = 4.0 * math.pi * phys.E_CHARGE**2 * state.n0 / (eps_bar * phys.K_B * state.T)
        etaL_v = math.sqrt(k * k + Y)
        return DriftQuantities(eta_L=etaL_v, eta_T=k, chi=k * k / etaL_v)
    frequency, wavevector = _drift_stages(state)
    f = frequency(mode.xi, eps_bar)
    _, w, X, Y = f[:4]
    r_tm = wavevector(f, k)[0]
    eps_g = eps_bar * math.sqrt(k * k + w)
    return DriftQuantities(eta_L=math.sqrt(k * k + Y), eta_T=math.sqrt(k * k + X),
                           chi=eps_g * (1.0 - r_tm) / (1.0 + r_tm))


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


# --- the surface integrals in closed form, as a record ---------------------------

@dataclass(frozen=True)
class HIntegrals:
    """The three surface integrals at one mode.

    The tilded fields hold ``h - h|_{eps==1}`` evaluated in compensated
    form; near-unity media make the plain differences lose all relative
    precision.
    """

    h_a: float
    h_b: float
    h_c: float
    h_tilde_a: float
    h_tilde_b: float
    h_tilde_c: float


@dataclass(frozen=True)
class HFunctions(HIntegrals):
    """The three surface integrals and the assembled H-functions at one mode.

    ``H_tm_tilde`` and ``H_te_tilde`` hold ``H - 1`` in compensated form,
    so e.g. the TE amplitude is exactly ``H_te_tilde / (2 + H_te_tilde)``.
    """

    H_tm: float
    H_te: float
    H_tm_tilde: float
    H_te_tilde: float
    gamma0: float


def h_integrals(tensor, mode: Mode) -> HFunctions:
    """Evaluate h_a, h_b, h_c in closed form and assemble H_tm, H_te.

    ``tensor`` supplies the numbers ``eps_perp(k, xi)`` and ``h_a(k, xi)``.
    Tilded combinations subtract the eps == 1 evaluation, which equals 1
    for all three integrals.
    """
    if mode.xi <= 0.0:
        raise DomainError("h-integrals are defined for xi > 0")
    k, xi = mode.k, mode.xi
    Ht_tm, ht_a, ht_b, ht_c, g = h_tildes(
        *transverse_parts(xi, tensor.eps_perp(k, xi)), tensor.h_a(k, xi), k)
    h_b = 1.0 + ht_b
    return HFunctions(
        h_a=1.0 + ht_a, h_b=h_b, h_c=1.0 + ht_c,
        h_tilde_a=ht_a, h_tilde_b=ht_b, h_tilde_c=ht_c,
        H_tm=1.0 + Ht_tm, H_te=h_b,
        H_tm_tilde=Ht_tm, H_te_tilde=ht_b,
        gamma0=g,
    )


# --- the longitudinal drift component ------------------------------------------

def eps_par_drift(k: float, xi: float, state: MaterialState, eps_bar: float) -> float:
    """Longitudinal drift permittivity at wavevector magnitude k.

    eps(i xi) + 4 pi sigma0 / (xi (1 + xi tau) + D k^2); its zero in the
    (analytically continued) wavevector is the longitudinal branch eta_L.
    Limits: eps0 [1 + 1/(k R_D)^2] as xi -> 0, and the bare eps(i xi) when
    the carriers are removed.
    """
    if xi <= 0.0:
        raise DomainError(
            "eps_par_drift requires xi > 0; use the static uniaxial tensor "
            "for the xi = 0 term"
        )
    if k <= 0.0:
        raise DomainError(f"wavevector must be > 0, got {k!r}")
    return eps_bar + 4.0 * math.pi * state.sigma0 / (
        xi * (1.0 + xi * state.tau) + state.D * k * k
    )


@dataclass(frozen=True)
class FullDriftTensor:
    """Drift tensor diag(eps_perp, eps_perp, eps_par) at one T, with ``h_a``.

    The components take (q, xi).  The library needs eps_par only through
    the closed form ``h_a``; the q_z quadrature integrates the component
    itself.
    """

    spec: MaterialSpec
    state: MaterialState

    def eps_perp(self, q: float, xi: float) -> float:
        return eps_perp_drift(xi, self.state, bare_eps(self.spec, xi))

    def eps_par(self, q: float, xi: float) -> float:
        return eps_par_drift(q, xi, self.state, bare_eps(self.spec, xi))

    def h_a(self, k: float, xi: float) -> float:
        frequency, _ = nonlocal_stages(self.state)
        a0, kq2, eps_a = frequency(xi, bare_eps(self.spec, xi))[:3]
        return h_a(a0, kq2, eps_a, k)


def full_drift_tensor(spec: MaterialSpec, T: float) -> FullDriftTensor:
    """Drift tensor of one material at temperature T."""
    return FullDriftTensor(spec=spec, state=material_state(spec, T))


# --- q_z quadrature of the surface integrals -----------------------------------

@dataclass(frozen=True)
class ConstantTensor:
    """Uniaxial tensor with q- and xi-independent components.

    Offers the same ``eps_perp``/``eps_par``/``h_a`` methods as
    :class:`FullDriftTensor`, so ``h_integrals`` accepts it;
    for a constant eps_par the longitudinal integral is exactly 1/eps_par.
    """

    perp: float
    par: float

    def eps_perp(self, q: float, xi: float) -> float:
        return self.perp

    def eps_par(self, q: float, xi: float) -> float:
        return self.par

    def h_a(self, k, xi) -> float:
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


def h_integrals_quadrature(tensor, mode: Mode) -> HIntegrals:
    """h_a, h_b, h_c by adaptive q_z quadrature of the tensor components.

    ``tensor`` supplies ``eps_perp(q, xi)`` and ``eps_par(q, xi)`` at the
    wavevector magnitude q = sqrt(k^2 + q_z^2).  The eps == 1 evaluation is
    subtracted inside each integrand, so the tilded values come out at full
    precision.  The integrals are the independent route; H is assembled
    from them only in the library's closed form (:func:`h_integrals`).
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
    return HIntegrals(
        h_a=1.0 + ht_a, h_b=1.0 + ht_b, h_c=1.0 + ht_c,
        h_tilde_a=ht_a, h_tilde_b=ht_b, h_tilde_c=ht_c,
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
    without its shift, blocks or vectorization (the engine ends a term
    n >= 1 at u_min + 45, which leaves less than 1e-16 of it out).
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


def complete_matsubara_sum(kind: str, geom: Geometry, T: float,
                           s_end: float = 52.0, quad_rel: float = 1e-12) -> float:
    """The Matsubara sum over every term with 2 d xi_n / c <= s_end.

    Each term is integrated by the engine's ``_block_integrals`` at
    ``quad_rel``, in blocks of 256 terms, and the terms (n = 0 half-weighted)
    are added by ``math.fsum``: no stop rule, no tail and no truncation
    estimate.  Past s = 52 the summand has fallen by exp(-52) ~ 3e-23.
    """
    d = geom.d
    p1 = amplitude_fn(geom.plate1.model, geom.plate1.material, T)
    p2 = amplitude_fn(geom.plate2.model, geom.plate2.material, T)
    coef = phys.K_B * T / (8.0 * math.pi * d * d)
    if kind == "pressure":
        coef /= d
    n_last = int(s_end * phys.C_LIGHT / (2.0 * d * phys.matsubara_xi(1, T)))
    parts = []
    for start in range(0, n_last + 1, 256):
        ns = np.arange(start, min(start + 256, n_last + 1), dtype=float)
        xis = 2.0 * math.pi * ns * phys.K_B * T / phys.HBAR
        I = lifshitz._block_integrals(kind, d, xis[None], [(p1, p2)], quad_rel)[0][:, 0]
        w = np.where(ns == 0.0, 0.5, 1.0) * coef
        parts.extend((w * I[0]).tolist() + (w * I[1]).tolist())
    return math.fsum(parts)


def passivity_bound(kind: str, coef: float, x: float, x_den: float) -> float:
    """2 coef p(x) exp(-x) / (1 - exp(-x_den)), p(x) = x + 1 (energy) or x^2 + 2 x + 2.

    With x = x_den = 2 d xi_n / c this bounds Matsubara term n >= 1, both
    polarizations, wherever |r1 r2| <= 1: |ln(1 - Q)| and |Q/(1 - Q)| are at
    most exp(-u)/(1 - exp(-x)) for u >= x, and Int_x^oo u exp(-u) du =
    (x + 1) exp(-x), Int_x^oo u^2 exp(-u) du = (x^2 + 2 x + 2) exp(-x).
    ``coef`` is the sum's kB T/(8 pi d^2) (pressure: kB T/(8 pi d^3)).
    """
    p = x + 1.0 if kind == "energy" else x * x + 2.0 * x + 2.0
    return 2.0 * coef * p * math.exp(-x) / -math.expm1(-x_den)


def passivity_bound_sum(kind: str, coef: float, a: float, K: int, L: int) -> float:
    """``math.fsum`` of passivity_bound at x = m a over m = K..K+L, every
    denominator taken at x_den = K a: the library's R(K - 1), less the
    terms past K + L."""
    return math.fsum(passivity_bound(kind, coef, m * a, K * a) for m in range(K, K + L + 1))


# Delta^k f_M = Sum_j (-1)^(k-j) C(k, j) f_{M+j} for k = 8 and 9
DELTA8 = tuple((-1) ** (8 - j) * math.comb(8, j) for j in range(9)) + (0,)
DELTA9 = tuple((-1) ** (9 - j) * math.comb(9, j) for j in range(10))


def gregory_next_loop(f) -> float:
    """2 (|G_8 Delta^8 f_M| + |G_9 Delta^9 f_M|) from f = f_M..f_{M+9}.

    The binomial sums accumulated term by term from 0.0, with the
    coefficients built from ``math.comb``: the engine's ``_gregory_next``
    writes the same sums out by hand.
    """
    d8 = d9 = 0.0
    for b8, b9, x in zip(DELTA8, DELTA9, f):
        d8 += b8 * x
        d9 += b9 * x
    return 2.0 * (abs(lifshitz._GREGORY[8] * d8) + abs(lifshitz._GREGORY[9] * d9))


# --- ideal metals and the n = 0 swaps ----------------------------------------------

ZETA3 = 1.2020569031595943


def ideal_metal_n0_tm_energy(d: float, T: float) -> float:
    """Analytic n = 0 TM term for ideal metals: -kB T zeta(3)/(16 pi d^2)."""
    return -phys.K_B * T * ZETA3 / (16.0 * math.pi * d * d)


def ideal_metal_n0_tm_pressure(d: float, T: float) -> float:
    """Analytic n = 0 TM pressure term for ideal metals: kB T zeta(3)/(8 pi d^3)."""
    return phys.K_B * T * ZETA3 / (8.0 * math.pi * d**3)


def ideal_metal_energy(d: float, T: float) -> float:
    """Low-temperature free energy of two ideal metals with r_TE = 0 at xi = 0.

    E = -pi^2 hbar c/(720 d^3) [1 + 45 zeta(3) t^3/pi^3 - t^4]
    + kB T zeta(3)/(16 pi d^2), t = 2 kB T d/(hbar c) (Brown and Maclay,
    Phys. Rev. 184, 1272 (1969), with the n = 0 TE term removed), up to
    terms exponentially small in 1/t.
    """
    hc = phys.HBAR * phys.C_LIGHT
    t = 2.0 * phys.K_B * T * d / hc
    bracket = 1.0 + 45.0 * ZETA3 * t**3 / math.pi**3 - t**4
    return (-math.pi**2 * hc / (720.0 * d**3) * bracket
            + phys.K_B * T * ZETA3 / (16.0 * math.pi * d * d))


def ideal_metal_pressure(d: float, T: float) -> float:
    """dE/dd of :func:`ideal_metal_energy`: attraction is positive."""
    hc = phys.HBAR * phys.C_LIGHT
    kT = phys.K_B * T
    return (3.0 * math.pi**2 * hc / (720.0 * d**4)
            + math.pi**2 * kT**4 / (45.0 * hc**3)
            - kT * ZETA3 / (8.0 * math.pi * d**3))


def nernst_law(spec: MaterialSpec) -> float:
    """C [erg/(cm^2 K^3)] of E(T) - E(0) -> C T^3 for bare or drift plates.

    C = -zeta(3) (eps0 - 1)^2 kB^3 / (4 pi (eps0 + 1) (hbar c)^2), independent
    of d.  With E = kB T/(8 pi d^2) Sum'_n F(n a), the TM summand goes as
    F(0) - g2 s^2 ln s + (analytic), g2 = (eps0 - 1)^2 / (2 (eps0 + 1)), and
    TE enters only at s^4; the zeta-regularised Euler-Maclaurin sum, with
    -zeta'(-2) = zeta(3)/(4 pi^2), turns the s^2 ln s point into C T^3.
    """
    eps0 = spec.permittivity.eps0
    hc = phys.HBAR * phys.C_LIGHT
    return -ZETA3 * (eps0 - 1.0) ** 2 * phys.K_B**3 / (4.0 * math.pi * (eps0 + 1.0) * hc * hc)


def _n0_term(res) -> float:
    """The n = 0 term (TE + TM, half weight applied) of a SummationResult."""
    return res.per_n_terms[0][1] + res.per_n_terms[0][2]


def pc_n0_ratio_asymptote(geom: Geometry, T: float,
                          tolerances: Optional[Tolerances] = None) -> float:
    """Ratio obtained by replacing the bare n = 0 TM term with the ideal-metal one.

    Reference level that the drift (d >> R_D) and conductivity (d >~
    lambda_T) ratio curves approach: bare amplitudes everywhere except a
    perfectly reflecting n = 0 TM mode.
    """
    e_bare = free_energy_per_area(_with_model(geom, Bare()), T, tolerances=tolerances)
    e_pc = e_bare.value - e_bare.per_n_terms[0][2] + ideal_metal_n0_tm_energy(geom.d, T)
    return e_pc / e_bare.value


def n0_swapped_energy(geom: Geometry, T: float, n0_model: ReflectionModel,
                      tolerances: Optional[Tolerances] = None) -> float:
    """Bare free energy with its n = 0 term taken from ``n0_model``."""
    e_bare = free_energy_per_area(_with_model(geom, Bare()), T, tolerances=tolerances)
    e_n0 = free_energy_per_area(_with_model(geom, n0_model), T, tolerances=tolerances)
    return e_bare.value - _n0_term(e_bare) + _n0_term(e_n0)


# --- xi-stencil probe of the mode function -------------------------------------

@dataclass(frozen=True)
class GProbe:
    """One-sided xi -> 0+ derivatives of g^p at fixed k.

    theta = 2 pi kB T / hbar [rad/s]; g0 is the static value, g_xi [s] and
    g_xixi [s^2] the first and second xi-derivatives at xi = 0.
    """

    p: str
    k: float
    theta: float
    g0: float
    g_xi: float
    g_xixi: float


def g_probe(p: str, k: float, geom: Geometry, T: float) -> GProbe:
    """First and second xi-derivatives of g^p at xi -> 0+ for one k.

    One-sided four-point stencils on xi = {0, 1, 2, 3} h with
    h = 1e-4 xi_1(T); both derivative estimates are cross-checked against a
    half-step stencil and a ProbeError is raised if they disagree beyond
    the stencil's own scale.
    """
    if k <= 0.0:
        raise DomainError(f"k must be > 0, got {k!r}")
    theta = 2.0 * math.pi * phys.K_B * T / phys.HBAR
    h0 = 1.0e-4 * phys.matsubara_xi(1, T)
    pol = ("TM", "TE").index(p.upper())

    def stencil(h: float):
        g = [float(g_mode(geom, T, j * h, k)[pol]) for j in range(4)]
        g_xi = (-11.0 * g[0] + 18.0 * g[1] - 9.0 * g[2] + 2.0 * g[3]) / (6.0 * h)
        g_xixi = (2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]) / (h * h)
        return g, g_xi, g_xixi

    gv, gxi_a, gxx_a = stencil(h0)
    _, gxi_b, gxx_b = stencil(0.5 * h0)
    if not all(map(math.isfinite, (gxi_a, gxi_b, gxx_a, gxx_b))):
        raise ProbeError(f"non-finite probe values for {p} at k={k:.3e}")
    # Agreement scale: a genuine derivative reproduces within ~|g_xi| between
    # steps; an identically vanishing one only resolves down to the
    # curvature-step scale |g_xixi| h, or to max|g|/h when g itself vanishes
    # to higher order at xi = 0 (e.g. the quartic TE mode function of an
    # ideal dielectric).
    g_scale = max(abs(v) for v in gv)
    scale = max(abs(gxi_b), abs(gxx_b) * h0, g_scale / h0, 1e-300)
    if abs(gxi_a - gxi_b) > scale:
        raise ProbeError(
            f"stencil non-convergence for {p} g_xi at k={k:.3e}: "
            f"h-step {gxi_a:.6e} vs h/2-step {gxi_b:.6e}"
        )
    return GProbe(p=p.upper(), k=k, theta=theta, g0=gv[0], g_xi=gxi_b, g_xixi=gxx_b)


# --- materials -------------------------------------------------------------------

def zero_carrier(spec: MaterialSpec) -> MaterialSpec:
    """Copy of ``spec`` with (numerically) frozen-out carriers.

    Reduces the drift model to bare Fresnel; used by the ideal-dielectric
    reduction checks.  The density-of-states prefactors stay positive (the
    constructor requires it); instead the gap is made large enough that n0
    underflows to exactly 0 at any representable temperature.
    """
    return replace(spec, gap_E0=1.0e6, name=f"{spec.name}+n0=0")


def omega_c(state: MaterialState, spec: MaterialSpec, xi: float) -> float:
    """Screening frequency omega_c(xi) = 4 pi sigma0 / eps(i xi) [rad/s].

    Satisfies omega_c/D = 4 pi e^2 n0 / (eps(i xi) kB T), which reduces to
    kappa^2 in the static limit.
    """
    if not math.isfinite(xi) or xi < 0.0:
        raise DomainError(f"imaginary frequency must be >= 0, got {xi!r}")
    return 4.0 * math.pi * state.sigma0 / bare_eps(spec, xi)
