"""Matsubara-summed Casimir-Lifshitz free energy and pressure.

Free energy per unit area between two planar semi-spaces separated by a
vacuum gap d::

    E/A = kB T  Sum_p Sum'_n  Int d^2k/(2pi)^2  ln[1 - r1 r2 exp(-2 d g0)]

and the corresponding pressure (positive = attractive)::

    P   = 2 kB T Sum'_n Int d^2k/(2pi)^2 g0 Sum_p  Q/(1 - Q),
          Q = r1 r2 exp(-2 d g0),   g0 = sqrt(k^2 + xi_n^2/c^2),

where the primed sums weight the n = 0 term by 1/2 and the amplitudes are
evaluated at the Matsubara frequencies xi_n = 2 pi n kB T / hbar.

The k-integral is computed after substituting u = 2 d g0, which maps every
term onto an exponentially damped integrand on [2 d xi_n / c, oo):

    E-term(n, p) = w_n kB T/(8 pi d^2) Int u ln(1 - Q(u)) du
    P-term(n, p) = w_n kB T/(8 pi d^3) Int u^2 Q/(1 - Q) du

evaluated with adaptive Gauss-Kronrod quadrature; the integration window is
cut where exp(-u) falls 26 decades below the peak.  The Matsubara sum stops
once three successive terms each contribute less than ``sum_rel`` of the
accumulated value; a geometric fit to the last terms provides the recorded
tail estimate.  Terms are evaluated and reduced in fixed n-order, so
repeated runs are bit-identical.

Reference values: two ideal metals contribute exactly
-kB T zeta(3)/(16 pi d^2) (energy) and kB T zeta(3)/(8 pi d^3) (pressure)
through the n = 0 TM term alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy.integrate import quad

from . import phys
from .errors import DomainError, NormalizationError, SummationError
from .materials import MaterialSpec, T_VALID_MAX
from .reflection import Bare, IdealMetal, ReflectionModel, amplitude_fn

__all__ = [
    "Plate",
    "Geometry",
    "Tolerances",
    "SummationResult",
    "g_mode",
    "free_energy_per_area",
    "pressure",
    "ratio_to_bare",
    "energy_ratio",
    "pc_n0_ratio_asymptote",
    "ideal_metal_n0_tm_energy",
    "ideal_metal_n0_tm_pressure",
]

ZETA3 = 1.2020569031595943
_U_WINDOW = 60.0          # exp(-60) ~ 9e-27: integrand dead past this
_N_CAP = 2_000_000        # hard Matsubara cap (see design notes)


@dataclass(frozen=True)
class Plate:
    """One semi-space: a material plus an optional bound reflection model."""

    material: MaterialSpec
    model: Optional[ReflectionModel] = None


@dataclass(frozen=True)
class Geometry:
    """Two plates separated by a vacuum gap d [cm]; plates may differ."""

    d: float
    plate1: Plate
    plate2: Plate

    def __post_init__(self):
        if not math.isfinite(self.d) or self.d <= 0.0:
            raise DomainError(f"separation must be finite and > 0, got {self.d!r} cm")

    @classmethod
    def identical(cls, d: float, material: MaterialSpec,
                  model: Optional[ReflectionModel] = None) -> "Geometry":
        plate = Plate(material=material, model=model)
        return cls(d=d, plate1=plate, plate2=plate)


@dataclass(frozen=True)
class Tolerances:
    """Numerical controls: relative quadrature and sum-truncation targets."""

    quad_rel: float = 1.0e-8
    sum_rel: float = 1.0e-10

    def __post_init__(self):
        for name, v in (("quad_rel", self.quad_rel), ("sum_rel", self.sum_rel)):
            if not (1.0e-12 <= v <= 1.0e-4):
                raise DomainError(f"{name} must lie in [1e-12, 1e-4], got {v!r}")


@dataclass(frozen=True)
class SummationResult:
    """Value plus the per-Matsubara-term breakdown and error estimates.

    ``per_n_terms`` holds (n, TE part, TM part) with the n = 0 half-weight
    already applied, so ``value`` equals their plain ordered sum.  Units are
    erg/cm^2 for energies and dyn/cm^2 for pressures.
    """

    value: float
    per_n_terms: tuple
    n_truncated_at: int
    quadrature_error_estimate: float
    truncation_error_estimate: float
    warnings: tuple = ()


def _effective_model(plate: Plate, model: Optional[ReflectionModel]) -> ReflectionModel:
    chosen = model if model is not None else plate.model
    if chosen is None:
        raise DomainError(
            f"no reflection model bound for plate {plate.material.name!r}; "
            "pass one explicitly or bind it on the plate"
        )
    return chosen


def _pair_fns(geom: Geometry, T: float, model: Optional[ReflectionModel]):
    p1 = amplitude_fn(_effective_model(geom.plate1, model), geom.plate1.material, T)
    p2 = amplitude_fn(_effective_model(geom.plate2, model), geom.plate2.material, T)
    return p1, p2


def g_mode(p: str, mode, geom: Geometry, T: float,
           model: Optional[ReflectionModel] = None) -> float:
    """ln[1 - r1 r2 exp(-2 d gamma0)] for polarization p ("TM" | "TE").

    Nonpositive whenever r1 r2 >= 0 (all built-in media).
    """
    idx = {"TM": 0, "TE": 1}.get(p.upper())
    if idx is None:
        raise DomainError(f"polarization must be 'TM' or 'TE', got {p!r}")
    p1, p2 = _pair_fns(geom, T, model)
    r1 = p1(mode.xi, mode.k)[idx]
    r2 = r1 if p2 is p1 else p2(mode.xi, mode.k)[idx]
    q = r1 * r2 * math.exp(-2.0 * geom.d * mode.gamma0)
    if q >= 1.0:
        raise DomainError(
            f"r1 r2 exp(-2 d gamma0) = {q} >= 1: non-passive amplitudes"
        )
    return math.log1p(-q)


# --- the u-integrals ------------------------------------------------------------

def _term_integrals(kind: str, d: float, xi: float, pair1, pair2, quad_rel: float):
    """((I_tm, I_te), abserr, warnings) for one Matsubara frequency.

    I_p = Int u ln(1 - Q) du (energy) or Int u^2 Q/(1-Q) du (pressure),
    taken over u in [u_min, u_min + window], u = 2 d gamma0.
    """
    u_min = 2.0 * d * xi / phys.C_LIGHT
    two_d = 2.0 * d
    same = pair2 is pair1

    def make_integrand(idx: int):
        if kind == "energy":
            def f(u: float) -> float:
                # k = sqrt(gamma0^2 - (xi/c)^2), cancellation-free form
                k = math.sqrt((u - u_min) * (u + u_min)) / two_d
                r1 = pair1(xi, k)[idx]
                r2 = r1 if same else pair2(xi, k)[idx]
                return u * math.log1p(-r1 * r2 * math.exp(-u))
        else:
            def f(u: float) -> float:
                k = math.sqrt((u - u_min) * (u + u_min)) / two_d
                r1 = pair1(xi, k)[idx]
                r2 = r1 if same else pair2(xi, k)[idx]
                q = r1 * r2 * math.exp(-u)
                return u * u * q / (1.0 - q)
        return f

    warnings = []
    vals = []
    err_total = 0.0
    for idx, pol in ((0, "TM"), (1, "TE")):
        out = quad(make_integrand(idx), u_min, u_min + _U_WINDOW,
                   epsabs=1.0e-300, epsrel=quad_rel, limit=300, full_output=1)
        val, abserr = out[0], out[1]
        if len(out) > 3:
            warnings.append(
                f"quadrature note at xi={xi:.4e} ({pol}): {out[3].splitlines()[0]}"
            )
        if not math.isfinite(val):
            raise SummationError(
                f"non-finite {kind} integral at xi={xi:.4e} ({pol})",
                diagnostics={"xi": xi, "pol": pol},
            )
        vals.append(val)
        err_total += abs(abserr)
    return (vals[0], vals[1]), err_total, warnings


def _range_warnings(T: float) -> list:
    if T > T_VALID_MAX:
        return [f"T = {T} K outside material-model validity (0, {T_VALID_MAX}] K"]
    return []


def _matsubara_sum(kind: str, geom: Geometry, T: float,
                   model: Optional[ReflectionModel],
                   tolerances: Optional[Tolerances],
                   n0_model: Optional[ReflectionModel] = None) -> SummationResult:
    if not math.isfinite(T) or T <= 0.0:
        raise DomainError(f"temperature must be finite and positive, got {T!r}")
    tol = tolerances if tolerances is not None else Tolerances()
    d = geom.d
    xi1 = phys.matsubara_xi(1, T)
    # even with |r| = 1 the summand carries exp(-2 d xi_n / c); if that factor
    # cannot reach ~1e-13 within the cap, refuse upfront with guidance.
    if 2.0 * d * xi1 * _N_CAP / phys.C_LIGHT < 30.0:
        raise SummationError(
            f"Matsubara sum needs more than {_N_CAP} terms at T={T} K, "
            f"d={d} cm; raise T or increase d (no xi-integral crossover is "
            "implemented)",
            diagnostics={"T": T, "d": d, "n_cap": _N_CAP},
        )

    pairs = _pair_fns(geom, T, model)
    pairs_n0 = pairs if n0_model is None else _pair_fns(geom, T, n0_model)

    coef = phys.K_B * T / (8.0 * math.pi * d * d)
    if kind == "pressure":
        coef /= d

    warnings = _range_warnings(T)
    per_n = []
    quad_err = 0.0
    small_streak = 0
    recent = []  # last |term| values for the geometric tail fit
    acc = 0.0
    n = 0
    while True:
        xi_n = phys.matsubara_xi(n, T) if n > 0 else 0.0
        weight = 0.5 if n == 0 else 1.0
        p1, p2 = pairs_n0 if n == 0 else pairs
        (i_tm, i_te), abserr, notes = _term_integrals(
            kind, d, xi_n, p1, p2, tol.quad_rel)
        tm_part = weight * coef * i_tm
        te_part = weight * coef * i_te
        per_n.append((n, te_part, tm_part))
        quad_err += weight * coef * abserr
        warnings.extend(notes)

        term = te_part + tm_part
        acc += term
        if n >= 1:
            recent.append(abs(term))
            if len(recent) > 3:
                recent.pop(0)
            if abs(term) < tol.sum_rel * abs(acc) or (term == 0.0 and acc == 0.0):
                small_streak += 1
            else:
                small_streak = 0
            if small_streak >= 3:
                break
        if n >= _N_CAP:
            raise SummationError(
                f"Matsubara sum hit the cap ({_N_CAP} terms) without "
                "converging; raise T or increase d",
                partial=SummationResult(
                    value=acc, per_n_terms=tuple(per_n), n_truncated_at=n,
                    quadrature_error_estimate=quad_err,
                    truncation_error_estimate=math.inf,
                    warnings=tuple(warnings),
                ),
                diagnostics={"T": T, "d": d, "n": n},
            )
        n += 1

    # geometric tail estimate from the last recorded terms
    tail = 0.0
    nz = [t for t in recent if t > 0.0]
    if len(nz) >= 2:
        rho = min(nz[-1] / nz[-2], 0.99) if nz[-2] > 0 else 0.0
        tail = nz[-1] * rho / (1.0 - rho)

    value = 0.0
    for _, te_i, tm_i in per_n:
        value += te_i + tm_i
    return SummationResult(
        value=value,
        per_n_terms=tuple(per_n),
        n_truncated_at=n,
        quadrature_error_estimate=quad_err,
        truncation_error_estimate=tail,
        warnings=tuple(warnings),
    )


# --- public operations ------------------------------------------------------------

def free_energy_per_area(geom: Geometry, T: float,
                         model: Optional[ReflectionModel] = None,
                         tolerances: Optional[Tolerances] = None,
                         n0_model: Optional[ReflectionModel] = None
                         ) -> SummationResult:
    """Casimir-Lifshitz free energy per area [erg/cm^2] (negative, binding).

    ``model`` overrides the plates' bound models for this call; ``n0_model``
    optionally replaces the amplitudes used for the n = 0 term (used by the
    single-mode analysis and the perfect-conductor reference curves).
    """
    return _matsubara_sum("energy", geom, T, model, tolerances,
                          n0_model=n0_model)


def pressure(geom: Geometry, T: float,
             model: Optional[ReflectionModel] = None,
             tolerances: Optional[Tolerances] = None,
             n0_model: Optional[ReflectionModel] = None) -> SummationResult:
    """Casimir-Lifshitz pressure [dyn/cm^2]; positive = attraction.

    Equals the d-derivative of the free energy per area.
    """
    return _matsubara_sum("pressure", geom, T, model, tolerances,
                          n0_model=n0_model)


def ratio_to_bare(geom: Geometry, T: float, model: ReflectionModel,
                  tolerances: Optional[Tolerances] = None) -> float:
    """E_model / E_bare with identical quadrature settings on both sides."""
    e_model = free_energy_per_area(geom, T, model=model, tolerances=tolerances)
    e_bare = free_energy_per_area(geom, T, model=Bare(), tolerances=tolerances)
    return energy_ratio(e_model.value, e_bare.value)


def energy_ratio(e_model: float, e_bare: float) -> float:
    """e_model / e_bare, refusing a bare energy below the floor 1e-30 erg/cm^2."""
    if abs(e_bare) < 1.0e-30:
        raise NormalizationError(
            f"|E_bare| = {abs(e_bare):.3e} erg/cm^2 below the "
            "normalization floor 1e-30"
        )
    return e_model / e_bare


def pc_n0_ratio_asymptote(geom: Geometry, T: float,
                          tolerances: Optional[Tolerances] = None) -> float:
    """Ratio obtained by replacing the n = 0 TM amplitude with 1.

    Reference level that the drift (d >> R_D) and conductivity (d >~
    lambda_T) ratio curves approach: bare amplitudes everywhere except a
    perfectly reflecting n = 0 TM mode.
    """
    e_pc = free_energy_per_area(geom, T, model=Bare(), tolerances=tolerances,
                                n0_model=IdealMetal())
    e_bare = free_energy_per_area(geom, T, model=Bare(), tolerances=tolerances)
    return energy_ratio(e_pc.value, e_bare.value)


def ideal_metal_n0_tm_energy(d: float, T: float) -> float:
    """Analytic n = 0 TM term for ideal metals: -kB T zeta(3)/(16 pi d^2)."""
    return -phys.K_B * T * ZETA3 / (16.0 * math.pi * d * d)


def ideal_metal_n0_tm_pressure(d: float, T: float) -> float:
    """Analytic n = 0 TM pressure term for ideal metals: kB T zeta(3)/(8 pi d^3)."""
    return phys.K_B * T * ZETA3 / (8.0 * math.pi * d**3)
