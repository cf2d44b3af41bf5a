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
term onto an exponentially damped integrand on [u_n, oo), u_n = 2 d xi_n/c:

    E-term(n, p) = w_n kB T/(8 pi d^2) Int u ln(1 - Q(u)) du
    P-term(n, p) = w_n kB T/(8 pi d^3) Int u^2 Q/(1 - Q) du

A second shift t = u - u_n puts every term on the same interval: t runs
over [0, 60], where exp(-t) falls 26 decades, and
k = sqrt(t (t + 2 u_n)) / (2 d) has no cancellation.  A block of terms
then shares one adaptive Gauss-Kronrod (G10/K21, QUADPACK's rule and
error estimate) bisection.  Each pass evaluates every new panel of the
block in one vectorized integrand call, which yields TM and TE together
from one amplitude call per plate.  Each (term, polarization) component
keeps its own error estimate and is refined until that estimate is at
most ``quad_rel`` times its value.  The n = 0 term is a block of its own,
through the static amplitude branch, on panels graded toward t = 0 where
a screened or perfect reflector's TM integrand has a log singularity.

The first block runs to the n where exp(-2 d xi_n / c) falls below
``sum_rel``; further blocks start at 8 terms and double.  The sum walks
each block's terms in n-order and stops once three successive terms each
contribute less than ``sum_rel`` of the accumulated value; terms computed
past the stop are dropped.  A geometric fit to the last terms provides the
recorded tail estimate, with the measured ratio uncapped; a ratio of 1 or
more reports an infinite estimate.  Terms are reduced in fixed n-order and
every array operation runs in a fixed order, so repeated runs are
bit-identical.
``SummationResult.stats`` records the work done.

Each :class:`Plate` binds its material and its reflection model; every
operation reads the model from there.  :func:`g_mode` forms the mode
function from the integrand's own Q kernel.

Reference values, held by the test suite: two ideal metals contribute
exactly -kB T zeta(3)/(16 pi d^2) (energy) and kB T zeta(3)/(8 pi d^3)
(pressure) through the n = 0 TM term alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import phys
from .errors import DomainError, NormalizationError, SummationError
from .materials import MaterialSpec, T_VALID_MAX
from .reflection import Bare, ReflectionModel, amplitude_fn

__all__ = [
    "Plate",
    "Geometry",
    "Tolerances",
    "SummationResult",
    "SumStats",
    "g_mode",
    "free_energy_per_area",
    "pressure",
    "ratio_to_bare",
    "energy_ratio",
]

_T_WINDOW = 60.0          # exp(-60) ~ 9e-27: integrand dead past this
_N_CAP = 2_000_000        # hard Matsubara cap (see design notes)
_PANEL_LIMIT = 300        # G-K panels per Matsubara term
_BLOCK_MIN = 8            # Matsubara terms per block, n >= 1; the cap
_BLOCK_MAX = 256          # bounds the arrays of one pass


@dataclass(frozen=True)
class Plate:
    """One semi-space: a material and the reflection model of its response."""

    material: MaterialSpec
    model: ReflectionModel


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
                  model: ReflectionModel) -> "Geometry":
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
class SumStats:
    """Deterministic work counts of one Matsubara sum.

    ``terms_kept`` terms enter the value; ``terms_computed`` were
    integrated, the difference being the last block's overshoot past the
    stop.  ``nodes`` counts integrand evaluations (each gives TM and TE),
    ``passes`` the Gauss-Kronrod passes (one vectorized integrand call
    each) and ``panels`` the final panels over all computed terms.
    """

    terms_kept: int
    terms_computed: int
    nodes: int
    passes: int
    panels: int


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
    stats: Optional[SumStats] = None


def _with_model(geom: Geometry, model: ReflectionModel) -> Geometry:
    """``geom`` with ``model`` bound on both plates."""
    return replace(geom, plate1=replace(geom.plate1, model=model),
                   plate2=replace(geom.plate2, model=model))


def _pair_fns(geom: Geometry, T: float):
    p1 = amplitude_fn(geom.plate1.model, geom.plate1.material, T)
    p2 = amplitude_fn(geom.plate2.model, geom.plate2.material, T)
    return p1, p2


def _q_pair(pair1, pair2, xi, k, t, u_min):
    """(u, [Q_TM, Q_TE]) with u = t + u_min = 2 d gamma0 and Q = r1 r2 exp(-u).

    A pair shared by both plates is called once.  u is formed after the
    amplitude calls: allocated before them, it made a Ge/drift 1 um sum at
    10 K about 12% slower on one Xeon core, with bitwise equal values.
    """
    r1 = pair1(xi, k)
    r2 = r1 if pair2 is pair1 else pair2(xi, k)
    u = t + u_min
    damp = np.exp(-u)
    return u, [r1[c] * r2[c] * damp for c in (0, 1)]


def g_mode(geom: Geometry, T: float, xi, k):
    """(g_TM, g_TE) with g = ln[1 - r1 r2 exp(-2 d gamma0)].

    ``xi`` [rad/s] and ``k`` [1/cm] are floats or numpy arrays that
    broadcast together, under the provider conventions of
    :func:`~casdrift.reflection.amplitude_fn`: a float ``xi == 0`` takes the
    static branch, so an array ``xi`` must hold positive frequencies only.
    Nonpositive whenever r1 r2 >= 0 (all built-in media).
    """
    xi_a, k_a = np.asarray(xi, dtype=float), np.asarray(k, dtype=float)
    if not (np.isfinite(xi_a).all() and (xi_a >= 0.0).all()):
        raise DomainError(f"xi must be finite and >= 0, got {xi!r}")
    if type(xi) is np.ndarray and (xi_a == 0.0).any():
        raise DomainError("an array xi must hold positive frequencies; pass xi = 0 as a float")
    if not (np.isfinite(k_a).all() and (k_a > 0.0).all()):
        raise DomainError(f"k must be finite and > 0, got {k!r}")
    u = 2.0 * geom.d * np.hypot(k_a, xi_a / phys.C_LIGHT)
    _, (q_tm, q_te) = _q_pair(*_pair_fns(geom, T), xi, k, u, 0.0)
    q_max = max(np.max(q_tm), np.max(q_te))
    if q_max >= 1.0:
        raise DomainError(
            f"r1 r2 exp(-2 d gamma0) = {q_max} >= 1: non-passive amplitudes"
        )
    return np.log1p(-q_tm), np.log1p(-q_te)


# --- the blocked Gauss-Kronrod engine ---------------------------------------------

# QUADPACK's 21-point Kronrod rule on [-1, 1]: the positive nodes, their
# weights and the centre weight; the embedded 10-point Gauss rule sits on
# every second positive node (0.9739..., 0.8650..., ...) with weights _WG.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WK_CENTRE = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array(_XK + (0.0,) + tuple(-x for x in reversed(_XK)))
_W_KRONROD = np.array(_WK + (_WK_CENTRE,) + tuple(reversed(_WK)))
_W_GAUSS = np.zeros(21)
_W_GAUSS[1:10:2] = _WG
_W_GAUSS[11:20:2] = tuple(reversed(_WG))
_EPS = np.finfo(float).eps
# starting panels: three for n >= 1, widening with the exp(-t) decay; for
# n = 0 seventeen, halving down to 60/2^16 ~ 1e-3 toward t = 0
_EDGES = np.array([0.0, 5.0, 20.0, _T_WINDOW])
_STATIC_EDGES = np.concatenate(([0.0], _T_WINDOW * 0.5 ** np.arange(16, -1, -1)))


def _integrand(kind: str, d: float, xi, u_min, t, pair1, pair2):
    """(TM, TE) integrand values at t = u - u_min, k = sqrt(t (t + 2 u_min))/(2d).

    Energy: u ln(1 - Q); pressure: u^2 Q/(1 - Q), with Q = r1 r2 exp(-u).
    """
    k = np.sqrt(t * (t + 2.0 * u_min)) / (2.0 * d)
    u, q_pair = _q_pair(pair1, pair2, xi, k, t, u_min)
    out = np.empty((2,) + t.shape)
    for c, q in enumerate(q_pair):
        out[c] = u * np.log1p(-q) if kind == "energy" else u * u * q / (1.0 - q)
    return out


def _kronrod(f, half):
    """QUADPACK's dqk21 value and error estimate for node values f[..., 21]."""
    resk = (f * _W_KRONROD).sum(axis=-1)
    resg = (f * _W_GAUSS).sum(axis=-1)
    resabs = half * (np.abs(f) * _W_KRONROD).sum(axis=-1)
    resasc = half * (np.abs(f - 0.5 * resk[..., None]) * _W_KRONROD).sum(axis=-1)
    err = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk * half, np.maximum(err, 50.0 * _EPS * resabs)


def _block_integrals(kind: str, d: float, xis, pair1, pair2, quad_rel: float):
    """Integrals I[c, i] over t in [0, _T_WINDOW] for the frequencies xis[i].

    c = 0 is TM, c = 1 TE.  One adaptive G10/K21 bisection serves the whole
    block: each pass evaluates every new panel in one vectorized integrand
    call, then splits the panels of each unconverged component whose error
    exceeds that component's tolerance shared over its term's panels.  A
    component has converged once its summed error is at most quad_rel |I|.
    A term stops refining at _PANEL_LIMIT panels and gets a note for every
    component still above its tolerance.

    Returns (I, E, notes, counts): values and error estimates, shape
    (2, len(xis)); notes as {term index: texts}; counts (nodes, passes,
    panels).  xis is either [0.0] (the static n = 0 term) or all positive.
    """
    n_rows = len(xis)
    u_rows = 2.0 * d * xis / phys.C_LIGHT
    static = xis[0] == 0.0
    edges = _STATIC_EDGES if static else _EDGES
    new_row = np.repeat(np.arange(n_rows), len(edges) - 1)
    new_a, new_b = np.tile(edges[:-1], n_rows), np.tile(edges[1:], n_rows)
    row = np.empty(0, dtype=int)
    a = b = np.empty(0)
    val = err = np.empty((2, 0))
    nodes = passes = 0
    while True:
        half = 0.5 * (new_b - new_a)
        t = 0.5 * (new_a + new_b)[:, None] + half[:, None] * _NODES
        xi = 0.0 if static else xis[new_row][:, None]
        v, e = _kronrod(_integrand(kind, d, xi, u_rows[new_row][:, None], t,
                                   pair1, pair2), half)
        nodes += t.size
        passes += 1
        row = np.concatenate((row, new_row))
        a, b = np.concatenate((a, new_a)), np.concatenate((b, new_b))
        val, err = np.concatenate((val, v), axis=1), np.concatenate((err, e), axis=1)

        I = np.array([np.bincount(row, val[c], n_rows) for c in (0, 1)])
        E = np.array([np.bincount(row, err[c], n_rows) for c in (0, 1)])
        tol = np.maximum(quad_rel * np.abs(I), 1.0e-300)
        n_panels = np.bincount(row, minlength=n_rows)
        open_ = (E > tol) & (n_panels < _PANEL_LIMIT)
        split = (open_[:, row] & (err * n_panels[row] > tol[:, row])).any(axis=0)
        if not split.any():
            break
        mid = 0.5 * (a[split] + b[split])
        new_row = np.concatenate((row[split], row[split]))
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        keep = ~split
        row, a, b = row[keep], a[keep], b[keep]
        val, err = val[:, keep], err[:, keep]

    notes = {}
    for i, c in np.argwhere((E > tol).T).tolist():
        notes.setdefault(i, []).append(
            f"quadrature note at xi={xis[i]:.4e} ({('TM', 'TE')[c]}): panel "
            f"limit ({_PANEL_LIMIT}) reached with error {E[c, i]:.2e} above "
            f"the target {tol[c, i]:.2e}")
    return I, E, notes, (nodes, passes, len(row))


def _range_warnings(T: float) -> list:
    if T > T_VALID_MAX:
        return [f"T = {T} K outside material-model validity (0, {T_VALID_MAX}] K"]
    return []


def _matsubara_sum(kind: str, geom: Geometry, T: float,
                   tolerances: Optional[Tolerances]) -> SummationResult:
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

    p1, p2 = _pair_fns(geom, T)

    coef = phys.K_B * T / (8.0 * math.pi * d * d)
    if kind == "pressure":
        coef /= d

    warnings = _range_warnings(T)
    per_n = []
    quad_err = 0.0
    small_streak = 0
    recent = []  # last |term| values for the geometric tail fit
    acc = 0.0
    counts = [0, 0, 0, 0]  # terms computed, nodes, passes, panels
    # blocks reach the n where exp(-2 d xi_n / c) falls below sum_rel, then
    # grow from _BLOCK_MIN by doubling
    n_expected = math.ceil(math.log(1.0 / tol.sum_rel) * phys.C_LIGHT / (2.0 * d * xi1))
    extra = _BLOCK_MIN
    n_next = 0
    done = False
    while not done:
        if n_next == 0:
            ns = np.zeros(1)
        else:
            if n_next <= n_expected:
                size = n_expected + 1 - n_next
            else:
                size, extra = extra, 2 * extra
            size = min(max(size, _BLOCK_MIN), _BLOCK_MAX)
            ns = np.arange(n_next, min(n_next + size, _N_CAP + 1), dtype=float)
        xis = 2.0 * math.pi * ns * phys.K_B * T / phys.HBAR
        vals, errs, notes, work = _block_integrals(kind, d, xis, p1, p2, tol.quad_rel)
        counts = [c + w for c, w in zip(counts, (len(ns),) + work)]
        i_tm, i_te = vals.tolist()
        abserr = (errs[0] + errs[1]).tolist()
        for i, n in enumerate(range(n_next, n_next + len(ns))):
            for pol, val in (("TM", i_tm[i]), ("TE", i_te[i])):
                if not math.isfinite(val):
                    raise SummationError(
                        f"non-finite {kind} integral at xi={xis[i]:.4e} ({pol})",
                        diagnostics={"xi": float(xis[i]), "pol": pol},
                    )
            weight = 0.5 if n == 0 else 1.0
            tm_part = weight * coef * i_tm[i]
            te_part = weight * coef * i_te[i]
            per_n.append((n, te_part, tm_part))
            quad_err += weight * coef * abserr[i]
            warnings.extend(notes.get(i, ()))

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
                    done = True
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
                        stats=SumStats(len(per_n), *counts),
                    ),
                    diagnostics={"T": T, "d": d, "n": n},
                )
        n_next += len(ns)

    # geometric tail estimate from the last recorded terms, with the measured
    # ratio: at low T it approaches 1 and the tail grows as 1/(1 - rho)
    tail = 0.0
    nz = [t for t in recent if t > 0.0]
    if len(nz) >= 2:
        rho = nz[-1] / nz[-2]
        tail = math.inf if rho >= 1.0 else nz[-1] * rho / (1.0 - rho)

    return SummationResult(
        value=acc,
        per_n_terms=tuple(per_n),
        n_truncated_at=n,
        quadrature_error_estimate=quad_err,
        truncation_error_estimate=tail,
        warnings=tuple(warnings),
        stats=SumStats(len(per_n), *counts),
    )


# --- public operations ------------------------------------------------------------

def free_energy_per_area(geom: Geometry, T: float,
                         tolerances: Optional[Tolerances] = None
                         ) -> SummationResult:
    """Casimir-Lifshitz free energy per area [erg/cm^2] (negative, binding)."""
    return _matsubara_sum("energy", geom, T, tolerances)


def pressure(geom: Geometry, T: float,
             tolerances: Optional[Tolerances] = None) -> SummationResult:
    """Casimir-Lifshitz pressure [dyn/cm^2]; positive = attraction.

    Equals the d-derivative of the free energy per area.
    """
    return _matsubara_sum("pressure", geom, T, tolerances)


def ratio_to_bare(geom: Geometry, T: float,
                  tolerances: Optional[Tolerances] = None) -> float:
    """E(geom) / E(geom with Bare() on both plates), with identical tolerances."""
    e_model = free_energy_per_area(geom, T, tolerances=tolerances)
    e_bare = free_energy_per_area(_with_model(geom, Bare()), T, tolerances=tolerances)
    return energy_ratio(e_model.value, e_bare.value)


def energy_ratio(e_model: float, e_bare: float) -> float:
    """e_model / e_bare, refusing a bare energy below the floor 1e-30 erg/cm^2."""
    if abs(e_bare) < 1.0e-30:
        raise NormalizationError(
            f"|E_bare| = {abs(e_bare):.3e} erg/cm^2 below the "
            "normalization floor 1e-30"
        )
    return e_model / e_bare
