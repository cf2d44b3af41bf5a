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

A second shift t = u - u_n starts every term at t = 0, and
k = sqrt(t (t + 2 u_n)) / (2 d) has no cancellation.  Each term is
integrated in w = sqrt(t), dt = 2 w dw: the amplitudes' branch points sit
about u_n from t = 0 (the zeros of k^2 + X = (t^2 + 2 u_n t + eps u_n^2)
/(4 d^2), for one), so about sqrt(u_n) from w = 0, and panels reach them
in about half the halvings they take in t.  A term n >= 1 runs over t in
[0, 45]: exp(-45) ~ 2.9e-20, and its energy or pressure integrand past
t = 45 adds less than 1e-16 of the term.  Its starting panels halve
[0, 2] toward w = 0 down to about 1.5 sqrt(u_n), then take [2, 3.5] and
[3.5, sqrt(45)].  The static n = 0 term runs over t in [0, 60], on eight
panels graded toward w = 0 down to sqrt(60)/2^7, where a screened or
perfect reflector's TM integrand has a log point, milder in w as
2 w ln w.  These are the panels the terms converge on, so a block
usually takes one pass.  A block of terms shares one adaptive
Gauss-Kronrod (G10/K21, QUADPACK's rule and error estimate) bisection.
Each pass evaluates every new panel of the block in one vectorized
integrand call, or two when the static term has new panels, and each
call yields TM and TE together from one amplitude call per plate.  Each
(term, polarization) component keeps its own error estimate and is
refined until that estimate is at most ``quad_rel`` times its value.

A sum takes one of two routes, each with one stop.  A direct sum, one not
expected to outlast a head block and the tail's first pass (below), stops
at the first N >= 1 where R(N), a bound on the terms n > N and its
truncation estimate, is at most ``sum_rel`` of the accumulated value.  As
|r1 r2| <= 1 on the imaginary axis (passivity), |ln(1 - Q)| and
|Q/(1 - Q)| are at most exp(-u)/(1 - exp(-x_n)) for u >= x_n = 2 d xi_n/c:
term n >= 1 is at most 2 coef p(x_n) exp(-x_n)/(1 - exp(-x_n)), with
p(x) = x + 1 and coef = kB T/(8 pi d^2) for energies, x^2 + 2 x + 2 and
kB T/(8 pi d^3) for pressures.  R(N) sums these in closed form.  The first
block runs from n = 0 to the stop for a nominal value coef/x_1, a
follow-up block to the stop for the running value, each with at most 256
terms n >= 1; terms computed past the stop are dropped.  Terms are reduced
in fixed n-order and every array operation runs in a fixed order, so
repeated runs are bit-identical; ``SummationResult.stats`` counts the work.

Several temperatures are summed as columns of one walk
(``free_energies``).  The lowest, whose terms decay the slowest, sets the
layout: the blocks, the route, the start panels and the tail's first
cells.  Each column makes its own integrand and quadrature calls on it,
and a panel or cell splits if any column asks.  Each column appends a
block's rows (its terms, running sums and bounds) at once, and one loop
over the block's n stops at the first n where every column's stop test
holds, the lowest temperature's tried first; so the columns keep the same
terms, and a higher temperature may set the stop.  One column is the
single sum, bit for bit.  A non-finite integrand value is refused in the
Gauss-Kronrod pass that makes it, rows past the stop included.

A long sum, one expected to outlast a head block of 64 terms and the 28
terms the tail's first pass is worth, ends in an xi-integral instead.
Past its first few dozen terms the summand f(n) = F(a n), a = 2 d xi_1 / c,
is a smooth function of s = 2 d xi / c, damped as exp(-s).  Such a sum
walks its head in blocks: the first holds n = 0 and
min(64, max(M_s, 30) + 10) terms, M_s the n where the stop below is met
by a summand decaying as exp(-a n) (30 covers the s^2 ln s regime near
s = 0), and each later block 16.  At each n = M >= 8 the head forms
Gregory's end correction (Dahlquist and Bjorck, Numerical Methods in
Scientific Computing I, SIAM 2008)::

    Sum_{n>=M} f(n) = (1/a) Int_{s_M}^oo F(s) ds + f_M/2 - Delta f_M/12
                      + Delta^2 f_M/24 - ... - 33953 Delta^7 f_M/3628800,

with forward differences Delta.  The recorded truncation estimate is
twice the next two terms, 2 (|G_8 Delta^8 f_M| + |G_9 Delta^9 f_M|): the
omitted terms add up to as much as 1.63 times the two.  The head stops at
the first M where the estimate is at most ``sum_rel``/2 of the running
value.  J is taken in Lifshitz's polar form (``_tail_integral``), held
to ``quad_rel``; its error joins the quadrature estimate.  ``value``
is the ordered sum of the head's terms n < M plus this remainder.  At
T = 0 the tail from s_M = 0 is the sum, with coef/a at its limit
hbar c/(32 pi^2 d^3) (pressure: d^4); ``amplitude_fn`` sets each model's T = 0.

Each :class:`Plate` binds its material and its reflection model; every
operation reads the model from there.  :func:`g_mode` forms the mode
function from the integrand's own Q kernel.

Reference values, held by the test suite: two ideal metals contribute
exactly -kB T zeta(3)/(16 pi d^2) (energy) and kB T zeta(3)/(8 pi d^3)
(pressure) through the n = 0 TM term alone.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, replace
from itertools import accumulate
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
    "free_energies",
    "pressure",
    "ratio_to_bare",
    "energy_ratio",
]

_T_WINDOW = 60.0          # the static term's t-window: exp(-60) ~ 9e-27
_T_END = 45.0             # n >= 1: exp(-45) ~ 2.9e-20, 45^2 exp(-45) ~ 6e-17
_HALVINGS = 8             # n >= 1: most halvings of [0, 2] toward w = sqrt(t) = 0
_PANEL_LIMIT = 300        # G-K panels per Matsubara term
_BLOCK_MAX = 256          # Matsubara terms n >= 1 per direct block: bounds the arrays of one pass
_HEAD_BLOCK = 64          # most terms n >= 1 in the first block of a sum that may take the tail
_HEAD_NEXT = 16           # terms per later head block
_HEAD_MIN = 8             # the first n at which the tail may start
_TAIL_PANELS = (0.0, 3.0, 8.0, 20.0, _T_END)  # the tail's first v-panels
# the terms its first pass is worth: 4 cells of 21 x 21 nodes over the 3 x 21 of a far term
_TAIL_TERMS = (len(_TAIL_PANELS) - 1) * 21 // 3
_TAIL_CELL_LIMIT = 256    # K21 x K21 cells of the tail
# Gregory's coefficients G_j: Sum_{n>=M} f(n) = Int_M^oo f + Sum_j G_j Delta^j f_M
_GREGORY = (1.0 / 2.0, -1.0 / 12.0, 1.0 / 24.0, -19.0 / 720.0, 3.0 / 160.0,
            -863.0 / 60480.0, 275.0 / 24192.0, -33953.0 / 3628800.0,
            8183.0 / 1036800.0, -3250433.0 / 479001600.0)


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


_DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class SumStats:
    """Deterministic work counts of one Matsubara sum.

    ``terms_kept`` terms enter the value; ``terms_computed`` were
    integrated, the difference being the last block's overshoot past the
    stop.  ``nodes`` counts integrand evaluations (each gives TM and TE),
    ``passes`` the Gauss-Kronrod passes (one vectorized integrand call
    each, or two while the static n = 0 term is refined) and ``panels``
    the final panels over all computed terms.  A sum that takes the tail
    counts its work in the same totals, its final cells as panels, and
    ``tail_rows`` is the tail's share of ``nodes`` (0 for a direct sum).
    """

    terms_kept: int
    terms_computed: int
    nodes: int
    passes: int
    panels: int
    tail_rows: int = 0


@dataclass(frozen=True)
class SummationResult:
    """Value plus the per-Matsubara-term breakdown and error estimates.

    ``per_n_terms`` holds (n, TE part, TM part) of the terms summed
    directly, with the n = 0 half-weight already applied, and
    ``remainder`` the terms past them, summed as an xi-integral with
    Gregory's end correction (0.0 when every term is summed directly).
    ``value`` equals the plain ordered sum of the parts plus ``remainder``.
    ``truncation_error_estimate`` is the passivity bound on the terms past
    ``n_truncated_at`` (direct sums) or twice the next two terms of Gregory's
    correction (tail sums); a T = 0 sum has no terms, ``n_truncated_at`` -1
    and a truncation estimate of 0.  Units are erg/cm^2 and dyn/cm^2.
    """

    value: float
    per_n_terms: tuple
    n_truncated_at: int
    quadrature_error_estimate: float
    truncation_error_estimate: float
    warnings: tuple = ()
    stats: Optional[SumStats] = None
    remainder: float = 0.0


def _with_model(geom: Geometry, model: ReflectionModel) -> Geometry:
    """``geom`` with ``model`` bound on both plates."""
    return replace(geom, plate1=replace(geom.plate1, model=model),
                   plate2=replace(geom.plate2, model=model))


def _pair_fns(geom: Geometry, T: float):
    p1 = amplitude_fn(geom.plate1.model, geom.plate1.material, T)
    if geom.plate2 is geom.plate1:  # the cache would return p1 again
        return p1, p1
    return p1, amplitude_fn(geom.plate2.model, geom.plate2.material, T)


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
    _check_temperature(T)
    xi_a, k_a = np.asarray(xi, dtype=float), np.asarray(k, dtype=float)
    if not (np.isfinite(xi_a).all() and (xi_a >= 0.0).all()):
        raise DomainError(f"xi must be finite and >= 0, got {xi!r}")
    if type(xi) is np.ndarray and (xi_a == 0.0).any():
        raise DomainError("an array xi must hold positive frequencies; pass xi = 0 as a float")
    if not (np.isfinite(k_a).all() and (k_a > 0.0).all()):
        raise DomainError(f"k must be finite and > 0, got {k!r}")
    u = 2.0 * geom.d * np.hypot(k_a, xi_a / phys.C_LIGHT)
    _, (q_tm, q_te) = _q_pair(*_pair_fns(geom, T), xi, k, u, 0.0)
    q_max = np.max((np.max(q_tm), np.max(q_te)))  # nan if any element is nan
    if not q_max < 1.0:
        why = ">= 1: non-passive amplitudes" if np.isfinite(q_max) else "is not finite"
        raise DomainError(f"r1 r2 exp(-2 d gamma0) = {q_max} {why}")
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
_W_KG = np.stack((_W_KRONROD, _W_GAUSS), axis=1)
_EPS = np.finfo(float).eps
# starting panels of the static n = 0 term in w = sqrt(t): eight, halving
# down to sqrt(60)/2^7 ~ 0.06 toward w = 0, where a screened or perfect
# reflector's TM integrand has a log point, 2 w ln w in w (see _start_panels
# for n >= 1)
_STATIC_EDGES = np.concatenate(([0.0], math.sqrt(_T_WINDOW) * 0.5 ** np.arange(7, -1, -1)))


def _integrand(kind: str, d: float, xi, u_min, t, pair1, pair2, out):
    """(TM, TE) integrand values at t = u - u_min, k = sqrt(t (t + 2 u_min))/(2d).

    Energy: u ln(1 - Q); pressure: u^2 Q/(1 - Q), with Q = r1 r2 exp(-u).
    Written into ``out``, shape (2,) + t.shape.  k and the fresh Q arrays
    are worked on in place: at a block's size a new temporary costs more
    than the arithmetic on it, and the values are the same bits.
    """
    k = t + 2.0 * u_min
    k *= t
    np.sqrt(k, out=k)
    k /= 2.0 * d
    u, q_pair = _q_pair(pair1, pair2, xi, k, t, u_min)
    for c, q in enumerate(q_pair):
        if kind == "energy":
            np.log1p(np.negative(q, out=q), out=out[c])
            out[c] *= u
        else:
            np.multiply(u, u, out=out[c])
            out[c] *= q
            out[c] /= np.subtract(1.0, q, out=q)


def _kronrod(f, half, out=(None, None)):
    """QUADPACK's dqk21 value and error estimate for node values f[2, P, 21], into ``out``.

    The weighted sums are matrix products: one BLAS call forms the Kronrod
    and Gauss sums of every panel (14 us at 871 panels on one Xeon core,
    against 117 us for the multiply and sum of one rule), and one buffer
    serves both |f| sums.  Their bits depend on the panel count: with
    numpy 2.4.6 and OpenBLAS 0.3.31 on an AVX-512 x86-64 core, 288 of 399
    row prefixes of a random (2, 400, 21) array gave other f @ _W_KG bits
    than the same rows of the full product.  So a term's bits depend on the
    other terms of its block, and bit-for-bit pins hold for one BLAS build.
    """
    kg = f @ _W_KG
    resk, resg = kg[..., 0], kg[..., 1]
    dev = np.abs(f)
    resabs = half * (dev @ _W_KRONROD)
    np.abs(np.subtract(f, 0.5 * resk[..., None], out=dev), out=dev)
    resasc = half * (dev @ _W_KRONROD)
    err = np.abs((resk - resg) * half)
    # QUADPACK's scaling where resasc != 0: it leaves err = 0 at 0
    nz = resasc != 0.0
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(nz, resasc, 1.0)) ** 1.5)
    err = np.where(nz, scaled, err)
    return np.multiply(resk, half, out=out[0]), np.maximum(err, 50.0 * _EPS * resabs, out=out[1])


@functools.lru_cache(maxsize=4)  # by the windows' ends
def _panel_levels(t_end: float, static_edges: bytes):
    """(thresholds, a, b): row L of a and b, zero-padded, holds the panels of
    halving level L (see :func:`_start_panels`), the last row the static term's."""
    halves = 2.0 * 0.5 ** np.arange(_HALVINGS, -1, -1)
    ladder = np.concatenate(([0.0], halves, [3.5, math.sqrt(t_end)]))
    levels = [np.append(0.0, ladder[lo + 1:]) for lo in range(_HALVINGS + 1)]
    levels.append(np.frombuffer(static_edges))
    a, b = np.zeros((2, len(levels), max(map(len, levels)) - 1))
    for e, a_l, b_l in zip(levels, a, b):
        a_l[:len(e) - 1], b_l[:len(e) - 1] = e[:-1], e[1:]
    return halves[1:], a, b


def _start_panels(u_rows, n_static: int):
    """(row, a, b) of a block's starting panels in w = sqrt(t), in row order.

    The static row takes ``_STATIC_EDGES``.  Each row n >= 1 takes [0, 2],
    halved toward w = 0 (at most _HALVINGS times) while its first panel is
    wider than 1.5 sqrt(u_n): the amplitudes' branch points sit about u_n
    from t = 0, so about sqrt(u_n) from w = 0.  Then come [2, 3.5] and
    [3.5, sqrt(_T_END)].  These are the panels the first pass would
    otherwise split, so a block converges in one pass in the common case.
    A row gathers its level's panels from a table: 12 us for a 30-row
    block against 20 us for building them (one Xeon core).
    """
    thresholds, a, b = _panel_levels(_T_END, _STATIC_EDGES.tobytes())
    level = np.searchsorted(thresholds, 1.5 * np.sqrt(u_rows[n_static:]), side="right")
    if n_static:
        level = np.concatenate(([len(a) - 1], level))
    a, b = a[level], b[level]
    panel = b > 0.0  # the padding ends at 0
    return np.nonzero(panel)[0], a[panel], b[panel]


def _block_integrals(kind: str, d: float, xis, pairs, quad_rel: float):
    """Integrals I[c, j, i] over t >= 0 for the frequencies xis[j, i], taken in w = sqrt(t).

    c = 0 is TM, c = 1 TE; column j takes its amplitudes from pairs[j].  One
    adaptive G10/K21 bisection serves the whole block: each pass evaluates
    every new panel, then splits the panels of each unconverged component
    whose error exceeds that component's tolerance shared over its term's
    panels.  A component has converged once its summed error is at most
    quad_rel |I|; a block whose components all converge returns at once
    (one row: 110 us, 138 us with the split bookkeeping, one Xeon core).  A
    term stops refining at _PANEL_LIMIT panels and gets a note for every
    component still above its tolerance.  The columns share the panels,
    started from the lowest frequencies' u_n, and a panel splits if any
    column asks for it; each column makes its own integrand and _kronrod
    calls, so its bits are those of a one-column block on that layout.
    Every pass refuses a non-finite panel value of any column, at its
    term's xi: as every K21 weight is positive, a non-finite node makes its
    panel's value non-finite before a split could drop the panel.

    Each row of xis holds positive frequencies, optionally led by 0.0, the
    static n = 0 term.  The static row's new panels lead each pass's
    arrays, so a pass makes one integrand call for them (the providers take
    the static branch for a float xi = 0) and one for the rest; a stable
    partition keeps every row's panel order, and so its summation order.

    Returns (I, E, notes, counts): values and error estimates, shape
    (2, C, n_rows); notes per column as {term index: texts}; counts
    (nodes, passes, panels) of one column.
    """
    n_cols, n_rows = xis.shape
    u_rows = 2.0 * d * xis / phys.C_LIGHT
    n_static = int(xis[0, 0] == 0.0)
    row, a, b = new_row, new_a, new_b = _start_panels(u_rows[xis[:, -1].argmin()], n_static)
    bins = np.arange(0, 2 * n_cols * n_rows, n_rows)[:, None]  # first bin of each (c, j)
    nodes = passes = 0
    while True:
        half = 0.5 * (new_b - new_a)
        w = half[:, None] * _NODES
        w += 0.5 * (new_a + new_b)[:, None]
        t = w * w
        dt_dw = 2.0 * w
        lead = np.count_nonzero(new_row < n_static)
        r = new_row[lead:, None]
        f = np.empty((2,) + t.shape)  # each column's nodes in turn
        v, e = np.empty((2, 2, n_cols, len(t)))
        for j, (xi, u, (pair1, pair2)) in enumerate(zip(xis, u_rows, pairs)):
            if lead:
                _integrand(kind, d, 0.0, 0.0, t[:lead], pair1, pair2, f[:, :lead])
            if lead < len(t):
                _integrand(kind, d, xi[r], u[r], t[lead:], pair1, pair2, f[:, lead:])
            f *= dt_dw
            _kronrod(f, half, (v[:, j], e[:, j]))
            if not math.isfinite(v[:, j].sum()):  # so does a non-finite panel value
                _refuse_non_finite(kind, xi[new_row], v[:, j])
        nodes, passes = nodes + t.size, passes + 1
        if passes > 1:  # a refining pass: the kept panels lead
            row = np.concatenate((row, new_row))
            a, b = np.concatenate((a, new_a)), np.concatenate((b, new_b))
            v, e = np.concatenate((val, v), axis=2), np.concatenate((err, e), axis=2)
        val, err = v, e

        # one bincount over (c, j, row) adds each bin's panels in order, as one per row would
        idx = (bins + row).ravel()
        I = np.bincount(idx, val.ravel(), bins.size * n_rows).reshape(2, n_cols, n_rows)
        E = np.bincount(idx, err.ravel(), bins.size * n_rows).reshape(2, n_cols, n_rows)
        tol = np.maximum(quad_rel * np.abs(I), 1.0e-300)
        above = E > tol
        if not above.any():
            return I, E, ({},) * n_cols, (nodes, passes, len(row))
        n_panels = np.bincount(row, minlength=n_rows)
        open_ = above & (n_panels < _PANEL_LIMIT)
        split = (open_[..., row] & (err * n_panels[row] > tol[..., row])).any(axis=(0, 1))
        if not split.any():
            break
        mid = 0.5 * (a[split] + b[split])
        new_row = np.concatenate((row[split], row[split]))
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        if n_static:
            order = np.argsort(new_row >= n_static, kind="stable")
            new_row, new_a, new_b = new_row[order], new_a[order], new_b[order]
        keep = ~split
        row, a, b = row[keep], a[keep], b[keep]
        val, err = val[..., keep], err[..., keep]

    notes = tuple({} for _ in range(n_cols))
    for c, j, i in np.argwhere(above).tolist():
        notes[j].setdefault(i, []).append(
            f"quadrature note at xi={xis[j, i]:.4e} ({('TM', 'TE')[c]}): panel "
            f"limit ({_PANEL_LIMIT}) reached with error {E[c, j, i]:.2e} above "
            f"the target {tol[c, j, i]:.2e}")
    return I, E, notes, (nodes, passes, len(row))


def _refuse_non_finite(kind: str, xis, vals) -> None:
    """Raise SummationError at the first non-finite vals[c, i], i-major, TM first."""
    bad = np.argwhere(~np.isfinite(vals.T))
    if len(bad):
        i, c = bad[0].tolist()
        pol = ("TM", "TE")[c]
        raise SummationError(
            f"non-finite {kind} integral at xi={xis[i]:.4e} ({pol})",
            diagnostics={"xi": float(xis[i]), "pol": pol},
        )


def _gregory(f) -> float:
    """Gregory's end correction Sum_{j<8} G_j Delta^j f_M from f = f_M..f_{M+7}."""
    correction = 0.0
    row = list(f)
    for g in _GREGORY[:8]:
        correction += g * row[0]
        row = [y - x for x, y in zip(row, row[1:])]
    return correction


def _gregory_next(f) -> float:
    """2 (|G_8 Delta^8 f_M| + |G_9 Delta^9 f_M|) from f = f_M..f_{M+9}.

    Twice the size of the next two terms past :func:`_gregory`'s
    correction: with both, a sign change of one of them cannot pass for
    convergence, and the omitted terms add up to as much as 1.63 times
    their size (tail sums of Ge/Drift, Si/Nonlocal and Ge/Conductivity at
    0.1 and 1 um and 3-18 K, against complete sums at quad_rel 1e-12).  The
    differences are binomial sums Sum_j (-1)^(k-j) C(k, j) f_{M+j} in
    j-order, written out: 0.5 us a call against 1.5 us for a loop over the
    C(k, j) on one Xeon core, and the head checks every n.
    """
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9 = f
    d8 = (f0 - 8.0 * f1 + 28.0 * f2 - 56.0 * f3 + 70.0 * f4 - 56.0 * f5 + 28.0 * f6
          - 8.0 * f7 + f8 + 0.0 * f9)
    d9 = (-f0 + 9.0 * f1 - 36.0 * f2 + 84.0 * f3 - 126.0 * f4 + 126.0 * f5 - 84.0 * f6
          + 36.0 * f7 - 9.0 * f8 + f9)
    return 2.0 * (abs(_GREGORY[8] * d8) + abs(_GREGORY[9] * d9))


def _tail_grid(new):
    """(new, half-widths, v, v q, v (1 - q)) at the K21 x K21 nodes of cells new."""
    mid, half = 0.5 * (new[::2] + new[1::2]), 0.5 * (new[1::2] - new[::2])
    v = mid[0, :, None, None] + half[0, :, None, None] * _NODES[:, None]
    q = mid[1, :, None, None] + half[1, :, None, None] * _NODES
    return new, half, v, v * q, v * (1.0 - q)


@functools.lru_cache(maxsize=64)  # the tail's first grid, by its v-edges
def _tail_first_grid(edges: tuple):
    v = np.array(edges)
    grid = _tail_grid(np.stack((v[:-1], v[1:], 0.0 * v[1:], 1.0 + 0.0 * v[1:])))
    for x in grid:
        x.flags.writeable = False
    return grid


def _tail_integral(kind: str, d: float, s0s, pairs, quad_rel: float):
    """J = Int_{s0}^oo F(s) ds over s0 <= s <= u in polar form (energy)::

        J = Int_0^45 dv u v Int_0^1 dq Sum_p ln(1 - Q)    (pressure: u^2 v Q/(1 - Q))

    u = s0 + v, s = s0 + v q, xi = s c/(2 d), k = sqrt(v (1 - q) (2 s0 + v (1 + q)))/(2 d)
    (Lifshitz, Sov. Phys. JETP 2, 73, 1956); v > 45 adds below exp(-45).
    Each cell is a K21 x K21 rule, its error the G-K error in v plus the
    q-rules' errors under the v-weights; a pass's new cells are one integrand
    call per column j, from s0s[j] with pairs[j].  The columns share the cells.
    They start on the v-panels _TAIL_PANELS, the first halved while wider than
    8 min(s0s) (F is not analytic at s = 0) unless min(s0s) < sqrt(eps), where
    that is below roundoff (halved at 1e-200 K, k^2 and (xi/c)^2 underflowed to
    0/0), with q in [0, 1].  While a column's summed error exceeds quad_rel
    |J|, each cell above its share in any column splits in v or in q, whichever
    part of the error is larger in the column furthest above its share; a
    q-split at q = 0 cuts at 1/8, as where r_TM -> 1 (xi < 4 pi sigma0/eps0)
    the integrand varies on the scale s0/v there (188k nodes over 20
    Conductivity tails, 331k halved).  Non-finite nodes are refused; a rule
    that cannot split or has _TAIL_CELL_LIMIT cells stops with a note for each
    column above its target.  The first pass's nodes depend on s0 only through
    the halvings and are cached per layout, and the cell table is built only if
    that pass fails: such a pass (1,764 nodes) costs 180 us, 225 us building
    both (one Xeon core).  Returns (J, errors, notes) per column and (nodes,
    passes, cells) of one column.
    """
    first, s_min = _TAIL_PANELS[1], min(s0s)
    halvings = max(math.ceil(math.log2(first / (8.0 * s_min))), 0) if s_min > _EPS ** 0.5 else 0
    edges = (0.0,) + tuple(first * 0.5 ** h for h in range(halvings, 0, -1)) + _TAIL_PANELS[1:]
    new, half, v, vq, t = _tail_first_grid(edges)
    cells = None  # v- and q-bounds, then each column's value, v- and q-error, once a pass fails
    nodes, passes = 0, 0
    while True:
        rows = []
        for s0, (pair1, pair2) in zip(s0s, pairs):
            s = s0 + vq
            xi = s * (phys.C_LIGHT / (2.0 * d))
            f = np.empty((2,) + s.shape)
            _integrand(kind, d, xi, s, t, pair1, pair2, f)
            if not np.isfinite(f).all():
                _refuse_non_finite(kind, xi.ravel(), f.reshape(2, -1))
            inner, inner_err = _kronrod(v * (f[0] + f[1]), half[1, :, None])
            rows += _kronrod(inner, half[0]) + (half[0] * (inner_err @ _W_KRONROD),)
        nodes, passes = nodes + f[0].size, passes + 1
        if cells is not None:
            cells = np.concatenate((cells, np.vstack((new, *rows))), axis=1)
            rows = cells[4:]
        err = [e_v + e_q for e_v, e_q in zip(rows[1::3], rows[2::3])]
        J, E = [float(x.sum()) for x in rows[0::3]], [float(x.sum()) for x in err]
        tol = [quad_rel * abs(x) for x in J]
        if all(x <= y for x, y in zip(E, tol)):
            return J, E, [[] for _ in s0s], (nodes, passes, len(err[0]))
        cells = np.vstack((new, *rows)) if cells is None else cells
        errs, tols = np.array(err), np.array(tol)[:, None]
        split = (errs * len(errs[0]) > tols).any(axis=0)
        if len(errs[0]) >= _TAIL_CELL_LIMIT or not split.any():
            break
        va, vb, qa, qb = cells[:4, split]
        # the column furthest above its target picks the cut
        worst = (errs[:, split] / np.maximum(tols, 1.0e-300)).argmax(axis=0)
        in_v = (cells[5::3, split] > cells[6::3, split])[worst, np.arange(len(worst))]
        cut_v = np.where(in_v, 0.5 * (va + vb), vb)
        cut_q = np.where(in_v, qb, np.where(qa == 0.0, 0.125 * qb, 0.5 * (qa + qb)))
        new, half, v, vq, t = _tail_grid(np.hstack((
            np.stack((va, cut_v, qa, cut_q)),
            np.stack((np.where(in_v, cut_v, va), vb, np.where(in_v, qa, cut_q), qb)))))
        cells = cells[:, ~split]
    notes = [[f"quadrature note in the Matsubara tail from s={s0:.4e}: stopped "
              f"at {len(err[0])} cells (limit {_TAIL_CELL_LIMIT}) with error "
              f"{e:.2e} above the target {x:.2e}"] if e > x else []
             for s0, e, x in zip(s0s, E, tol)]
    return J, E, notes, (nodes, passes, len(err[0]))


def _check_temperature(T: float) -> None:
    if not math.isfinite(T) or T < 0.0:
        raise DomainError(f"temperature must be finite and >= 0, got {T!r}")


class _Column:
    """One temperature's sum: its providers and weights, and its rows so far.

    Row n holds term n's TM and TE parts, their sum and, in a direct sum,
    the bound R(n); ``acc[n + 1]`` and ``quad_err[n + 1]`` run through row n.
    """

    __slots__ = ("T", "pair_fns", "coef", "a", "tm", "te", "terms", "bound", "acc",
                 "quad_err", "notes", "warnings")

    def __init__(self, kind: str, geom: Geometry, T: float):
        _check_temperature(T)
        d, xi1 = geom.d, phys.matsubara_xi(1, T) if T else 0.0
        self.a = 2.0 * d * xi1 / phys.C_LIGHT
        self.coef = phys.K_B * T / (8.0 * math.pi * d * d)
        if kind == "pressure":
            self.coef /= d
        # a subnormal one loses digits (kB T: P at 1 um off by 1.7e-6 at 1e-302 K)
        factors = (phys.K_B * T, self.a, self.coef)
        if T and not min(factors) >= sys.float_info.min:  # before the providers
            raise DomainError(f"T = {T!r} K, d = {d} cm: kB T, a, coef {factors} not all normal")
        self.T, self.pair_fns = T, _pair_fns(geom, T)
        self.tm, self.te, self.terms, self.bound, self.notes = [], [], [], [], []
        self.acc, self.quad_err = [0.0], [0.0]
        self.warnings = ((f"T = {T} K outside material-model validity (0, {T_VALID_MAX}] K",)
                         if T > T_VALID_MAX else ())

    def add(self, tm, te, err, notes, bound) -> None:
        """Append a block's rows; ``notes`` maps a block row to its texts."""
        n0, terms = len(self.terms), list(map(operator.add, te, tm))  # TE + TM
        self.tm += tm
        self.te += te
        self.terms += terms
        self.bound += bound
        # from the last running value, in row order: the bits of a running +=
        self.acc.extend(accumulate(terms, initial=self.acc.pop()))
        self.quad_err.extend(accumulate(err, initial=self.quad_err.pop()))
        if notes:
            self.notes += [(n0 + i, notes[i]) for i in sorted(notes)]

    def met(self, n: int, head: bool, sum_rel: float) -> bool:
        """The stop test at row n: Gregory's estimate in a head, R(n) in a direct sum."""
        if head:  # Gregory's formula at M = n - 9 reads f_M..f_n
            return (n >= _HEAD_MIN + 9 and _gregory_next(self.terms[n - 9:n + 1])
                    <= 0.5 * sum_rel * abs(self.acc[n + 1]))
        return n >= 1 and self.bound[n] <= sum_rel * abs(self.acc[n + 1])

    def result(self, m: int, n: int, value: float, quad_err: float, trunc: float,
               stats: SumStats, remainder: float = 0.0, tail_notes=()) -> SummationResult:
        """The sum with terms n < m, stopped at row n: the notes of rows past it are dropped."""
        kept = [text for i, texts in self.notes if i <= n for text in texts]
        return SummationResult(value, tuple(zip(range(m), self.te, self.tm)), m - 1, quad_err,
                               trunc, (*self.warnings, *kept, *tail_notes), stats, remainder)


def _passivity_tail(kind: str, a, ns):
    """R(N)/coef at N = ns: the module notes' bounds on the terms n > N, each
    denominator taken at x_{N+1}, summed in closed form; g = 1/(exp(a) - 1)."""
    x, g = (ns + 1.0) * a, 1.0 / np.expm1(a)
    p = x + 1.0 + a * g  # energy; the pressure's sum is p^2 + 1 + a^2 g (1 + g)
    if kind == "pressure":
        p = p * p + 1.0 + a * a * g * (1.0 + g)
    return 2.0 * p * np.exp(-x) / (np.expm1(-a) * np.expm1(-x))


def _matsubara_sums(kind: str, geom: Geometry, Ts, tolerances: Optional[Tolerances]) -> tuple:
    """The sums at the temperatures Ts, one column each, walked together."""
    tol = tolerances if tolerances is not None else _DEFAULT_TOLERANCES
    d, sum_rel = geom.d, tol.sum_rel
    if not Ts:
        raise DomainError("no temperature to sum at")
    columns = [_Column(kind, geom, T) for T in Ts]
    if 0.0 in Ts:  # the head is empty: the tail from s = 0 is the whole sum
        if len(Ts) > 1:
            raise DomainError(f"T = 0 is summed alone, not among {Ts!r}")
        return _tail_sums(kind, d, columns, -1, (0, 0, 0, 0), tol.quad_rel)
    i_low = Ts.index(min(Ts))
    low = columns[i_low]  # its terms decay the slowest: it sets the layout
    pairs = [col.pair_fns for col in columns]
    counts = [0, 0, 0, 0]  # terms computed, nodes, passes, panels
    # a sum expected to outlast one head block and the _TAIL_TERMS terms
    # the tail's first pass is worth walks its "head" in blocks, and ends in
    # the tail once the next terms of Gregory's correction are small; it is
    # expected to run to the n where exp(-2 d xi_n / c) falls below sum_rel.
    # The threshold counts nodes; it was set so low when the direct walk ended
    # 2.5-4 sum_rel short of the complete sum at 94-168 terms.
    # The nernst point at 40 K: head and tail take 0.71 of a walk's time (one Xeon core)
    head = (math.log(1.0 / sum_rel) * phys.C_LIGHT / (2.0 * d * phys.matsubara_xi(1, low.T))
            > _HEAD_BLOCK + 1 + _TAIL_TERMS)
    # the first head block reaches 10 terms past M_s, where Gregory's stop is
    # met by a summand F0 exp(-a n) with acc = F0/a, or past n = 30 for the
    # s^2 ln s regime near s = 0; over 1,920 tail sums M ran at most 1 past
    # max(M_s, 30) for energies and 5 for pressures, which take one more block
    log_f = math.log(4.0 * abs(_GREGORY[8]) / sum_rel) + 9.0 * math.log(low.a)  # a^9 underflows
    m_s = math.ceil(max(log_f / low.a, 30.0))  # a -inf M_s takes the floor
    n_next, stop = 0, None
    others = [col for col in columns if col is not low]
    T_col, coef_col, a_col = np.array([(col.T, col.coef, col.a) for col in columns]).T[..., None]
    while stop is None:
        size = _BLOCK_MAX + (n_next == 0)
        if head:
            size = min(_HEAD_BLOCK, m_s + 10) + 1 if n_next == 0 else _HEAD_NEXT
        ns = np.arange(n_next, n_next + size, dtype=float)
        bounds = ((),) * len(columns)
        if not head:  # up to the lowest temperature's stop for its |acc| (coef/a before any term)
            bound = coef_col * _passivity_tail(kind, a_col, ns)
            target = sum_rel * (abs(low.acc[-1]) if n_next else low.coef / low.a)
            size = max(np.count_nonzero(bound[i_low] > target), n_next == 0) + 1  # R falls with n
            ns, bounds = ns[:size], bound[:, :size].tolist()
        xis = 2.0 * math.pi * ns * phys.K_B * T_col / phys.HBAR
        vals, errs, notes, work = _block_integrals(kind, d, xis, pairs, tol.quad_rel)
        counts = [c + w for c, w in zip(counts, (len(ns),) + work)]
        wc = np.where(ns == 0.0, 0.5 * coef_col, coef_col)  # the n = 0 half-weight
        for col, *rows in zip(columns, *(wc * vals).tolist(),
                              (wc * (errs[0] + errs[1])).tolist(), notes, bounds):
            col.add(*rows)
        # the joint stop: the first n where every column's test holds, tried
        # first on the lowest temperature, whose terms decay the slowest
        for n in range(n_next, n_next + len(ns)):
            if low.met(n, head, sum_rel) and all([col.met(n, head, sum_rel) for col in others]):
                stop = n
                break
        n_next += len(ns)

    if not head:
        return tuple([col.result(n + 1, n, col.acc[n + 1], col.quad_err[n + 1], col.bound[n],
                                 SumStats(n + 1, *counts)) for col in columns])
    return _tail_sums(kind, d, columns, n, counts, tol.quad_rel)


def _tail_sums(kind: str, d: float, columns, n: int, counts, quad_rel: float) -> tuple:
    """Each column's terms below m = n - 9, n the head's stop row, plus its
    tail from m; ``counts`` is the head's work (terms computed, nodes,
    passes, panels).  At T = 0, n = -1 and m = 0: the tail is the sum."""
    m = max(n - 9, 0)
    # Sum_{n >= M} f(n) = (1/a) Int_{s_M}^oo F(s) ds + Gregory's correction,
    # with s = 2 d xi / c = a n and F the summand at xi = s c / (2 d)
    J, J_err, tail_notes, (nodes, passes, cells) = _tail_integral(
        kind, d, [m * col.a for col in columns], [col.pair_fns for col in columns], quad_rel)
    stats = SumStats(m, counts[0], counts[1] + nodes, counts[2] + passes, counts[3] + cells, nodes)
    results = []
    for col, j, j_err, notes_j in zip(columns, J, J_err, tail_notes):
        # coef/a, or at T = 0 its limit hbar c/(32 pi^2 d^3) (pressure: d^4)
        per_s = col.coef / col.a if col.a else phys.HBAR * phys.C_LIGHT / (
            32.0 * math.pi**2 * d**3 * (d if kind == "pressure" else 1.0))
        remainder, trunc = (_gregory(col.terms[m:m + 8]), _gregory_next(col.terms[m:n + 1])
                            ) if m else (0.0, 0.0)
        remainder += per_s * j
        results.append(col.result(m, n, col.acc[m] + remainder, col.quad_err[n + 1] + per_s * j_err,
                                  trunc, stats, remainder, notes_j))
    return tuple(results)


# --- public operations ------------------------------------------------------------

def free_energy_per_area(geom: Geometry, T: float,
                         tolerances: Optional[Tolerances] = None
                         ) -> SummationResult:
    """Casimir-Lifshitz free energy per area [erg/cm^2] (negative, binding), T >= 0."""
    return _matsubara_sums("energy", geom, (T,), tolerances)[0]


def free_energies(geom: Geometry, temperatures,
                  tolerances: Optional[Tolerances] = None) -> tuple:
    """Free energies per area [erg/cm^2] at several temperatures, from one walk.

    The sums share the lowest temperature's layout and one stop (see the
    module notes); one temperature gives ``free_energy_per_area``'s result.  A 0
    among several temperatures is a DomainError: T = 0 has no terms to share.
    """
    return _matsubara_sums("energy", geom, tuple(temperatures), tolerances)


def pressure(geom: Geometry, T: float,
             tolerances: Optional[Tolerances] = None) -> SummationResult:
    """Casimir-Lifshitz pressure [dyn/cm^2]; positive = attraction; T >= 0.

    Equals the d-derivative of the free energy per area.
    """
    return _matsubara_sums("pressure", geom, (T,), tolerances)[0]


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
