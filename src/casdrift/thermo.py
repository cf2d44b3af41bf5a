"""Entropy S(T) = -d(E/A)/dT and the numerical Nernst-theorem checks.

The entropy is obtained by central finite differences of the full free
energy with Richardson extrapolation over step sizes (h, h/2), so ALL
temperature dependence is captured at once: the explicit Matsubara grid and
the implicit dependence of the reflection amplitudes through the material
state (carrier density, screening, relaxation).  The four free energies,
at T +- h and T +- h/2, are one engine call
(:func:`~casdrift.lifshitz.free_energies`): they share the lowest
temperature's blocks, panels and tail cells, and one stop, so the differences
carry no change of mesh, and the call takes a quarter of the passes of
four separate sums.  Analytic low-temperature
decompositions are deliberately not implemented; sweeps report the Nernst
statement as a trend, and the test suite holds bare and drift plates to
E(T) - E(0) -> C T^3, C = -zeta(3) (eps0 - 1)^2 kB^3/(4 pi (eps0 + 1) (hbar c)^2),
so S -> 3 |C| T^2, with E(0) = ``free_energy_per_area(geom, 0.0)``.  The
test suite also probes the mode function near xi = 0 at fixed k (TE
vanishes as xi^2 with a negative coefficient, TM rises linearly in xi).
The reflection models are those bound on the geometry's plates.

Entropy evaluations default to tighter engine tolerances than plain energy
runs: the finite difference divides the free-energy noise by the step, and
low-temperature entropies are small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError
# free_energy_per_area stays in this namespace: bench/tracer.py patches it here
from .lifshitz import Geometry, Tolerances, free_energies, free_energy_per_area  # noqa: F401

__all__ = [
    "EntropyPoint",
    "NernstReport",
    "entropy",
    "nernst_sweep",
]

ENTROPY_TOL = Tolerances(quad_rel=1.0e-10, sum_rel=1.0e-12)


@dataclass(frozen=True)
class EntropyPoint:
    """S = -dE/dT at one temperature [erg/(cm^2 K)] with its error estimate."""

    T: float
    S: float
    fd_step: float
    richardson_error: float
    warnings: tuple = ()


@dataclass(frozen=True)
class NernstReport:
    """Entropy sweep plus the monotonicity/sign diagnostics."""

    points: tuple
    monotone_abs_decreasing: bool   # |S| decreasing toward low T (T <= 75 K)
    s_ratio_low_to_high: float      # |S(T_min)| / |S(T_max)|


def entropy(geom: Geometry, T: float,
            fd_step: Optional[float] = None,
            tolerances: Optional[Tolerances] = None) -> EntropyPoint:
    """Entropy per area from Richardson-extrapolated central differences.

    Uses steps h and h/2 (default h = T/20), with the four free energies
    summed together on one layout; the returned ``richardson_error`` is the
    difference of the two estimates divided by 3 (the leading-order error
    of the finer one).  A warning is attached when that estimate exceeds
    |S| itself.
    """
    if fd_step is None:
        fd_step = T / 20.0
    if not (fd_step > 0.0) or T - 2.0 * fd_step <= 0.0:
        raise DomainError(
            f"need T - 2 fd_step > 0 with fd_step > 0; got T={T}, fd_step={fd_step}"
        )
    tol = tolerances if tolerances is not None else ENTROPY_TOL

    h1, h2 = fd_step, 0.5 * fd_step
    sums = free_energies(geom, (T + h1, T - h1, T + h2, T - h2), tolerances=tol)
    warnings = []
    for res in sums:
        warnings.extend(w for w in res.warnings if w not in warnings)
    e1p, e1m, e2p, e2m = (res.value for res in sums)
    d1 = (e1p - e1m) / (2.0 * h1)
    d2 = (e2p - e2m) / (2.0 * h2)
    dEdT = (4.0 * d2 - d1) / 3.0
    S = -dEdT
    rich_err = abs(d2 - d1) / 3.0
    if rich_err > abs(S) and rich_err > 0.0:
        warnings.append(
            f"entropy precision warning at T={T} K: Richardson error "
            f"{rich_err:.3e} exceeds |S| = {abs(S):.3e}"
        )
    return EntropyPoint(T=T, S=S, fd_step=fd_step,
                        richardson_error=rich_err, warnings=tuple(warnings))


def nernst_sweep(geom: Geometry, T_list: Sequence[float],
                 tolerances: Optional[Tolerances] = None) -> NernstReport:
    """Entropy at each temperature with shared settings, plus diagnostics.

    ``monotone_abs_decreasing`` checks that |S| decreases with T over the
    sweep's temperatures at or below 75 K (sorted descending), the
    desk-scale version of the Nernst trend.
    """
    pts = [entropy(geom, t, tolerances=tolerances) for t in T_list]
    low = sorted((pt for pt in pts if pt.T <= 75.0), key=lambda pt: -pt.T)
    monotone = all(abs(a.S) > abs(b.S) for a, b in zip(low, low[1:]))
    by_T = sorted(pts, key=lambda pt: pt.T)
    ratio = math.inf
    if by_T and abs(by_T[-1].S) > 0.0:
        ratio = abs(by_T[0].S) / abs(by_T[-1].S)
    return NernstReport(points=tuple(pts),
                        monotone_abs_decreasing=monotone,
                        s_ratio_low_to_high=ratio)
