"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Every tolerance is pinned here; nothing is deferred to later calibration.
Each bound asks no more than the source's own anchors can deliver: a
quoted value is held to the precision it is quoted with, and a qualitative
claim ("Si stays flat while Ge rises") is checked as the contrast the
paper shows, with the exact numbers frozen in ``test_lifshitz.py``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time

from casdrift import phys
from casdrift.cli import main as cli_main
from casdrift.config import parse_model
from casdrift.lifshitz import (
    Geometry,
    Tolerances,
    free_energy_per_area,
    pressure,
    ratio_to_bare,
)
from casdrift.materials import (
    BUILTIN,
    GE,
    SI,
    band_gap,
    bare_eps,
    material_state,
    relaxation_time,
)
from casdrift.reflection import Bare, Drift, IdealMetal, amplitude_fn
from casdrift.spatial import verify_equivalence
from casdrift.thermo import nernst_sweep

from conftest import logspace, neville_to_zero, rel
from oracles import (
    Mode,
    drift_quantities,
    full_drift_tensor,
    g_probe,
    h_integrals,
    h_integrals_quadrature,
    ideal_metal_n0_tm_energy,
    n0_swapped_energy,
    pc_n0_ratio_asymptote,
    r_oracle_bc,
    zero_carrier,
)

XI1_300 = phys.matsubara_xi(1, 300.0)
UM = phys.CM_PER_UM


def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def test_criterion_01_material_anchors():
    checks = [
        ("Ge E_g", band_gap(GE, 300.0), 0.66, 5e-3),
        ("Ge tau", relaxation_time(GE, 300.0), 3.9e-12, 2e-2),
        ("Si E_g", band_gap(SI, 300.0), 1.12, 5e-3),
        ("Si tau", relaxation_time(SI, 300.0), 0.5e-12, 5e-2),
    ]
    bad = [f"{name}: {got:.4g} vs {want:.4g}"
           for name, got, want, tol in checks if rel(got, want) > tol]
    report("1 (material anchors: gaps and relaxation times)", not bad,
           "; ".join(bad))
    assert not bad


def test_criterion_01_ge_nc_anchor():
    # The fitted prefactor gives n_c(300 K) = 1.98e15 * 300^1.5 = 1.029e19;
    # the anchor 1.0e19 is quoted to two significant figures, so it promises
    # only +-0.05e19 (+-5%).  Hold n_c to exactly that precision.
    n_c = GE.nc_prefactor * 300.0**1.5
    ok = abs(n_c - 1.0e19) < 0.05e19
    report("1 (Ge n_c anchor, 1.0e19 to 2 significant figures)", ok,
           f"n_c(300K) = {n_c:.4g}, rounds to {n_c:.1e}")
    assert ok, (
        f"n_c(300 K) = {n_c:.4g} does not round to the quoted 1.0e19 at two "
        "significant figures"
    )


def test_criterion_02_debye_radii():
    r_ge = material_state(GE, 300.0).R_D / UM
    r_si = material_state(SI, 300.0).R_D / UM
    ok = 0.55 <= r_ge <= 0.85 and 16.0 <= r_si <= 36.0
    report("2 (Debye radii)", ok, f"Ge {r_ge:.3f} um, Si {r_si:.1f} um")
    assert ok


def test_criterion_03_static_limits():
    # r_TE(0) = 0 exactly, every model, across k
    models = [Bare(), parse_model("cond", GE, None), Drift()]
    te_ok = all(
        amplitude_fn(m, GE, 300.0)(0.0, k)[1] == 0.0
        for m in models for k in logspace(1e2, 1e6, 9))
    # drift r_TM(xi -> 0) extrapolated along xi = 10^-m xi_1 matches the
    # screened static form over k in [1e2, 1e6]
    pair = amplitude_fn(Drift(), GE, 300.0)
    ms = (4, 5, 6, 7)
    worst = 0.0
    for k in logspace(1e2, 1e6, 13):
        seq = [pair(XI1_300 * 10.0**-m, k)[0] for m in ms]
        limit = neville_to_zero([10.0**-m for m in ms], seq)
        worst = max(worst, rel(limit, pair(0.0, k)[0]))
    ok = te_ok and worst <= 1e-8
    report("3 (static-limit identities)", ok,
           f"TE zeros {te_ok}, TM limit worst rel {worst:.2e}")
    assert ok


def test_criterion_04_ideal_dielectric_reduction():
    spec = zero_carrier(GE)
    pair_d = amplitude_fn(Drift(), spec, 300.0)
    pair_b = amplitude_fn(Bare(), spec, 300.0)
    worst = 0.0
    for k in logspace(1e2, 1e6, 20):
        for xi in logspace(1e-3 * XI1_300, 1e3 * XI1_300, 20):
            rd, rb = pair_d(xi, k), pair_b(xi, k)
            worst = max(worst, rel(rd[0], rb[0]), rel(rd[1], rb[1]))
    ok = worst <= 1e-10
    report("4 (ideal-dielectric reduction)", ok, f"worst rel {worst:.2e}")
    assert ok


def test_criterion_05_boundary_condition_oracle():
    rng = random.Random(1859)
    st = material_state(GE, 300.0)
    pair = amplitude_fn(Drift(), GE, 300.0)
    worst = 0.0
    for _ in range(50):
        k = 10.0 ** rng.uniform(2, 6)
        xi = XI1_300 * 10.0 ** rng.uniform(-3, 3)
        eps = bare_eps(GE, xi)
        mode = Mode(xi=xi, k=k)
        dq = drift_quantities(mode, st, eps)
        rtm_o, rte_o = r_oracle_bc(mode, dq.eta_L, dq.eta_T, eps)
        rtm_c, rte_c = pair(xi, k)
        worst = max(worst, rel(rtm_o, rtm_c), rel(rte_o, rte_c))
    ok = worst <= 1e-9
    report("5 (boundary-condition oracle)", ok, f"worst rel {worst:.2e}")
    assert ok


def test_criterion_06_nonlocal_equivalence():
    t0 = time.monotonic()
    _, max_rel = verify_equivalence(GE, 300.0, n_k=20, n_xi=20)
    tensor = full_drift_tensor(GE, 300.0)
    worst_h = 0.0
    for k in (1e3, 3e4, 1e6):
        for xi in (0.03 * XI1_300, XI1_300, 40 * XI1_300):
            a = h_integrals(tensor, Mode(xi=xi, k=k))
            b = h_integrals_quadrature(tensor, Mode(xi=xi, k=k))
            worst_h = max(worst_h, rel(b.h_a, a.h_a), rel(b.h_b, a.h_b),
                          rel(b.h_c, a.h_c))
    ok = max_rel <= 1e-8 and worst_h <= 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report("6 (nonlocal equivalence)", ok,
           f"amplitudes {max_rel:.2e}, h-integrals {worst_h:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_07_lifshitz_engine():
    d = 1e-4
    tight = Tolerances(quad_rel=1e-10, sum_rel=1e-12)
    geom_pc = Geometry.identical(d, GE, IdealMetal())
    n0_tm = free_energy_per_area(geom_pc, 300.0, tolerances=tight).per_n_terms[0][2]
    rel_zeta = rel(n0_tm, ideal_metal_n0_tm_energy(d, 300.0))

    geom = Geometry.identical(d, GE, Drift())
    p = pressure(geom, 300.0, tolerances=tight).value
    h = d / 1000.0
    ep = free_energy_per_area(Geometry.identical(d + h, GE, Drift()), 300.0,
                              tolerances=tight).value
    em = free_energy_per_area(Geometry.identical(d - h, GE, Drift()), 300.0,
                              tolerances=tight).value
    rel_dd = rel(p, (ep - em) / (2 * h))
    ok = rel_zeta <= 1e-8 and rel_dd <= 1e-5
    report("7 (Lifshitz engine)", ok,
           f"zeta(3) term rel {rel_zeta:.2e}, pressure-vs-dE/dd rel {rel_dd:.2e}")
    assert ok


def _fig1_csv(path, material):
    rc = cli_main(["fig1", "--material", material, "--T", "300",
                   "--d", "0.1:10:log25", "--out", str(path)])
    assert rc == 0
    return path.read_bytes()


def test_criterion_08a_si_flat_ge_rises():
    # "Si flat" is the contrast the paper shows: at each d, Si's drift
    # correction is at most a tenth of Ge's and stays below the 1e-2 line
    # used to call Ge risen.  The exact Si value is frozen in
    # test_lifshitz.py.
    si_dev, ge_dev = {}, {}
    for d_um in (0.25, 0.5, 1.0):
        for spec, dev in ((SI, si_dev), (GE, ge_dev)):
            geom = Geometry.identical(d_um * UM, spec, Drift())
            dev[d_um] = abs(ratio_to_bare(geom, 300.0) - 1.0)
    ge_2um = ratio_to_bare(Geometry.identical(2.0 * UM, GE, Drift()), 300.0)
    si_ok = all(si_dev[d] <= 0.1 * ge_dev[d] and si_dev[d] < 1e-2
                for d in si_dev)
    ge_ok = ge_2um > 1.01
    detail = ("Si/Ge |ratio-1|: " +
              ", ".join(f"{d}um {si_dev[d]:.2e}/{ge_dev[d]:.2e}"
                        for d in si_dev) +
              f"; Ge ratio(2um) {ge_2um:.4f}")
    report("8a (Si |ratio-1| <= Ge/10 and < 1e-2 for d <= 1um; "
           "Ge > 1.01 by 2um)", si_ok and ge_ok, detail)
    assert ge_ok
    assert si_ok, (
        "Si drift correction is not small against Ge's: " +
        ", ".join(f"d = {d} um: Si {si_dev[d]:.3e} vs Ge {ge_dev[d]:.3e}"
                  for d in si_dev) +
        ". Si's Debye radius (criterion 2: 16-36 um) should keep its "
        "correction under a tenth of Ge's (R_D ~ 0.76 um) and below 1e-2. "
        "(No fixed 1e-3 band is used: Si at 1 um gives 1.9e-3 at R_D = "
        "31 um, and 1e-3 would need R_D >= ~48 um, outside criterion 2; "
        "dropping the electron+hole doubling gives 1.13e-3 at R_D = 44 um.)"
    )


def test_criterion_08b_ge_approaches_pc_asymptote():
    geom = Geometry.identical(15.0 * UM, GE, Drift())
    r = ratio_to_bare(geom, 300.0)
    asym = pc_n0_ratio_asymptote(geom, 300.0)
    ok = abs(r - asym) <= 0.05 * asym
    report("8b (Ge ratio near pc asymptote at 15um)", ok,
           f"ratio {r:.4f} vs asymptote {asym:.4f}")
    assert ok


def test_criterion_08c_cond_material_independence_at_20um():
    # at d = 20 um >> lambda_T both cond-model free energies collapse onto
    # the material-independent perfectly-conducting n = 0 TM term, and each
    # ratio curve has converged to its own perfect-conductor asymptote
    out = {}
    for name in ("Ge", "Si"):
        spec = BUILTIN[name]
        geom = Geometry.identical(20.0 * UM, spec, parse_model("cond", spec, None))
        e_cond = free_energy_per_area(geom, 300.0).value
        e_bare = free_energy_per_area(Geometry.identical(20.0 * UM, spec, Bare()), 300.0).value
        out[name] = (e_cond, e_cond / e_bare, pc_n0_ratio_asymptote(geom, 300.0))
    e_rel = rel(out["Ge"][0], out["Si"][0])
    sat = {n: rel(out[n][1], out[n][2]) for n in out}
    ok = e_rel <= 0.02 and all(v <= 0.02 for v in sat.values())
    report("8c (cond material independence at 20um)", ok,
           f"E_cond(Ge) vs E_cond(Si) rel {e_rel:.2e}; "
           f"saturation Ge {sat['Ge']:.2e}, Si {sat['Si']:.2e}")
    assert ok


def test_criterion_09_single_mode_claim():
    worst = 0.0
    for spec in (GE, SI):
        for d_um in (0.5, 1.0, 3.0, 10.0):
            geom = Geometry.identical(d_um * UM, spec, Drift())
            full = free_energy_per_area(geom, 300.0).value
            hybrid = n0_swapped_energy(geom, 300.0, Drift())
            worst = max(worst, abs(hybrid - full) / abs(full))
    ok = worst < 1e-3
    report("9 (only n=0 TM modified)", ok, f"worst rel change {worst:.2e}")
    assert ok


def test_criterion_10_nernst_trend_and_probes():
    t0 = time.monotonic()
    geom = Geometry.identical(1e-4, GE, Drift())
    rep = nernst_sweep(geom, [300.0, 75.0, 40.0, 20.0, 10.0])
    mags = {pt.T: abs(pt.S) for pt in rep.points}
    monotone = mags[75.0] > mags[40.0] > mags[20.0] > mags[10.0]
    small = mags[10.0] < 0.05 * mags[300.0]

    pr_te = g_probe("TE", 1e4, geom, 300.0)
    pr_tm = g_probe("TM", 1e4, geom, 300.0)
    h0 = 1e-4 * XI1_300
    te_zero = abs(pr_te.g_xi) <= abs(pr_te.g_xixi) * h0 + 1e-24
    tm_pos = pr_tm.g_xi > 0.0

    elapsed = time.monotonic() - t0
    ok = monotone and small and te_zero and tm_pos and elapsed < 600.0
    report("10 (Nernst trend + probes)", ok,
           f"|S| monotone {monotone}, |S(10)|/|S(300)| "
           f"{mags[10.0] / mags[300.0]:.2e}, TE g_xi~0 {te_zero}, "
           f"TM g_xi>0 {tm_pos}, {elapsed:.1f}s")
    assert ok


def test_criterion_11_determinism(tmp_path):
    t0 = time.monotonic()
    b1 = _fig1_csv(tmp_path / "run1.csv", "Ge")
    elapsed = time.monotonic() - t0   # one full fig1 sweep, criterion 8 budget
    b2 = _fig1_csv(tmp_path / "run2.csv", "Ge")
    ok = b1 == b2 and elapsed < 300.0
    report("11 (byte-identical reruns)", ok,
           f"{len(b1)} bytes, fig1 sweep {elapsed:.1f}s")
    assert ok
