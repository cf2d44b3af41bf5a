import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casdrift import lifshitz, phys
from casdrift.config import parse_model
from casdrift.errors import DomainError, NormalizationError, SummationError
from casdrift.lifshitz import (
    Geometry,
    Plate,
    SumStats,
    Tolerances,
    free_energy_per_area,
    g_mode,
    pressure,
    ratio_to_bare,
)
from casdrift.materials import GE, SI, SellmeierPermittivity, material_state
from casdrift.reflection import (
    Bare, Conductivity, Drift, IdealMetal, Nonlocal, amplitude_fn)
from casdrift.thermo import ENTROPY_TOL

from conftest import assert_close
from oracles import (
    ZETA3,
    complete_matsubara_sum,
    gregory_next_loop,
    ideal_metal_energy,
    ideal_metal_n0_tm_energy,
    ideal_metal_n0_tm_pressure,
    ideal_metal_pressure,
    n0_swapped_energy,
    pc_n0_ratio_asymptote,
    term_integrals_quad,
)

D_1UM = 1e-4
TIGHT = Tolerances(quad_rel=1e-10, sum_rel=1e-12)
MODEL_NAMES = ("bare", "cond", "drift", "nonlocal")
PLATE_MODELS = MODEL_NAMES + ("ideal",)


def plate_model(name, spec):
    return IdealMetal() if name == "ideal" else parse_model(name, spec, None)

# Frozen reference values for the full drift free energy / pressure at
# d = 1 um, T = 300 K, computed with an independent 30-digit brute-force
# evaluation (mpmath quadrature of the u-integrals, 25-digit sum cutoff)
# of the screened amplitudes written out from scratch.
GE_E_1UM_300K = -1.7391057752612807e-07
GE_P_1UM_300K = 0.0048425162233642895
SI_E_1UM_300K = -1.4013744829266957e-07


def test_zeta3_brute_force_oracle():
    # the analytic anchor itself: Int_0^inf u ln(1 - e^-u) du = -zeta(3)
    mp.mp.dps = 30
    val = mp.quad(lambda u: u * mp.log(1 - mp.e**-u), [0, 1, 5, 40])
    assert_close(float(val), -float(mp.zeta(3)), 1e-12)
    assert_close(ZETA3, float(mp.zeta(3)), 1e-15)


class TestIdealMetalAnchors:
    def test_n0_tm_energy_term(self):
        geom = Geometry.identical(D_1UM, GE, IdealMetal())
        res = free_energy_per_area(geom, 300.0, tolerances=TIGHT)
        n0_tm = res.per_n_terms[0][2]
        assert_close(n0_tm, ideal_metal_n0_tm_energy(D_1UM, 300.0), 1e-8)
        assert res.per_n_terms[0][1] == 0.0  # TE vanishes at xi = 0

    def test_n0_tm_pressure_term(self):
        geom = Geometry.identical(D_1UM, GE, IdealMetal())
        res = pressure(geom, 300.0, tolerances=TIGHT)
        assert_close(res.per_n_terms[0][2],
                     ideal_metal_n0_tm_pressure(D_1UM, 300.0), 1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=50.0, max_value=200.0),
           st.floats(min_value=0.3, max_value=3.0),
           st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=0.5, max_value=2.0))
    def test_n0_tm_term_scales_as_T_over_d_power(self, T, d_um, a, b):
        # the n = 0 TM integral depends on neither T nor d, so the term
        # carries the prefactor's T/d^2 (energy) and T/d^3 (pressure)
        for op, power in ((free_energy_per_area, 2), (pressure, 3)):
            def n0_tm(T, d_um):
                geom = Geometry.identical(d_um * 1e-4, GE, IdealMetal())
                return op(geom, T).per_n_terms[0][2]
            assert_close(n0_tm(a * T, b * d_um), a / b**power * n0_tm(T, d_um),
                         1e-12, what=f"{op.__name__} T={T} d={d_um} a={a} b={b}")

    def test_analytic_forms(self):
        assert_close(ideal_metal_n0_tm_energy(D_1UM, 300.0),
                     -phys.K_B * 300.0 * ZETA3 / (16 * math.pi * D_1UM**2), 1e-15)


class TestFrozenOracleValues:
    def test_ge_drift_energy(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        res = free_energy_per_area(geom, 300.0, tolerances=TIGHT)
        assert_close(res.value, GE_E_1UM_300K, 1e-9)

    def test_ge_drift_pressure(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        res = pressure(geom, 300.0, tolerances=TIGHT)
        assert_close(res.value, GE_P_1UM_300K, 1e-9)

    def test_si_drift_energy(self):
        geom = Geometry.identical(D_1UM, SI, Drift())
        res = free_energy_per_area(geom, 300.0, tolerances=TIGHT)
        assert_close(res.value, SI_E_1UM_300K, 1e-9)


class TestPressureEnergyConsistency:
    def test_pressure_is_distance_derivative(self):
        # every model, both materials, d = 0.3, 1, 3 um, 300 and 77 K
        cases = [(name, spec, d, T) for name in MODEL_NAMES for spec in (GE, SI)
                 for d in (0.3e-4, D_1UM, 3e-4) for T in (300.0, 77.0)]
        for name, spec, d, T in cases:
            model = parse_model(name, spec, None)
            p = pressure(Geometry.identical(d, spec, model), T, tolerances=TIGHT).value
            h = d / 1000.0
            e_plus = free_energy_per_area(
                Geometry.identical(d + h, spec, model), T, tolerances=TIGHT)
            e_minus = free_energy_per_area(
                Geometry.identical(d - h, spec, model), T, tolerances=TIGHT)
            dEdd = (e_plus.value - e_minus.value) / (2 * h)
            assert_close(p, dEdd, 1e-5, what=f"{name} {spec.name} d={d} T={T}")


class TestShapeAndBookkeeping:
    def test_energy_negative_increasing_pressure_positive_decreasing(self):
        ds = [0.3e-4, 0.7e-4, 1.5e-4, 4e-4]
        es = [free_energy_per_area(Geometry.identical(d, GE, Drift()), 300.0).value
              for d in ds]
        ps = [pressure(Geometry.identical(d, GE, Drift()), 300.0).value
              for d in ds]
        assert all(e < 0 for e in es)
        assert all(a < b for a, b in zip(es, es[1:]))
        assert all(p > 0 for p in ps)
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_value_equals_sum_of_parts(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        res = free_energy_per_area(geom, 300.0)
        acc = 0.0
        for _, te, tm in res.per_n_terms:
            acc += te + tm
        assert res.value == acc

    def test_n0_half_weight_bookkeeping(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        res = free_energy_per_area(geom, 300.0)
        n0_term = res.per_n_terms[0][1] + res.per_n_terms[0][2]
        doubled = res.value + n0_term
        assert_close(doubled - res.value, n0_term, 1e-12)

    def test_out_of_range_temperature_warning(self):
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 405.0)
        assert any("validity" in w for w in res.warnings)
        clean = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0)
        assert not any("validity" in w for w in clean.warnings)

    def test_error_estimates_finite_and_reported(self):
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0)
        assert math.isfinite(res.quadrature_error_estimate)
        assert math.isfinite(res.truncation_error_estimate)
        assert res.n_truncated_at >= 4

    def test_tolerance_halving_within_reported_estimate(self):
        # every model, both materials, energy and pressure
        cases = [(name, spec, op, quad_rel) for name in MODEL_NAMES
                 for spec in (GE, SI) for op in (free_energy_per_area, pressure)
                 for quad_rel in (1e-6, 1e-8, 1e-10)]
        for name, spec, op, quad_rel in cases:
            geom = Geometry.identical(D_1UM, spec, parse_model(name, spec, None))
            a = op(geom, 300.0, tolerances=Tolerances(quad_rel, 1e-8))
            b = op(geom, 300.0, tolerances=Tolerances(0.5 * quad_rel, 1e-8))
            what = (name, spec.name, op.__name__, quad_rel)
            assert abs(a.value - b.value) <= a.quadrature_error_estimate + 1e-30, what

    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0, 300.0])
    def test_sum_rel_halving_within_reported_estimate(self, T):
        # at 0.1 K successive terms shrink by only rho = 0.99947, so the tail
        # past the stop is about 1/(1 - rho) times the last term
        geom = Geometry.identical(D_1UM, GE, Drift())
        a = free_energy_per_area(geom, T, tolerances=Tolerances(1e-10, 2e-12))
        b = free_energy_per_area(geom, T, tolerances=Tolerances(1e-10, 1e-12))
        assert abs(a.value - b.value) <= a.truncation_error_estimate

    def test_near_vacuum_plates_give_near_zero(self):
        ghost = replace(
            GE, permittivity=SellmeierPermittivity(
                eps0=1.0 + 1e-12, eps_inf=1.0, omega0=5e15),
            gap_E0=1e6, name="ghost")
        res = free_energy_per_area(Geometry.identical(D_1UM, ghost, Bare()), 300.0)
        ref = free_energy_per_area(Geometry.identical(D_1UM, GE, Bare()), 300.0)
        assert abs(res.value) < 1e-20 * abs(ref.value)

    def test_near_vacuum_pressure_near_zero(self):
        ghost = replace(
            GE, permittivity=SellmeierPermittivity(
                eps0=1.0 + 1e-12, eps_inf=1.0, omega0=5e15),
            gap_E0=1e6, name="ghost")
        res = pressure(Geometry.identical(D_1UM, ghost, Bare()), 300.0)
        ref = pressure(Geometry.identical(D_1UM, GE, Bare()), 300.0)
        assert abs(res.value) < 1e-20 * abs(ref.value)

    def test_dissimilar_plates(self):
        geom = Geometry(d=D_1UM, plate1=Plate(GE, Drift()), plate2=Plate(SI, Bare()))
        res = free_energy_per_area(geom, 300.0)
        assert res.value < 0
        e_ge = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0)
        e_si = free_energy_per_area(Geometry.identical(D_1UM, SI, Bare()), 300.0)
        assert abs(e_si.value) < abs(res.value) < abs(e_ge.value)

    def test_missing_model_is_an_error(self):
        geom = Geometry.identical(D_1UM, GE, None)
        with pytest.raises(DomainError):
            free_energy_per_area(geom, 300.0)

    def test_matsubara_cap_guidance(self):
        geom = Geometry.identical(0.5e-4, GE, Drift())
        with pytest.raises(SummationError, match="raise T"):
            free_energy_per_area(geom, 1e-3)


class TestNonlocalPlates:
    def test_nonlocal_sums_equal_drift(self):
        for spec in (GE, SI):
            for op in (free_energy_per_area, pressure):
                a = op(Geometry.identical(D_1UM, spec, Nonlocal()), 300.0, tolerances=TIGHT)
                b = op(Geometry.identical(D_1UM, spec, Drift()), 300.0, tolerances=TIGHT)
                assert_close(a.value, b.value, 1e-8, what=f"{spec.name} {op.__name__}")
                assert a.n_truncated_at == b.n_truncated_at

    def test_plate_swap(self):
        # the two-provider branch: Ge/Drift against Si/Nonlocal
        ge, si = Plate(GE, Drift()), Plate(SI, Nonlocal())
        for op in (free_energy_per_area, pressure):
            for d in (0.3e-4, D_1UM):
                a = op(Geometry(d, ge, si), 300.0).value
                b = op(Geometry(d, si, ge), 300.0).value
                assert_close(a, b, 1e-12, what=f"{op.__name__} d={d}")

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from((GE, SI)), st.sampled_from(PLATE_MODELS),
           st.sampled_from((GE, SI)), st.sampled_from(PLATE_MODELS),
           st.floats(min_value=0.3, max_value=3.0))
    def test_plate_swap_symmetry(self, spec1, model1, spec2, model2, d_um):
        p1 = Plate(spec1, plate_model(model1, spec1))
        p2 = Plate(spec2, plate_model(model2, spec2))
        d = d_um * 1e-4
        for op in (free_energy_per_area, pressure):
            a = op(Geometry(d, p1, p2), 300.0).value
            b = op(Geometry(d, p2, p1), 300.0).value
            assert_close(a, b, 1e-12, what=f"{op.__name__} {p1} | {p2} d={d_um} um")


class TestScalarQuadratureReference:
    def test_terms_match_scalar_quad(self):
        # every fourth term and the last, against one scalar quad per
        # polarization; both sides hold quad_rel = 1e-10
        mixed = Geometry(D_1UM, Plate(GE, Drift()), Plate(SI, Nonlocal()))
        cases = [
            (free_energy_per_area, "energy", Geometry.identical(D_1UM, GE, Drift()), 300.0),
            (free_energy_per_area, "energy", Geometry.identical(D_1UM, GE, IdealMetal()), 300.0),
            (free_energy_per_area, "energy", Geometry.identical(D_1UM, SI, Bare()), 20.0),
            (pressure, "pressure", mixed, 77.0),
        ]
        for op, kind, geom, T in cases:
            res = op(geom, T, tolerances=TIGHT)
            coef = phys.K_B * T / (8.0 * math.pi * geom.d**2)
            if kind == "pressure":
                coef /= geom.d
            p1 = amplitude_fn(geom.plate1.model, geom.plate1.material, T)
            p2 = amplitude_fn(geom.plate2.model, geom.plate2.material, T)
            for n, te, tm in res.per_n_terms[::4] + res.per_n_terms[-1:]:
                xi = phys.matsubara_xi(n, T) if n else 0.0
                w = 0.5 if n == 0 else 1.0
                i_tm, i_te = term_integrals_quad(kind, geom.d, xi, p1, p2, 1e-10)
                what = f"{kind} T={T} n={n}"
                assert abs(tm - w * coef * i_tm) <= 1e-9 * abs(w * coef * i_tm), what
                assert abs(te - w * coef * i_te) <= 1e-9 * abs(w * coef * i_te), what


class TestSumStats:
    def test_stats_repeat_and_count(self):
        # a direct sum: 75 K stays below the tail route's n_expected of 93
        geom = Geometry.identical(D_1UM, GE, Drift())
        a = free_energy_per_area(geom, 75.0, tolerances=TIGHT)
        b = free_energy_per_area(geom, 75.0, tolerances=TIGHT)
        assert a.stats == b.stats
        assert a.value == b.value
        st = a.stats
        assert st.terms_kept == len(a.per_n_terms) == a.n_truncated_at + 1
        assert st.terms_computed >= st.terms_kept
        assert st.nodes % 21 == 0 and st.nodes >= 21 * st.panels
        assert st.panels >= st.terms_computed and st.passes >= 1
        # every split panel leaves 21 nodes more than its final panels hold
        assert (st.nodes == 21 * st.panels) == (st.passes == 1)
        assert st.tail_rows == 0 and a.remainder == 0.0

    # An entropy-tolerance sum takes one G-K pass: n = 0 shares the first
    # block and every term starts on the panels it converges on.  With
    # n = 0 in a block of its own and the same three starting panels for
    # every n >= 1, these sums took 5 passes each, with the nodes per kept
    # term and the overshoot past the stop given here; with starting panels
    # fitted to 2 u_n alone, 2 passes.  Both are direct sums.
    @pytest.mark.parametrize("T, nodes_per_term, overshoot",
                             [(315.0, 95.0, 4), (75.0, 80.5, 3)])
    def test_entropy_sums_take_few_passes(self, T, nodes_per_term, overshoot):
        st = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), T,
                                  tolerances=ENTROPY_TOL).stats
        assert st.passes == 1
        assert st.nodes / st.terms_kept < nodes_per_term
        assert st.terms_computed - st.terms_kept <= overshoot + 8
        assert st.tail_rows == 0

    # A long sum ends in the xi-integral tail.  Summed term by term, these
    # took 33,327 nodes (10.5 K, 3 passes) and 2,860,620 (0.1 K, 172 passes).
    @pytest.mark.parametrize("T, nodes", [(10.5, 20_000), (0.1, 150_000)])
    def test_long_entropy_sums_take_few_nodes(self, T, nodes):
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), T,
                                   tolerances=ENTROPY_TOL)
        assert res.stats.tail_rows > 0 and res.remainder != 0.0
        assert res.stats.nodes < nodes

    def test_nernst_sweep_takes_one_pass_per_block(self):
        # the Nernst sweep of Ge/Drift at 1 um: four sums per entropy point,
        # at T +- h and T +- h/2 with h = T/20.  A direct sum is one block
        # and one pass, a tail sum a head block and a tail pass.  With
        # starting panels fitted to 2 u_n alone, the sweep took 58 passes in
        # 32 blocks for 175,644 nodes; with the tail as nested k-integrals,
        # and the 40 K sums direct, 32 passes for the same 175,644 nodes.
        geom = Geometry.identical(D_1UM, GE, Drift())
        nodes = 0
        for T in (300.0, 150.0, 75.0, 40.0, 20.0, 10.0):
            h = T / 20.0
            for t in (T + h, T - h, T + 0.5 * h, T - 0.5 * h):
                st = free_energy_per_area(geom, t, tolerances=ENTROPY_TOL).stats
                assert st.passes == (2 if st.tail_rows else 1), (t, st)
                assert (st.tail_rows > 0) == (T <= 40.0), (t, st)
                nodes += st.nodes
        assert abs(nodes - 135_282) <= 0.01 * 135_282


# The engine's figures, bit for bit: float.hex of the value, the quadrature
# and truncation estimates and the remainder, then every SumStats field.
# They cover a one-pass direct sum (315 K), a direct sum refined in a second
# pass (Si 77 K), tails that converge at once (10.5 K, the mixed plates) and
# one refined in q (Conductivity at 0.1 um, 1 K: 19 of its 22 cells).  The
# panel-limit note case is pinned in test_panel_limit_leaves_a_note.
FROZEN_SUMS = [
    ("ge-drift-315K-energy", Geometry.identical(D_1UM, GE, Drift()), 315.0,
     free_energy_per_area, ENTROPY_TOL,
     ("-0x1.7e94824498b89p-23", "0x1.0859a237b6427p-58", "0x1.7632c4147ca9ap-71", "0x0.0p+0"),
     (21, 25, 1932, 1, 92, 0)),
    ("ge-drift-315K-pressure", Geometry.identical(D_1UM, GE, Drift()), 315.0,
     pressure, ENTROPY_TOL,
     ("0x1.4269cfe2a82ddp-8", "0x1.30787b8330303p-47", "0x1.2d3bd95ac3b21p-57", "0x0.0p+0"),
     (23, 25, 1932, 1, 92, 0)),
    ("ge-drift-10.5K-energy", Geometry.identical(D_1UM, GE, Drift()), 10.5,
     free_energy_per_area, ENTROPY_TOL,
     ("-0x1.46a774521813ep-23", "0x1.405b6d80c60dcp-65", "0x1.a5920351df4bdp-65",
      "-0x1.ddf40e2b6c6d7p-25"),
     (27, 65, 8799, 2, 339, 1764)),
    ("ge-drift-10.5K-pressure", Geometry.identical(D_1UM, GE, Drift()), 10.5,
     pressure, ENTROPY_TOL,
     ("0x1.2abdb352575c0p-8", "0x1.05a465b79e81ap-46", "0x1.3ae17510fa3afp-50",
      "0x1.837e4aeff8a45p-9"),
     (18, 65, 8799, 2, 339, 1764)),
    ("ge-cond-0.1um-1K-energy", Geometry.identical(0.1e-4, GE, Conductivity(2.09e10)), 1.0,
     free_energy_per_area, ENTROPY_TOL,
     ("-0x1.1ee5aa9a88cc7p-13", "0x1.1136ffce86aaep-48", "0x1.19a1f1c1e0836p-61",
      "-0x1.1d4c089775ab8p-13"),
     (16, 65, 31353, 7, 790, 14994)),
    ("si-nonlocal-77K-pressure", Geometry.identical(D_1UM, SI, Nonlocal()), 77.0,
     pressure, Tolerances(),
     ("0x1.03289725e5a1ap-8", "0x1.6d2a1630ceffdp-46", "0x1.339a95dda1cabp-42", "0x0.0p+0"),
     (67, 72, 5124, 2, 244, 0)),
    ("mixed-0.1um-300K-pressure", Geometry(0.1e-4, Plate(GE, Drift()), Plate(SI, Nonlocal())),
     300.0, pressure, Tolerances(),
     ("0x1.273f951efb2bdp+5", "0x1.3503a43b3651ep-33", "0x1.3e4bfd20566e0p-30",
      "0x1.2243d07860225p+2"),
     (20, 65, 7035, 2, 255, 1764)),
    ("ge-bare-10um-300K-energy", Geometry.identical(10e-4, GE, Bare()), 300.0,
     free_energy_per_area, Tolerances(),
     ("-0x1.90fe01239b24dp-31", "0x1.42404374727dbp-77", "0x1.05d84c53ba4e0p-142", "0x0.0p+0"),
     (5, 11, 1008, 1, 48, 0)),
]


class TestFrozenBits:
    @pytest.mark.parametrize("geom, T, op, tol, hexes, stats",
                             [case[1:] for case in FROZEN_SUMS],
                             ids=[case[0] for case in FROZEN_SUMS])
    def test_sum_keeps_its_bits(self, geom, T, op, tol, hexes, stats):
        res = op(geom, T, tolerances=tol)
        assert (res.value.hex(), res.quadrature_error_estimate.hex(),
                res.truncation_error_estimate.hex(), res.remainder.hex()) == hexes
        assert res.stats == SumStats(*stats)
        assert res.warnings == ()


class TestMatsubaraTail:
    """Long sums: a head summed directly, the rest as an xi-integral."""

    @pytest.mark.parametrize("T", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("d", [0.1e-4, D_1UM])
    def test_ideal_metal_closed_form(self, d, T):
        # a sum stopped where its terms fall below sum_rel misses its tail:
        # 1.6e-11, 6.0e-11 and 1.9e-10 of the energy at 1 um and 10, 3, 1 K
        geom = Geometry.identical(d, GE, IdealMetal())
        for op, exact in ((free_energy_per_area, ideal_metal_energy),
                          (pressure, ideal_metal_pressure)):
            res = op(geom, T, tolerances=ENTROPY_TOL)
            diff = abs(res.value - exact(d, T))
            what = (op.__name__, res.value / exact(d, T) - 1)
            assert diff <= 2.0 * ENTROPY_TOL.sum_rel * abs(res.value), what
            assert diff <= (ENTROPY_TOL.sum_rel * abs(res.value) + res.truncation_error_estimate
                            + res.quadrature_error_estimate), what

    @pytest.mark.parametrize("T", [18.0, 10.0, 3.0])
    @pytest.mark.parametrize("name, spec, model", [
        ("Ge/Drift", GE, Drift()),
        ("Ge/Conductivity", GE, Conductivity(2.09e10)),
        ("Si/Nonlocal", SI, Nonlocal())])
    def test_against_the_complete_sum(self, name, spec, model, T):
        geom = Geometry.identical(D_1UM, spec, model)
        for kind, op in (("energy", free_energy_per_area), ("pressure", pressure)):
            complete = complete_matsubara_sum(kind, geom, T)
            for tol in (Tolerances(), ENTROPY_TOL):
                res = op(geom, T, tolerances=tol)
                what = (name, kind, T, tol.sum_rel)
                diff = abs(res.value - complete)
                assert diff <= 2.0 * tol.sum_rel * abs(res.value), what
                assert diff <= (res.truncation_error_estimate + res.quadrature_error_estimate
                                + 1e-3 * tol.sum_rel * abs(res.value)), what
                head = 0.0
                for _, te, tm in res.per_n_terms:
                    head += te + tm
                assert res.value == head + res.remainder, what

    # With the quadrature held to 1e-12, the truncation estimate alone
    # must cover the tail's error: |G_8 Delta^8| + |G_9 Delta^9| at the stop
    # understated it by up to 1.63 times in these sums.
    @pytest.mark.parametrize("T", [18.0, 10.0])
    @pytest.mark.parametrize("name, spec, model", [
        ("Ge/Drift", GE, Drift()),
        ("Ge/Conductivity", GE, Conductivity(2.09e10)),
        ("Si/Nonlocal", SI, Nonlocal())])
    def test_truncation_estimate_covers_the_tail(self, name, spec, model, T):
        geom = Geometry.identical(D_1UM, spec, model)
        for kind, op in (("energy", free_energy_per_area), ("pressure", pressure)):
            complete = complete_matsubara_sum(kind, geom, T)
            for sum_rel in (1e-10, 1e-12):
                res = op(geom, T, tolerances=Tolerances(quad_rel=1e-12, sum_rel=sum_rel))
                what = (name, kind, T, sum_rel)
                assert res.stats.tail_rows > 0, what
                diff = abs(res.value - complete)
                assert diff <= res.truncation_error_estimate + res.quadrature_error_estimate, what

    # Sums with n_expected 126-168 at the entropy tolerances: walked
    # directly, they stopped 2.5-4 sum_rel |value| from the complete sum
    # (Ge/Drift 40 K +2.47/-2.54, 30 K +3.51/-3.97, Si/Nonlocal 40 K
    # +2.61/-2.72, energy/pressure); head plus tail ends within 0.28.
    @pytest.mark.parametrize("name, spec, model, T", [
        ("Ge/Drift", GE, Drift(), 40.0),
        ("Ge/Drift", GE, Drift(), 30.0),
        ("Si/Nonlocal", SI, Nonlocal(), 40.0)])
    def test_tail_route_meets_the_complete_sum(self, name, spec, model, T):
        geom = Geometry.identical(D_1UM, spec, model)
        for kind, op in (("energy", free_energy_per_area), ("pressure", pressure)):
            complete = complete_matsubara_sum(kind, geom, T)
            res = op(geom, T, tolerances=ENTROPY_TOL)
            what = (name, kind, T, (res.value - complete) / abs(res.value))
            assert res.stats.tail_rows > 0, what
            assert abs(res.value - complete) <= ENTROPY_TOL.sum_rel * abs(res.value), what

    # M and the truncation estimate of the head's term-by-term stop, bit for bit
    @pytest.mark.parametrize("spec, model, d, T, op, m, trunc", [
        (GE, Drift(), D_1UM, 20.0, free_energy_per_area, 36, "0x1.4099f24937fc0p-64"),
        (GE, Drift(), D_1UM, 20.0, pressure, 31, "0x1.277ae83e816d3p-49"),
        (GE, Drift(), D_1UM, 1.0, free_energy_per_area, 15, "0x1.8b21c842ec634p-68"),
        (GE, Drift(), D_1UM, 1.0, pressure, 11, "0x1.b859bfa39f47ap-54"),
        (SI, Nonlocal(), 0.1e-4, 3.0, free_energy_per_area, 10, "0x1.0a4f6ef5bafeap-60"),
        (GE, Conductivity(2.09e10), D_1UM, 0.1, pressure, 20, "0x1.aa19caca33e0dp-57")])
    def test_head_stop_keeps_its_bits(self, spec, model, d, T, op, m, trunc):
        res = op(Geometry.identical(d, spec, model), T, tolerances=ENTROPY_TOL)
        assert res.n_truncated_at == m
        assert res.truncation_error_estimate == float.fromhex(trunc)

    # the head stop's written-out binomial sums against the loop they
    # replaced, on finite windows: signed zeros, subnormals, overflow, and
    # terms of one size, where the order of the additions shows in the bits
    EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e308, -1e308)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(EDGE_FLOATS),
                           st.floats(-1e-300, 1e-300)),
                 min_size=10, max_size=10),
        st.lists(st.floats(0.5, 2.0), min_size=10, max_size=10),
        st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10)))
    @example([-0.0] * 10)
    @example([5e-324, -5e-324] * 5)
    @example([1e308, -1e308] * 5)
    @example([0.9 ** n for n in range(10)])
    @example([1.0] * 9 + [math.inf])  # Delta^8 carries 0 f_{M+9}: a nan, as in the loop
    def test_gregory_next_matches_its_loop(self, f):
        assert lifshitz._gregory_next(f).hex() == gregory_next_loop(f).hex()

    @pytest.mark.parametrize("T, s_bad", [(300.0, 3.0), (10.0, 3.0), (10.0, 40.0), (0.3, 0.05)])
    def test_nan_amplitudes_are_refused_at_their_node(self, monkeypatch, T, s_bad):
        # nan past s = 2 d xi / c = s_bad, met by the direct walk (300 K) or
        # by the tail (10 and 0.3 K); neither adaptive loop may spin on it
        bad_xis = []

        def late_nan(model, spec, temp):
            def pair(xi, k):
                bad = 2.0 * D_1UM * np.asarray(xi) / phys.C_LIGHT >= s_bad
                bad_xis.extend(np.broadcast_to(xi, np.shape(bad))[bad].tolist())
                return np.where(bad, np.nan, 0.5) + 0.0 * k, 0.0 * k
            return pair
        monkeypatch.setattr(lifshitz, "amplitude_fn", late_nan)
        for op in (free_energy_per_area, pressure):
            bad_xis.clear()
            with pytest.raises(SummationError, match="non-finite") as info:
                op(Geometry.identical(D_1UM, GE, Drift()), T, tolerances=ENTROPY_TOL)
            assert info.value.diagnostics["xi"] in bad_xis

    def test_tail_bookkeeping(self):
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 10.0,
                                   tolerances=ENTROPY_TOL)
        st = res.stats
        # tail_rows counts the tail's nodes, K21 x K21 cells; the rest is the head's
        assert st.tail_rows % 441 == 0 and st.tail_rows > 0
        assert (st.nodes - st.tail_rows) % 21 == 0 and st.nodes > st.tail_rows
        assert st.terms_kept == len(res.per_n_terms) == res.n_truncated_at + 1
        assert st.terms_computed >= st.terms_kept + 9  # f_M..f_{M+9}
        assert res.per_n_terms[-1][0] == res.n_truncated_at >= 7
        assert 0.0 < res.truncation_error_estimate < ENTROPY_TOL.sum_rel * abs(res.value)
        again = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 10.0,
                                     tolerances=ENTROPY_TOL)
        assert again == res

    def test_tail_rows_leave_notes(self, monkeypatch):
        # at 1 K the tail's first pass, [0, 3] halved toward s_M, does not
        # converge; held to the cells of that pass, it stops with a note
        monkeypatch.setattr(lifshitz, "_TAIL_CELL_LIMIT", 4)
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 1.0,
                                   tolerances=ENTROPY_TOL)
        st = res.stats
        notes = [w for w in res.warnings
                 if w.startswith("quadrature note in the Matsubara tail from s=")]
        assert st.tail_rows > 4 * 441 and len(notes) == 1, (st, res.warnings)
        assert f"stopped at {st.tail_rows // 441} cells (limit 4)" in notes[0]
        assert not any(w.startswith("quadrature note at xi=") for w in res.warnings)

    def test_outer_panel_limit_leaves_a_note(self, monkeypatch):
        # cells over [s_M, s_M + 45] x [0, 1], [0, 45] halved twice toward
        # s_M = 1.43, too wide to converge, that may not split
        monkeypatch.setattr(lifshitz, "_TAIL_PANELS", (0.0, 45.0))
        monkeypatch.setattr(lifshitz, "_TAIL_CELL_LIMIT", 1)
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 10.0,
                                   tolerances=ENTROPY_TOL)
        assert res.stats.tail_rows == 3 * 441 and res.stats.passes == 2
        assert any(w.startswith("quadrature note in the Matsubara tail from s=")
                   and "stopped at 3 cells (limit 1)" in w for w in res.warnings)

    def test_non_finite_tail_integral_is_refused(self, monkeypatch):
        # nan past s = 2 d xi / c = 3: the head stops short of it at 10 K
        # and the tail's outer nodes reach it
        def late_nan(model, spec, T):
            def pair(xi, k):
                s = 2.0 * D_1UM * xi / phys.C_LIGHT
                return np.where(s < 3.0, 0.5, np.nan) + 0.0 * k, 0.0 * k
            return pair
        monkeypatch.setattr(lifshitz, "amplitude_fn", late_nan)
        with pytest.raises(SummationError, match="non-finite energy integral") as info:
            free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 10.0,
                                 tolerances=ENTROPY_TOL)
        assert info.value.diagnostics["xi"] > phys.matsubara_xi(64, 10.0)


class TestEngineGuards:
    def test_panel_limit_leaves_a_note(self, monkeypatch):
        # the static term one halving short of its starting ladder: its first
        # panel fails, and the term is already past the panel limit
        monkeypatch.setattr(lifshitz, "_PANEL_LIMIT", 4)
        monkeypatch.setattr(lifshitz, "_STATIC_EDGES", np.delete(lifshitz._STATIC_EDGES, 1))
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0,
                                   tolerances=TIGHT)
        assert res.warnings == (
            "quadrature note at xi=0.0000e+00 (TM): panel limit (4) reached with error "
            "1.70e-10 above the target 1.05e-10",)
        assert_close(res.value, GE_E_1UM_300K, 1e-9)
        # and its figures bit for bit, as in TestFrozenBits
        assert (res.value.hex(), res.quadrature_error_estimate.hex(),
                res.truncation_error_estimate.hex(), res.remainder.hex()) == (
            "-0x1.757859e123faep-23", "0x1.0464767b6c8efp-56", "0x1.8a0293b36c8ebp-71",
            "0x0.0p+0")
        assert res.stats == SumStats(22, 26, 1974, 1, 94, 0)

    @pytest.mark.parametrize("T", [315.0, 10.5])
    def test_shortened_window_moves_no_sum(self, monkeypatch, T):
        # terms n >= 1 end at t = _T_END = 45; ending them at 60, like the
        # static term, leaves every sum where it is
        geoms = [Geometry.identical(D_1UM, spec, model) for spec in (GE, SI)
                 for model in (Bare(), Conductivity(2.09e10), Drift(), IdealMetal())]

        def sums():
            return [op(g, T, tolerances=ENTROPY_TOL).value
                    for g in geoms for op in (free_energy_per_area, pressure)]

        short = sums()
        monkeypatch.setattr(lifshitz, "_T_END", 60.0)
        for a, b in zip(short, sums()):
            assert abs(a - b) < 1e-13 * abs(b)

    @pytest.mark.parametrize("u_n", [1e-3, 1.0, 30.0])
    @pytest.mark.parametrize("kind", ["energy", "pressure"])
    def test_integrand_past_the_window_is_negligible(self, kind, u_n):
        # the integral over t in [45, 60] (fifteen K21 panels) against the
        # whole term, for a screened and a perfect reflector
        xi = np.array([u_n * phys.C_LIGHT / (2.0 * D_1UM)])
        a = np.arange(45.0, 60.0)
        half = np.full(len(a), 0.5)
        t = half[:, None] * lifshitz._NODES + (a + 0.5)[:, None]
        for spec, model in ((GE, Drift()), (GE, IdealMetal())):
            pair = amplitude_fn(model, spec, 10.5)
            term = lifshitz._block_integrals(kind, D_1UM, xi, pair, pair, 1e-10)[0][:, 0]
            f = np.empty((2,) + t.shape)
            lifshitz._integrand(kind, D_1UM, xi[0], u_n, t, pair, pair, f)
            tail = (f @ lifshitz._W_KRONROD) @ half
            assert (np.abs(tail) < 1e-16 * np.abs(term)).all(), (model, tail / term)

    def test_cap_refusal_carries_the_partial_sum(self, monkeypatch):
        # 19 terms pass the upfront check at 1 um and 300 K but stop short
        # of the 21 the tight sum needs
        monkeypatch.setattr(lifshitz, "_N_CAP", 19)
        with pytest.raises(SummationError, match="hit the cap") as info:
            free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0,
                                 tolerances=TIGHT)
        partial = info.value.partial
        assert partial.n_truncated_at == 19 and len(partial.per_n_terms) == 20
        assert partial.stats.terms_kept == 20

    def test_non_finite_integral_is_refused(self, monkeypatch):
        def nan_amplitudes(model, spec, T):
            return lambda xi, k: (k * math.nan, 0.0)
        monkeypatch.setattr(lifshitz, "amplitude_fn", nan_amplitudes)
        with pytest.raises(SummationError, match="non-finite energy integral"):
            free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0)


class TestGMode:
    def test_zero_amplitudes(self):
        ghost = replace(
            GE, permittivity=SellmeierPermittivity(
                eps0=1.0 + 1e-12, eps_inf=1.0, omega0=5e15),
            gap_E0=1e6, name="ghost")
        geom = Geometry.identical(D_1UM, ghost, Bare())
        g_tm, _ = g_mode(geom, 300.0, phys.matsubara_xi(1, 300.0), 1e4)
        assert abs(g_tm) < 1e-20

    def test_perfect_reflector_arithmetic(self):
        # r1 r2 = 1 and 2 d gamma0 = ln 2  =>  g = ln(1/2)
        geom = Geometry.identical(D_1UM, GE, IdealMetal())
        k = math.log(2.0) / (2 * D_1UM)
        g_tm, _ = g_mode(geom, 300.0, 0.0, k)
        assert_close(g_tm, math.log(0.5), 1e-12)

    def test_drift_tm_n0_enhanced_at_small_k(self):
        # screening pushes the static TM mode function toward the
        # perfect-conductor one at k << kappa
        geom_d = Geometry.identical(D_1UM, GE, Drift())
        geom_b = Geometry.identical(D_1UM, GE, Bare())
        for k in (5e2, 2e3):
            gd, _ = g_mode(geom_d, 300.0, 0.0, k)
            gb, _ = g_mode(geom_b, 300.0, 0.0, k)
            assert gd < gb < 0.0

    def test_array_k_matches_scalar_calls(self):
        # bare, cond, drift, nonlocal and the ideal metal; static and xi_1
        ks = np.geomspace(1e2, 1e6, 25)
        for spec in (GE, SI):
            for model in [parse_model(n, spec, None) for n in MODEL_NAMES] + [IdealMetal()]:
                geom = Geometry.identical(D_1UM, spec, model)
                for xi in (0.0, phys.matsubara_xi(1, 300.0)):
                    g_arr = g_mode(geom, 300.0, xi, ks)
                    for i, k in enumerate(ks.tolist()):
                        g_one = g_mode(geom, 300.0, xi, k)
                        for pol in (0, 1):
                            assert_close(g_arr[pol][i], g_one[pol], 1e-15,
                                         what=f"{spec.name} {model} xi={xi} k={k} {pol}")

    def test_rejects_out_of_domain_points(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        xi1 = phys.matsubara_xi(1, 300.0)
        for xi, k in ((-1.0, 1e4), (math.nan, 1e4), (math.inf, 1e4),
                      (xi1, 0.0), (xi1, -1e4), (xi1, math.nan), (xi1, math.inf),
                      (np.array([xi1, -1.0]), 1e4), (xi1, np.array([1e4, 0.0])),
                      (0.0, np.array([1e4, math.inf])),
                      (np.array([0.0, xi1]), 1e4)):  # static needs a float xi
            with pytest.raises(DomainError):
                g_mode(geom, 300.0, xi, k)

    def test_rejects_bad_temperature(self):
        geom = Geometry.identical(D_1UM, GE, Bare())
        for T in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="temperature"):
                g_mode(geom, T, 1e14, 1e4)

    def test_non_passive_element_is_refused(self, monkeypatch):
        # r1 r2 = 2.25 gives Q >= 1 at k = 1e2 only, where 2 d k = 0.02
        monkeypatch.setattr(lifshitz, "amplitude_fn",
                            lambda model, spec, T: lambda xi, k: (1.5, 0.0))
        geom = Geometry.identical(D_1UM, GE, Drift())
        with pytest.raises(DomainError, match="non-passive"):
            g_mode(geom, 300.0, 0.0, np.array([1e6, 1e2]))

    def test_nan_element_is_refused(self, monkeypatch):
        # a nan amplitude in one element: a passivity check written q >= 1
        # lets it pass
        monkeypatch.setattr(lifshitz, "amplitude_fn", lambda model, spec, T: (
            lambda xi, k: (np.array([0.5, math.nan]), 0.0)))
        geom = Geometry.identical(D_1UM, GE, Drift())
        with pytest.raises(DomainError, match="nan is not finite"):
            g_mode(geom, 1.0, 1e13, np.array([1e4, 1e5]))


class TestLargeSeparationScreening:
    def test_drift_minus_bare_is_the_n0_tm_replacement(self):
        # at d = 20 R_D the whole drift/bare difference is carried by the
        # n = 0 TM term going perfectly conducting
        d = 20.0 * material_state(GE, 300.0).R_D
        e_drift = free_energy_per_area(Geometry.identical(d, GE, Drift()), 300.0)
        e_bare = free_energy_per_area(Geometry.identical(d, GE, Bare()), 300.0)
        got = e_drift.value - e_bare.value
        want = ideal_metal_n0_tm_energy(d, 300.0) - e_bare.per_n_terms[0][2]
        assert abs(got - want) <= 0.05 * abs(want)


class TestRatios:
    def test_bare_ratio_is_one(self):
        geom = Geometry.identical(D_1UM, GE, Bare())
        assert ratio_to_bare(geom, 300.0) == 1.0

    def test_si_ratio_near_one_at_small_separation(self):
        # independently verified value: 1.00194680... at d = 1 um
        geom = Geometry.identical(D_1UM, SI, Drift())
        r = ratio_to_bare(geom, 300.0)
        assert_close(r, 1.0019468019480474, 1e-9)

    def test_ge_ratio_approaches_pc_asymptote(self):
        geom = Geometry.identical(15e-4, GE, Drift())
        r = ratio_to_bare(geom, 300.0)
        asym = pc_n0_ratio_asymptote(geom, 300.0)
        assert r > 1.01
        assert abs(r - asym) <= 0.05 * asym

    def test_normalization_floor(self):
        ghost = replace(
            GE, permittivity=SellmeierPermittivity(
                eps0=1.0 + 1e-15, eps_inf=1.0, omega0=5e15),
            gap_E0=1e6, name="ghost")
        geom = Geometry.identical(D_1UM, ghost, Drift())
        with pytest.raises(NormalizationError):
            ratio_to_bare(geom, 300.0)


class TestSingleModeClaim:
    def test_only_n0_tm_modified(self):
        # swapping every n >= 1 amplitude for the bare one moves E by <0.1%
        for spec in (GE, SI):
            for d in (0.5e-4, 1e-4, 10e-4):
                geom = Geometry.identical(d, spec, Drift())
                full = free_energy_per_area(geom, 300.0)
                hybrid = n0_swapped_energy(geom, 300.0, Drift())
                assert abs(hybrid - full.value) < 1e-3 * abs(full.value)

    def test_drift_and_cond_differ_mostly_in_n0(self):
        cond = Conductivity(sigma0=phys.sigma_gaussian(1 / 43))
        e_d = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0)
        e_c = free_energy_per_area(Geometry.identical(D_1UM, GE, cond), 300.0)
        d_n0 = (e_d.per_n_terms[0][1] + e_d.per_n_terms[0][2]) - (
            e_c.per_n_terms[0][1] + e_c.per_n_terms[0][2])
        assert abs((e_d.value - e_c.value) - d_n0) < 1e-3 * abs(e_d.value)


def test_geometry_validation():
    with pytest.raises(DomainError):
        Geometry.identical(0.0, GE, Drift())
    with pytest.raises(DomainError):
        Tolerances(quad_rel=1e-2)
