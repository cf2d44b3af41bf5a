import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casdrift import lifshitz, phys
from casdrift.config import parse_model
from casdrift.errors import DomainError, NormalizationError, SummationError
from casdrift.lifshitz import (
    Geometry,
    Plate,
    Tolerances,
    free_energy_per_area,
    g_mode,
    pressure,
    ratio_to_bare,
)
from casdrift.materials import GE, SI, SellmeierPermittivity, material_state
from casdrift.reflection import (
    Bare, Conductivity, Drift, IdealMetal, Nonlocal, amplitude_fn)

from conftest import assert_close
from oracles import (
    ZETA3,
    ideal_metal_n0_tm_energy,
    ideal_metal_n0_tm_pressure,
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
        geom = Geometry.identical(D_1UM, GE, Drift())
        a = free_energy_per_area(geom, 40.0, tolerances=TIGHT)
        b = free_energy_per_area(geom, 40.0, tolerances=TIGHT)
        assert a.stats == b.stats
        assert a.value == b.value
        st = a.stats
        assert st.terms_kept == len(a.per_n_terms) == a.n_truncated_at + 1
        assert st.terms_computed >= st.terms_kept
        assert st.nodes % 21 == 0 and st.nodes >= 21 * st.panels
        assert st.panels >= st.terms_computed and st.passes >= 2


class TestEngineGuards:
    def test_panel_limit_leaves_a_note(self, monkeypatch):
        monkeypatch.setattr(lifshitz, "_PANEL_LIMIT", 4)
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0,
                                   tolerances=TIGHT)
        assert any(w.startswith("quadrature note at xi=0.0000e+00 (TM): panel limit")
                   for w in res.warnings)
        assert_close(res.value, GE_E_1UM_300K, 1e-9)

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
