import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casdrift import lifshitz, phys
from casdrift.config import parse_model
from casdrift.errors import CasdriftError, DomainError, NormalizationError, SummationError
from casdrift.lifshitz import (
    Geometry,
    Plate,
    SumStats,
    Tolerances,
    free_energies,
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
    passivity_bound,
    passivity_bound_sum,
    pc_n0_ratio_asymptote,
    term_integrals_quad,
)

D_1UM = 1e-4
TIGHT = Tolerances(quad_rel=1e-10, sum_rel=1e-12)
MODEL_NAMES = ("bare", "cond", "drift", "nonlocal")
PLATE_MODELS = MODEL_NAMES + ("ideal",)


# near-vacuum plates: eps(i xi) - 1 <= 1e-12
GHOST = replace(GE, permittivity=SellmeierPermittivity(eps0=1.0 + 1e-12, eps_inf=1.0, omega0=5e15),
                gap_E0=1e6, name="ghost")


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

    def test_zero_temperature_closed_forms(self):
        # E(0) = -pi^2 hbar c/(720 d^3), P(0) = pi^2 hbar c/(240 d^4)
        hc = phys.HBAR * phys.C_LIGHT
        geom = Geometry.identical(D_1UM, GE, IdealMetal())
        assert_close(free_energy_per_area(geom, 0.0).value,
                     -math.pi**2 * hc / (720.0 * D_1UM**3), 1e-12)
        assert_close(pressure(geom, 0.0).value, math.pi**2 * hc / (240.0 * D_1UM**4), 1e-12)

    @pytest.mark.parametrize("T", [1e-3, 1e-2])
    def test_low_temperature_rise_is_the_missing_n0_te_mode(self, T):
        # r_TE = 0 at xi = 0 drops the n = 0 TE mode of the perfect reflector,
        # which T = 0 counts: E(T) - E(0) -> kB T zeta(3)/(16 pi d^2), linear in T
        # (read -2.2e-9 at 1 mK and -3.6e-10 at 10 mK)
        geom = Geometry.identical(D_1UM, GE, IdealMetal())
        rise = (free_energy_per_area(geom, T, tolerances=ENTROPY_TOL).value
                - free_energy_per_area(geom, 0.0, tolerances=ENTROPY_TOL).value)
        assert_close(rise, -ideal_metal_n0_tm_energy(D_1UM, T), 1e-6)


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

    # A weak conductor's r_TM -> 1 below xi = 4 pi sigma0/eps0 is a layer
    # q < s_c/v of the T = 0 tail, s_c = 2 d xi / c = 2.7e-8 for Si's default
    # sigma0 at 1 um: no node of the tail's first cells falls in it, and
    # halving quad_rel moves E(0) by 2.2 of its estimate at 1e-8 and P(0) by
    # 6.8 at 1e-8 and 61 at 1e-10.
    @pytest.mark.parametrize("spec, model", [
        *[(spec, name) for spec in (GE, SI) for name in PLATE_MODELS
          if (spec, name) != (SI, "cond")],
        pytest.param(SI, "cond", marks=pytest.mark.xfail(
            strict=True, reason="the T = 0 tail does not see a weak conductor's layer")),
        (SI, Conductivity(2.09e10))])
    def test_zero_temperature_tolerance_halving_within_reported_estimate(self, spec, model):
        if isinstance(model, str):
            model = plate_model(model, spec)
        geom = Geometry.identical(D_1UM, spec, model)
        for op in (free_energy_per_area, pressure):
            for quad_rel in (1e-6, 1e-8, 1e-10):
                a = op(geom, 0.0, tolerances=Tolerances(quad_rel, 1e-8))
                b = op(geom, 0.0, tolerances=Tolerances(0.5 * quad_rel, 1e-8))
                what = (op.__name__, quad_rel)
                assert abs(a.value - b.value) <= a.quadrature_error_estimate, what

    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0, 300.0])
    def test_sum_rel_halving_within_reported_estimate(self, T):
        # 300 K is a direct sum, whose estimate bounds every term past its
        # stop; 10, 1 and 0.1 K end in the tail, estimated from Gregory's
        # correction
        geom = Geometry.identical(D_1UM, GE, Drift())
        a = free_energy_per_area(geom, T, tolerances=Tolerances(1e-10, 2e-12))
        b = free_energy_per_area(geom, T, tolerances=Tolerances(1e-10, 1e-12))
        assert abs(a.value - b.value) <= a.truncation_error_estimate

    def test_near_vacuum_plates_give_near_zero(self):
        res = free_energy_per_area(Geometry.identical(D_1UM, GHOST, Bare()), 300.0)
        ref = free_energy_per_area(Geometry.identical(D_1UM, GE, Bare()), 300.0)
        assert abs(res.value) < 1e-20 * abs(ref.value)

    def test_near_vacuum_pressure_near_zero(self):
        res = pressure(Geometry.identical(D_1UM, GHOST, Bare()), 300.0)
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
        # where the w-ladder is graded deepest, 0.1 um and 1 K (u_1 = 5.5e-4):
        # n = 0, n = 1 and the first row of every halving level, one block
        d, T = 0.1e-4, 1.0
        u1 = 2.0 * d * phys.matsubara_xi(1, T) / phys.C_LIGHT
        ns = np.unique(np.geomspace(1, 4000, 400).astype(int))
        n_panels = np.bincount(lifshitz._start_panels(u1 * ns, 0)[0])
        levels, first = np.unique(n_panels, return_index=True)
        assert len(levels) == lifshitz._HALVINGS - 1  # n = 1 stops two halvings short
        xis = np.array([0.0] + [phys.matsubara_xi(n, T) for n in np.sort(ns[first])])
        for model in (Drift(), Conductivity(2.09e10)):
            pair = amplitude_fn(model, GE, T)
            for kind in ("energy", "pressure"):
                vals = lifshitz._block_integrals(kind, d, xis[None], [(pair, pair)],
                                                 1e-10)[0][:, 0]
                for i, xi in enumerate(xis):
                    ref = term_integrals_quad(kind, d, xi, pair, pair, 1e-10)
                    for c in (0, 1):
                        what = f"{model} {kind} xi={xi:.4e} c={c}"
                        assert abs(vals[c, i] - ref[c]) <= 1e-9 * abs(ref[c]), what


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
    # fitted to 2 u_n alone, 2 passes.  Both are direct sums.  In w = sqrt(t)
    # they read 81.0 and 68.4 nodes a kept term (92.0 and 74.4 in t).
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
    # took 33,327 nodes (10.5 K, 3 passes) and 2,860,620 (0.1 K, 172 passes);
    # with a 65-term first head block and panels in t, 8,799 and 26,502; now
    # 5,250 and 16,506.
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
        # and the 40 K sums direct, 32 passes for the same 175,644 nodes; with
        # the polar tail and the panels in t, 36 passes for 135,282 nodes;
        # in w = sqrt(t), with the direct walk stopped after three small
        # terms, 105,000 nodes and 26,649 as entropy() sums them.
        geom = Geometry.identical(D_1UM, GE, Drift())
        nodes = 0
        for T in (300.0, 150.0, 75.0, 40.0, 20.0, 10.0):
            h = T / 20.0
            for t in (T + h, T - h, T + 0.5 * h, T - 0.5 * h):
                st = free_energy_per_area(geom, t, tolerances=ENTROPY_TOL).stats
                assert st.passes == (2 if st.tail_rows else 1), (t, st)
                assert (st.tail_rows > 0) == (T <= 40.0), (t, st)
                nodes += st.nodes
        assert abs(nodes - 103_173) <= 0.01 * 103_173
        # as entropy() sums it: one call per point, its four columns on the
        # layout of the lowest temperature, 9 passes instead of 36.  Each
        # column integrates every node of the shared blocks and cells.
        calls = passes = nodes = 0
        for T in (300.0, 150.0, 75.0, 40.0, 20.0, 10.0):
            h = T / 20.0
            res = free_energies(geom, (T + h, T - h, T + 0.5 * h, T - 0.5 * h),
                                tolerances=ENTROPY_TOL)
            assert len({r.stats for r in res}) == 1, (T, res)
            st = res[0].stats
            calls, passes, nodes = calls + 1, passes + st.passes, nodes + st.nodes
        assert (calls, passes) == (6, 9)
        assert abs(nodes - 26_208) <= 0.01 * 26_208


# The engine's figures, bit for bit: float.hex of the value, the quadrature
# and truncation estimates and the remainder, then every SumStats field.
# They cover one-pass direct sums (315 K, Si 77 K, Ge 10 um), a direct sum
# that takes a follow-up block (near-vacuum plates, whose value is about
# 4e-25 of the coef/a the first block is sized for), tails that converge at
# once (10.5 K, the mixed plates) and one refined in q (Conductivity at
# 0.1 um, 1 K: 19 of its 22 cells).  The
# panel-limit note case is pinned in test_panel_limit_leaves_a_note.  The
# bits hold for one BLAS build: _kronrod's matrix products give bits that
# depend on a block's panel count (288 of 399 row prefixes of a random
# array differed from the full product with numpy 2.4.6 and OpenBLAS 0.3.31),
# so another BLAS, or another block size, may move the last bits.
FROZEN_SUMS = [
    ("ge-drift-315K-energy", Geometry.identical(D_1UM, GE, Drift()), 315.0,
     free_energy_per_area, ENTROPY_TOL,
     ("-0x1.7e948244987d6p-23", "0x1.75ce6958419a9p-60", "0x1.72219a0cfcd4cp-64", "0x0.0p+0"),
     (19, 19, 1323, 1, 63, 0)),
    ("ge-drift-315K-pressure", Geometry.identical(D_1UM, GE, Drift()), 315.0,
     pressure, ENTROPY_TOL,
     ("0x1.4269cfe2a81dap-8", "0x1.82223cf9160f3p-46", "0x1.27b2c80255464p-50", "0x0.0p+0"),
     (21, 22, 1512, 1, 72, 0)),
    ("ge-drift-10.5K-energy", Geometry.identical(D_1UM, GE, Drift()), 10.5,
     free_energy_per_area, ENTROPY_TOL,
     ("-0x1.46a774521813ep-23", "0x1.425b9a3060a12p-62", "0x1.a595845836567p-65",
      "-0x1.ddf40e2b6c6d7p-25"),
     (27, 41, 5250, 2, 170, 1764)),
    ("ge-drift-10.5K-pressure", Geometry.identical(D_1UM, GE, Drift()), 10.5,
     pressure, ENTROPY_TOL,
     ("0x1.2abdb352575c0p-8", "0x1.78097de4db973p-46", "0x1.3ae251d82c1c3p-50",
      "0x1.837e4aeff8a45p-9"),
     (18, 41, 5250, 2, 170, 1764)),
    ("ge-cond-0.1um-1K-energy", Geometry.identical(0.1e-4, GE, Conductivity(2.09e10)), 1.0,
     free_energy_per_area, ENTROPY_TOL,
     ("-0x1.1ee5aa9a88cc7p-13", "0x1.11460f6be63c2p-48", "0x1.199f71895ad36p-61",
      "-0x1.1d4c089775ab8p-13"),
     (16, 41, 21357, 4, 325, 14994)),
    ("si-nonlocal-77K-pressure", Geometry.identical(D_1UM, SI, Nonlocal()), 77.0,
     pressure, Tolerances(),
     ("0x1.032897261b3a0p-8", "0x1.ac89b8bd65582p-47", "0x1.84cb43e07430ap-42", "0x0.0p+0"),
     (70, 74, 4872, 1, 232, 0)),
    ("mixed-0.1um-300K-pressure", Geometry(0.1e-4, Plate(GE, Drift()), Plate(SI, Nonlocal())),
     300.0, pressure, Tolerances(),
     ("0x1.273f951efb2bdp+5", "0x1.eb533658a8344p-34", "0x1.3e4bfd1e5e8c4p-30",
      "0x1.2243d07860225p+2"),
     (20, 41, 4704, 2, 144, 1764)),
    ("ge-bare-10um-300K-energy", Geometry.identical(10e-4, GE, Bare()), 300.0,
     free_energy_per_area, Tolerances(),
     ("-0x1.90fe01239aaabp-31", "0x1.b8ad3a71b003bp-67", "0x1.52e0c5be92847p-71", "0x0.0p+0"),
     (2, 2, 231, 1, 11, 0)),
    ("ghost-1um-300K-energy", Geometry.identical(D_1UM, GHOST, Bare()), 300.0,
     free_energy_per_area, Tolerances(),
     ("-0x1.a2273f1368a6cp-105", "0x1.04520c8cff864p-140", "0x1.a3128f2a4a8f7p-139", "0x0.0p+0"),
     (52, 52, 3402, 2, 162, 0)),
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


class TestColumns:
    """Several temperatures summed in one call, on the lowest one's layout."""

    @pytest.mark.parametrize("geom, T, tol", [case[1:3] + case[4:5] for case in FROZEN_SUMS
                                              if case[3] is free_energy_per_area],
                             ids=[case[0] for case in FROZEN_SUMS
                                  if case[3] is free_energy_per_area])
    def test_one_column_is_the_single_sum(self, geom, T, tol):
        single = free_energy_per_area(geom, T, tolerances=tol)
        (column,) = free_energies(geom, (T,), tolerances=tol)
        assert column == single
        assert column.value.hex() == single.value.hex()

    # Ge/Cond 0.1 um at 1 K: a tail refined in q, over four passes
    ENTROPY_CASES = [(Geometry.identical(D_1UM, GE, Drift()), 300.0),
                     (Geometry.identical(D_1UM, GE, Drift()), 10.0),
                     (Geometry.identical(0.1e-4, GE, Conductivity(2.09e10)), 1.0)]

    @pytest.mark.parametrize("geom, T", ENTROPY_CASES, ids=["drift-300K", "drift-10K", "cond-1K"])
    def test_permuted_temperatures_permute_the_results(self, geom, T):
        h = T / 20.0
        temps = (T + h, T - h, T + 0.5 * h, T - 0.5 * h)
        res = free_energies(geom, temps, tolerances=ENTROPY_TOL)
        for order in ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
            again = free_energies(geom, [temps[k] for k in order], tolerances=ENTROPY_TOL)
            assert again == tuple(res[k] for k in order), order
            assert [r.value.hex() for r in again] == [res[k].value.hex() for k in order]

    @pytest.mark.parametrize("geom, T", ENTROPY_CASES, ids=["drift-300K", "drift-10K", "cond-1K"])
    def test_columns_lie_within_their_single_sums_errors(self, geom, T):
        h = T / 20.0
        temps = (T + h, T - h, T + 0.5 * h, T - 0.5 * h)
        for t, col in zip(temps, free_energies(geom, temps, tolerances=ENTROPY_TOL)):
            single = free_energy_per_area(geom, t, tolerances=ENTROPY_TOL)
            errors = (col.quadrature_error_estimate + col.truncation_error_estimate
                      + single.quadrature_error_estimate + single.truncation_error_estimate)
            assert abs(col.value - single.value) <= errors, (t, col.value, single.value)
            assert col.warnings == single.warnings == ()
        if T == 1.0:
            assert col.stats.passes == 4 and col.stats.tail_rows > 441 * 4

    def test_a_higher_temperature_can_set_the_joint_stop(self, monkeypatch):
        # the higher column reflects weakly (r = 1e-6 against 0.5): its value is
        # about 1e-12 of the other's, so its R(n) falls below sum_rel of it
        # only well past the lower column's own stop
        low, high = 300.0, 315.0

        def weak_at_high(model, spec, T):
            r = 1e-6 if T == high else 0.5
            return lambda xi, k: (r + 0.0 * k, r + 0.0 * k)
        monkeypatch.setattr(lifshitz, "amplitude_fn", weak_at_high)
        geom = Geometry.identical(D_1UM, GE, Drift())
        sum_rel = Tolerances().sum_rel
        columns = free_energies(geom, (high, low))
        for T, col in zip((high, low), columns):
            assert col.truncation_error_estimate <= sum_rel * abs(col.value), T
        single = free_energy_per_area(geom, low)
        assert columns[1].stats.terms_kept > single.stats.terms_kept, (
            columns[1].stats, single.stats)

    def test_no_temperature_is_refused(self):
        with pytest.raises(DomainError):
            free_energies(Geometry.identical(D_1UM, GE, Drift()), ())

    def test_zero_among_temperatures_is_refused(self):
        # T = 0 has no Matsubara terms to share a layout with
        with pytest.raises(DomainError, match="T = 0"):
            free_energies(Geometry.identical(D_1UM, GE, Drift()), (0.0, 1.0))


def _coef_and_a(kind, d, T):
    """The sum's kB T/(8 pi d^2) (pressure: /d) and a = 2 d xi_1 / c."""
    coef = phys.K_B * T / (8.0 * math.pi * d * d)
    return (coef / d if kind == "pressure" else coef), 2.0 * d * phys.matsubara_xi(1, T) / phys.C_LIGHT


class TestDirectStop:
    """Short sums stop at the first N >= 1 where the passivity bound R(N) on
    the terms past N is at most sum_rel |value|, and report R(N)."""

    @pytest.mark.parametrize("a", [1e-3, 0.01, 0.1, 0.42, 1.0, 5.0])
    @pytest.mark.parametrize("kind", ["energy", "pressure"])
    def test_closed_form_is_the_bounds_summed(self, kind, a):
        L = math.ceil(60.0 / a)  # leaves out below exp(-60) of the sum
        for N in (0, 1, 10, 93):
            got = 3.0 * lifshitz._passivity_tail(kind, a, float(N))
            assert_close(got, passivity_bound_sum(kind, 3.0, a, N + 1, L), 1e-13, (kind, a, N))
            own = math.fsum(passivity_bound(kind, 3.0, m * a, m * a)
                            for m in range(N + 1, N + L + 1))
            assert own <= got, (kind, a, N)

    # every kept term lies below its own bound, and the stop is the first
    # N >= 1 whose R(N) is at most sum_rel of the value it ends with
    @pytest.mark.parametrize("spec, model, d, T", [
        (GE, Drift(), D_1UM, 300.0),
        (GE, IdealMetal(), D_1UM, 300.0),
        (GE, Conductivity(2.09e10), 3e-4, 20.0),
        (SI, Nonlocal(), D_1UM, 77.0)])
    def test_kept_terms_lie_below_their_bounds(self, spec, model, d, T):
        geom = Geometry.identical(d, spec, model)
        for kind, op in (("energy", free_energy_per_area), ("pressure", pressure)):
            coef, a = _coef_and_a(kind, d, T)
            for tol in (Tolerances(), ENTROPY_TOL):
                res = op(geom, T, tolerances=tol)
                what = (model, kind, tol)
                assert res.stats.tail_rows == 0 and res.stats.passes == 1, what
                for n, te, tm in res.per_n_terms[1:]:
                    assert abs(te) + abs(tm) <= passivity_bound(kind, coef, n * a, n * a), (n, what)
                N, L = res.n_truncated_at, math.ceil(60.0 / a)
                assert_close(res.truncation_error_estimate,
                             passivity_bound_sum(kind, coef, a, N + 1, L), 1e-13, str(what))
                assert res.truncation_error_estimate <= tol.sum_rel * abs(res.value), what
                _, te, tm = res.per_n_terms[-1]
                before = res.value - (te + tm)
                assert passivity_bound_sum(kind, coef, a, N, L) > tol.sum_rel * abs(before), what

    # Direct sums with n_expected <= 93 against every term to s = 52.  After
    # three successive terms below sum_rel, the walk stopped up to 1.49
    # sum_rel |value| from it (Ge/Conductivity, 3 um, 20 K, pressure); at the
    # bound's stop each ends within 0.34 sum_rel, and the reported bound,
    # with the quadrature estimate, covers the difference.
    @pytest.mark.parametrize("T, d", [(300.0, D_1UM), (300.0, 10e-4), (77.0, D_1UM),
                                      (40.0, 3e-4), (20.0, 3e-4)],
                             ids=["300K-1um", "300K-10um", "77K-1um", "40K-3um", "20K-3um"])
    @pytest.mark.parametrize("name, spec, model", [
        ("Ge/Drift", GE, Drift()),
        ("Ge/Conductivity", GE, Conductivity(2.09e10)),
        ("Si/Nonlocal", SI, Nonlocal())])
    def test_against_the_complete_sum(self, name, spec, model, T, d):
        geom = Geometry.identical(d, spec, model)
        for kind, op in (("energy", free_energy_per_area), ("pressure", pressure)):
            complete = complete_matsubara_sum(kind, geom, T)
            for tol in (Tolerances(), ENTROPY_TOL):
                res = op(geom, T, tolerances=tol)
                diff = abs(res.value - complete)
                what = (name, kind, tol.sum_rel, diff / (tol.sum_rel * abs(res.value)))
                assert res.stats.tail_rows == 0, what
                assert diff <= tol.sum_rel * abs(res.value), what
                assert res.truncation_error_estimate >= diff - res.quadrature_error_estimate, what


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
        (GE, Drift(), D_1UM, 20.0, free_energy_per_area, 36, "0x1.4099b9416997fp-64"),
        (GE, Drift(), D_1UM, 20.0, pressure, 31, "0x1.2779b97ffe205p-49"),
        (GE, Drift(), D_1UM, 1.0, free_energy_per_area, 15, "0x1.8b21a30346b7dp-68"),
        (GE, Drift(), D_1UM, 1.0, pressure, 11, "0x1.b8623f3dcd871p-54"),
        (SI, Nonlocal(), 0.1e-4, 3.0, free_energy_per_area, 10, "0x1.0a5969b30a149p-60"),
        (GE, Conductivity(2.09e10), D_1UM, 0.1, pressure, 20, "0x1.aa170b72fd6fap-57")])
    def test_head_stop_keeps_its_bits(self, spec, model, d, T, op, m, trunc):
        res = op(Geometry.identical(d, spec, model), T, tolerances=ENTROPY_TOL)
        assert res.n_truncated_at == m
        assert res.truncation_error_estimate == float.fromhex(trunc)

    # The first head block holds n = 0 and min(64, max(M_s, 30) + 10) terms,
    # M_s where Gregory's stop is met by a summand decaying as exp(-a n), and
    # a later head block 16: no energy sum takes a second head block, and no
    # sum a third (tail sums among Ge, Si; Drift, Conductivity; 0.1, 1,
    # 10 um; 40, 10, 1 K; energy, pressure; both tolerance sets).  The Ge/Drift
    # 0.3 um 150 K pressure at the entropy tolerances stops at M = 51 and
    # takes the one follow-up.
    def test_first_head_block_holds_the_head(self):
        cases = [(spec, model, d, T, op, tol) for spec in (GE, SI)
                 for model in (Drift(), Conductivity(2.09e10)) for d in (0.1e-4, D_1UM, 10e-4)
                 for T in (40.0, 10.0, 1.0) for op in (free_energy_per_area, pressure)
                 for tol in (Tolerances(), ENTROPY_TOL)]
        cases.append((GE, Drift(), 0.3e-4, 150.0, pressure, ENTROPY_TOL))
        follow_ups = []
        for spec, model, d, T, op, tol in cases:
            res = op(Geometry.identical(d, spec, model), T, tolerances=tol)
            if not res.stats.tail_rows:
                continue
            a = 2.0 * d * phys.matsubara_xi(1, T) / phys.C_LIGHT
            m_s = math.ceil(math.log(4.0 * abs(lifshitz._GREGORY[8]) * a**9 / tol.sum_rel) / a)
            first = 1 + min(64, max(m_s, 30) + 10)
            more = res.stats.terms_computed - first
            what = (spec.name, model, d, T, op.__name__, tol, res.stats)
            assert more in ((0,) if op is free_energy_per_area else (0, 16)), what
            follow_ups.append(more // 16)
        assert len(follow_ups) == 113 and follow_ups[-1] == 1 and sum(follow_ups) == 1

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

        # two columns, only the one at T has the nan: the refusal names its xi
        def nan_at_T(model, spec, temp):
            return late_nan(model, spec, temp) if temp == T else (
                lambda xi, k: (0.5 + 0.0 * k, 0.0 * k))
        monkeypatch.setattr(lifshitz, "amplitude_fn", nan_at_T)
        for temps in ((T, 1.05 * T), (1.05 * T, T), (0.95 * T, T)):
            bad_xis.clear()
            with pytest.raises(SummationError, match="non-finite") as info:
                free_energies(Geometry.identical(D_1UM, GE, Drift()), temps,
                              tolerances=ENTROPY_TOL)
            assert info.value.diagnostics["xi"] in bad_xis, temps

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

    def test_zero_temperature_is_the_tail_from_zero(self):
        for op in (free_energy_per_area, pressure):
            res = op(Geometry.identical(D_1UM, GE, Bare()), 0.0)
            st = res.stats
            assert res.per_n_terms == () and res.n_truncated_at == -1
            assert res.remainder == res.value and res.truncation_error_estimate == 0.0
            assert st == SumStats(0, 0, st.nodes, st.passes, st.panels, st.nodes)
            assert st.nodes % 441 == 0 and res.warnings == ()

    def test_carrier_models_at_zero_temperature_are_bare(self):
        # no carriers at T = 0: Drift and Nonlocal plates are bare ones, bit for bit
        xi, k = phys.matsubara_xi(1, 300.0), np.geomspace(1e2, 1e6, 9)
        for spec in (GE, SI):
            bare = Geometry.identical(D_1UM, spec, Bare())
            for model in (Drift(), Nonlocal()):
                geom = Geometry.identical(D_1UM, spec, model)
                for op in (free_energy_per_area, pressure):
                    assert op(geom, 0.0) == op(bare, 0.0), (spec.name, model, op.__name__)
                for x in (0.0, xi):
                    for g, g_bare in zip(g_mode(geom, 0.0, x, k), g_mode(bare, 0.0, x, k)):
                        assert np.array_equal(g, g_bare), (spec.name, model, x)

    @pytest.mark.parametrize("tol", [None, ENTROPY_TOL], ids=["default", "entropy"])
    @pytest.mark.parametrize("spec", [GE, SI], ids=["Ge", "Si"])
    def test_millikelvin_sum_meets_zero_temperature(self, spec, tol):
        # Bare, Drift and Nonlocal move as T^3 (read at most 5.3e-4 sum_rel);
        # Conductivity and IdealMetal move linearly in T, 62-7619 sum_rel at 1 mK
        sum_rel = (tol or Tolerances()).sum_rel
        for model in (Bare(), Drift(), Nonlocal()):
            geom = Geometry.identical(D_1UM, spec, model)
            e0 = free_energy_per_area(geom, 0.0, tolerances=tol).value
            e = free_energy_per_area(geom, 1e-3, tolerances=tol).value
            assert abs(e - e0) <= sum_rel * abs(e0), (model, (e - e0) / e0)

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
        # the static term three halvings short of its starting ladder: its
        # first panel, [0, sqrt(60)/16] in w, fails, and the term is already
        # past the panel limit
        monkeypatch.setattr(lifshitz, "_PANEL_LIMIT", 4)
        monkeypatch.setattr(lifshitz, "_STATIC_EDGES",
                            np.delete(lifshitz._STATIC_EDGES, [1, 2, 3]))
        res = free_energy_per_area(Geometry.identical(D_1UM, GE, Drift()), 300.0,
                                   tolerances=TIGHT)
        assert res.warnings == (
            "quadrature note at xi=0.0000e+00 (TM): panel limit (4) reached with error "
            "7.46e-10 above the target 1.05e-10",)
        assert_close(res.value, GE_E_1UM_300K, 1e-9)
        # and its figures bit for bit, as in TestFrozenBits
        assert (res.value.hex(), res.quadrature_error_estimate.hex(),
                res.truncation_error_estimate.hex(), res.remainder.hex()) == (
            "-0x1.757859e1228d7p-23", "0x1.1bafb6b5c2e6dp-54", "0x1.4bc40cccabbeep-64",
            "0x0.0p+0")
        assert res.stats == SumStats(20, 20, 1323, 1, 63, 0)

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
        last_edge = lifshitz._start_panels(np.ones(1), 0)[2][-1]
        monkeypatch.setattr(lifshitz, "_T_END", 60.0)
        assert (last_edge, lifshitz._start_panels(np.ones(1), 0)[2][-1]) == (
            math.sqrt(45.0), math.sqrt(60.0))  # the rows' last panel ends at w = sqrt(_T_END)
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
            term = lifshitz._block_integrals(kind, D_1UM, xi[None], [(pair, pair)],
                                             1e-10)[0][:, 0, 0]
            f = np.empty((2,) + t.shape)
            lifshitz._integrand(kind, D_1UM, xi[0], u_n, t, pair, pair, f)
            tail = (f @ lifshitz._W_KRONROD) @ half
            assert (np.abs(tail) < 1e-16 * np.abs(term)).all(), (model, tail / term)

    @pytest.mark.parametrize("T", [1e-40, 1e-100, 1e-200, 1e-291, 1e-305, 1e-310, 5e-324])
    def test_smallest_temperatures_give_a_value_or_a_casdrift_error(self, T):
        # a value is E(0)'s, as T^3 is far below roundoff there; below 1.6e-292 K,
        # where kB T is no longer a normal float, the sum is refused
        for model in (Bare(), Drift()):
            geom = Geometry.identical(D_1UM, GE, model)
            for op in (free_energy_per_area, pressure):
                try:
                    value = op(geom, T).value
                except DomainError:
                    assert T < 1.6e-292, (model, op.__name__)
                except CasdriftError:
                    assert isinstance(model, Drift), op.__name__  # eta_T^2 - k^2 underflows
                else:
                    assert T > 1.6e-292, (model, op.__name__)
                    assert_close(value, op(geom, 0.0).value, 1e-14,
                                 what=f"{model} {op.__name__}")

    def test_non_finite_node_of_a_dropped_panel_is_refused(self):
        # at 1e-20 K, Q = r1 r2 exp(-u) rounds to 1 at a first-pass node of
        # xi_1's TM integrand (r_TM = 1, u ~ 1e-22): ln(1 - Q) = -inf there,
        # and refining splits that panel away, so a later pass never sees it
        geom = Geometry.identical(D_1UM, GE, Conductivity(2.09e10))
        T = 1e-20
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(SummationError, match="non-finite energy integral") as info:
                free_energy_per_area(geom, T)
        xi = info.value.diagnostics["xi"]  # a term's Matsubara frequency, not a tail node's
        n = round(xi / phys.matsubara_xi(1, T))
        assert n >= 1 and xi == pytest.approx(phys.matsubara_xi(n, T), rel=1e-14), xi
        for t in (1e-15, 1e-12, 1e-10):  # a finite pass throughout
            assert_close(free_energy_per_area(geom, t).value, -1.52135233602e-7, 1e-11, t)

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
        for T in (-5.0, math.nan, math.inf):
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


# The 1280-sum grid: Ge, Si; Bare, Drift, Nonlocal, Conductivity(2.09e10);
# d = 0.1, 0.3, 1, 3, 10 um; T = 300, 150, 77, 40, 20, 10, 4, 1 K; energy and
# pressure; default and entropy tolerances.  Halving quad_rel and sum_rel
# (sum_rel held at its floor, 1e-12) moves no value by more than the two
# sums' reported errors, quadrature plus truncation, and no sum leaves a
# note.  One side's error alone is too tight: 16 Si tail sums at the default
# tolerances (1 um 40 and 20 K and 10 um 4 K pressures, 3 um 10 K energies)
# move by 1.04-1.24 of it, and by at most 0.69 of both.
@pytest.mark.slow
@pytest.mark.parametrize("model", [Bare(), Drift(), Nonlocal(), Conductivity(2.09e10)],
                         ids=["bare", "drift", "nonlocal", "cond"])
@pytest.mark.parametrize("spec", [GE, SI], ids=["Ge", "Si"])
def test_halved_tolerances_move_no_sum_beyond_both_errors(spec, model):
    for d_um in (0.1, 0.3, 1.0, 3.0, 10.0):
        geom = Geometry.identical(d_um * 1e-4, spec, model)
        for T in (300.0, 150.0, 77.0, 40.0, 20.0, 10.0, 4.0, 1.0):
            for op in (free_energy_per_area, pressure):
                for tol in (Tolerances(), ENTROPY_TOL):
                    halved = Tolerances(0.5 * tol.quad_rel, max(0.5 * tol.sum_rel, 1e-12))
                    a, b = op(geom, T, tolerances=tol), op(geom, T, tolerances=halved)
                    errors = (a.quadrature_error_estimate + a.truncation_error_estimate
                              + b.quadrature_error_estimate + b.truncation_error_estimate)
                    what = (d_um, T, op.__name__, tol, a.value, b.value, errors)
                    assert abs(a.value - b.value) <= errors, what
                    assert a.warnings == b.warnings == (), what


# Every direct sum of a 1,200-sum grid (Ge, Si; Bare, Drift, Nonlocal,
# Conductivity(2.09e10), IdealMetal; 0.1-10 um; 300, 150, 77, 40, 20, 1 K;
# energy and pressure; default and entropy tolerances) takes one block and
# one pass: its first block, sized to the bound's stop for a value of coef/a,
# holds the stop.  560 of the sums are direct.
@pytest.mark.slow
def test_direct_sums_take_one_pass():
    direct = 0
    for spec in (GE, SI):
        for model in (Bare(), Drift(), Nonlocal(), Conductivity(2.09e10), IdealMetal()):
            for d_um in (0.1, 0.3, 1.0, 3.0, 10.0):
                geom = Geometry.identical(d_um * 1e-4, spec, model)
                for T in (300.0, 150.0, 77.0, 40.0, 20.0, 1.0):
                    for op in (free_energy_per_area, pressure):
                        for tol in (Tolerances(), ENTROPY_TOL):
                            st = op(geom, T, tolerances=tol).stats
                            if st.tail_rows == 0:
                                direct += 1
                                assert st.passes == 1, (spec.name, model, d_um, T, op, tol, st)
    assert direct == 560


# The energy cases of the 1280-sum grid at the entropy tolerances, summed as
# entropy() sums them: four columns at T +- h and T +- h/2, h = T/20, on the
# lowest temperature's layout.  Each column lies within both reported errors
# of its own single sum and leaves no note.
@pytest.mark.slow
@pytest.mark.parametrize("model", [Bare(), Drift(), Nonlocal(), Conductivity(2.09e10)],
                         ids=["bare", "drift", "nonlocal", "cond"])
@pytest.mark.parametrize("spec", [GE, SI], ids=["Ge", "Si"])
def test_entropy_columns_lie_within_their_single_sums_errors(spec, model):
    for d_um in (0.1, 0.3, 1.0, 3.0, 10.0):
        geom = Geometry.identical(d_um * 1e-4, spec, model)
        for T in (300.0, 150.0, 77.0, 40.0, 20.0, 10.0, 4.0, 1.0):
            h = T / 20.0
            temps = (T + h, T - h, T + 0.5 * h, T - 0.5 * h)
            for t, col in zip(temps, free_energies(geom, temps, tolerances=ENTROPY_TOL)):
                single = free_energy_per_area(geom, t, tolerances=ENTROPY_TOL)
                errors = (col.quadrature_error_estimate + col.truncation_error_estimate
                          + single.quadrature_error_estimate
                          + single.truncation_error_estimate)
                what = (d_um, t, col.value, single.value, errors)
                assert abs(col.value - single.value) <= errors, what
                assert col.warnings == (), what
