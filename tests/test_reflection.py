import math
import random
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casdrift import phys
from casdrift.errors import DomainError, EvaluationError
from casdrift.materials import GE, SI, SellmeierPermittivity, bare_eps, material_state
from casdrift.reflection import (
    Bare,
    Conductivity,
    Drift,
    IdealMetal,
    Nonlocal,
    amplitude_fn,
)

from conftest import assert_close, logspace, neville_to_zero
from oracles import Mode, chi, drift_quantities, r_oracle_bc, zero_carrier

XI1 = phys.matsubara_xi(1, 300.0)
ALL_MODELS = [Bare(), Conductivity(sigma0=2.09e10), Drift(), Nonlocal()]


def mp_drift_quantities(spec, T, xi, k, dps=30):
    """Multiprecision (``dps``-digit) re-evaluation of the drift-model quantities.

    Returns mpmath values (eps_bar, eta_L, eta_T, chi, r_tm, r_te) computed
    from the textbook expressions; cast to float where a 1e-12-level
    comparison suffices.
    """
    mp.mp.dps = dps
    st_ = material_state(spec, T)
    ebar = mp.mpf(spec.permittivity.eps_inf) + mp.mpf(spec.permittivity.omega0)**2 * (
        mp.mpf(spec.permittivity.eps0) - mp.mpf(spec.permittivity.eps_inf)
    ) / (mp.mpf(xi)**2 + mp.mpf(spec.permittivity.omega0)**2)
    e = mp.mpf(phys.E_CHARGE)
    kB = mp.mpf(phys.K_B)
    c = mp.mpf(phys.C_LIGHT)
    n0, tau, D = mp.mpf(st_.n0), mp.mpf(st_.tau), mp.mpf(st_.D)
    sig0 = mp.mpf(st_.sigma0)
    xi_, k_ = mp.mpf(xi), mp.mpf(k)
    w = (xi_ / c)**2
    etaT_ = mp.sqrt(k_**2 + ebar * w + 4 * mp.pi * sig0 * xi_ / (c**2 * (1 + xi_ * tau)))
    etaL_ = mp.sqrt(k_**2 + 4 * mp.pi * e**2 * n0 / (ebar * kB * T) + xi_ * (1 + xi_ * tau) / D)
    g = mp.sqrt(k_**2 + w)
    chi_ = (k_**2 + ebar * w * (etaL_ * etaT_ - k_**2) / (etaT_**2 - k_**2)) / etaL_
    rtm = (ebar * g - chi_) / (ebar * g + chi_)
    rte = (g - etaT_) / (g + etaT_)
    return ebar, etaL_, etaT_, chi_, rtm, rte


def mp_drift_amplitudes(spec, T, xi, k):
    _, etaL_, etaT_, chi_, rtm, rte = mp_drift_quantities(spec, T, xi, k)
    return float(etaL_), float(etaT_), float(chi_), float(rtm), float(rte)


class TestMode:
    def test_gamma0_dominates_k(self):
        m = Mode(xi=XI1, k=1e4)
        assert m.gamma0 >= m.k
        assert_close(m.gamma0, math.hypot(1e4, XI1 / phys.C_LIGHT), 1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            Mode(xi=-1.0, k=1e4)
        with pytest.raises(DomainError):
            Mode(xi=1e14, k=0.0)


class TestDriftQuantities:
    def test_eta_l_static_is_screened_wavevector(self):
        st_ = material_state(GE, 300.0)
        dq = drift_quantities(Mode(xi=0.0, k=1e4), st_, 16.2)
        assert_close(dq.eta_L, math.hypot(1e4, st_.kappa), 1e-12)
        assert dq.eta_T == 1e4
        assert_close(dq.chi, 1e8 / dq.eta_L, 1e-12)

    def test_eta_l_without_carriers_keeps_diffusion_term(self):
        spec = zero_carrier(GE)
        st_ = material_state(spec, 300.0)
        m = Mode(xi=XI1, k=1e4)
        expect = math.sqrt(1e8 + XI1 * (1 + XI1 * st_.tau) / (st_.v_T**2 * st_.tau))
        assert_close(drift_quantities(m, st_, bare_eps(spec, XI1)).eta_L, expect, 1e-12)

    def test_eta_t_reduces_to_bare_without_conductivity(self):
        spec = zero_carrier(GE)
        st_ = material_state(spec, 300.0)
        eps = bare_eps(spec, XI1)
        m = Mode(xi=XI1, k=1e4)
        assert_close(drift_quantities(m, st_, eps).eta_T,
                     math.sqrt(1e8 + eps * (XI1 / phys.C_LIGHT)**2), 1e-13)

    def test_eta_t_limit_is_k_as_xi_vanishes(self):
        st_ = material_state(GE, 300.0)
        for m_exp in (6, 8, 10):
            xi = XI1 * 10.0**-m_exp
            m = Mode(xi=xi, k=1e4)
            assert drift_quantities(m, st_, bare_eps(GE, xi)).eta_T == pytest.approx(
                1e4, rel=1e-6)

    def test_chi_equals_eta_t_without_carriers(self):
        # sigma0 = 0 makes the bracket collapse: chi == eta_T identically
        spec = zero_carrier(GE)
        st_ = material_state(spec, 300.0)
        for k in logspace(1e2, 1e6, 7):
            for xi in logspace(1e-3 * XI1, 1e3 * XI1, 7):
                dq = drift_quantities(Mode(xi=xi, k=k), st_, bare_eps(spec, xi))
                assert_close(dq.chi, dq.eta_T, 1e-12)

    def test_chi_static_limit_form(self):
        # the leading correction is linear in xi (~6e-4 here); 1e-3 pins the
        # limit without chasing the subleading slope
        st_ = material_state(GE, 300.0)
        k = 1e4
        xi = 1e-6 * XI1
        dq = drift_quantities(Mode(xi=xi, k=k), st_, bare_eps(GE, xi))
        assert_close(dq.chi, k * k / math.hypot(k, st_.kappa), 1e-3)

    def test_textbook_chi_matches_stable_form(self):
        st_ = material_state(GE, 300.0)
        m = Mode(xi=XI1, k=1e4)
        eps = bare_eps(GE, XI1)
        dq = drift_quantities(m, st_, eps)
        assert_close(chi(m, dq.eta_L, dq.eta_T, eps), dq.chi, 1e-12)

    def test_chi_guards_degenerate_denominator(self):
        m = Mode(xi=XI1, k=1e4)
        with pytest.raises(EvaluationError):
            chi(m, 2e4, 1e4, 16.0)  # eta_T == k cannot occur physically

    def test_multiprecision_oracle(self):
        st_ = material_state(GE, 300.0)
        for k, xi in [(1e4, XI1), (3e3, 0.37 * XI1), (2e5, 12.0 * XI1)]:
            eL, eT, ch, _, _ = mp_drift_amplitudes(GE, 300.0, xi, k)
            m = Mode(xi=xi, k=k)
            eps = bare_eps(GE, xi)
            dq = drift_quantities(m, st_, eps)
            assert_close(dq.eta_L, eL, 1e-12)
            assert_close(dq.eta_T, eT, 1e-12)
            assert_close(dq.chi, ch, 1e-12)


class TestStaticLimits:
    @pytest.mark.parametrize("model", ALL_MODELS + [IdealMetal()])
    def test_te_vanishes_exactly_at_zero_frequency(self, model):
        for k in logspace(1e2, 1e6, 5):
            assert amplitude_fn(model, GE, 300.0)(0.0, k)[1] == 0.0

    def test_drift_static_value_at_k_equal_kappa(self):
        st_ = material_state(GE, 300.0)
        r = amplitude_fn(Drift(), GE, 300.0)(0.0, st_.kappa)[0]
        assert_close(r, (16.2 * math.sqrt(2) - 1) / (16.2 * math.sqrt(2) + 1), 1e-12)

    def test_conductivity_static_tm_is_perfect_reflector(self):
        assert amplitude_fn(Conductivity(sigma0=2e10), GE, 300.0)(0.0, 1e4)[0] == 1.0

    def test_bare_static_tm(self):
        assert_close(amplitude_fn(Bare(), GE, 300.0)(0.0, 1e4)[0],
                     (16.2 - 1) / (16.2 + 1), 1e-12)

    def test_drift_tm_limit_matches_static_branch(self):
        # approach along xi = 10^-m xi_1; extrapolate the analytic-in-xi
        # sequence to 0 (m = 3..6 alone resolves only ~1e-7 at small k,
        # one decade further pins the limit well below 1e-8)
        pair = amplitude_fn(Drift(), GE, 300.0)
        ms = (4, 5, 6, 7)
        for k in logspace(1e2, 1e6, 7):
            seq = [pair(XI1 * 10.0**-m, k)[0] for m in ms]
            limit = neville_to_zero([10.0**-m for m in ms], seq)
            assert_close(limit, pair(0.0, k)[0], 1e-8, what=f"k={k:.2e}")

    def test_large_screening_perfect_conductor(self):
        st_ = material_state(GE, 300.0)
        r = amplitude_fn(Drift(), GE, 300.0)(0.0, 1e-3 * st_.kappa)[0]
        assert r > 0.999

    @pytest.mark.parametrize("model", [Drift(), Nonlocal()])
    def test_static_tm_at_tiny_k_is_scale_safe(self, model):
        # Ge has no carriers at 1 K (kappa = 0): the static TM is Bare's;
        # at 300 K (kappa/k)^2 overflows and the plate reflects perfectly
        assert material_state(GE, 1.0).kappa == 0.0
        assert (amplitude_fn(model, GE, 1.0)(0.0, 1e-170)[0]
                == amplitude_fn(Bare(), GE, 1.0)(0.0, 1e-170)[0])
        assert amplitude_fn(model, GE, 300.0)(0.0, 1e-170)[0] == 1.0

    def test_static_tm_strictly_decreasing_in_k(self):
        vals = [amplitude_fn(Drift(), GE, 300.0)(0.0, k)[0]
                for k in logspace(1e2, 1e6, 25)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestIdealDielectricReduction:
    def test_drift_equals_bare_without_carriers(self):
        spec = zero_carrier(GE)
        pair_d = amplitude_fn(Drift(), spec, 300.0)
        pair_b = amplitude_fn(Bare(), spec, 300.0)
        for k in logspace(1e2, 1e6, 20):
            for xi in logspace(1e-3 * XI1, 1e3 * XI1, 20):
                rd = pair_d(xi, k)
                rb = pair_b(xi, k)
                assert_close(rd[0], rb[0], 1e-10, what=f"TM k={k:.2e} xi={xi:.2e}")
                assert_close(rd[1], rb[1], 1e-10, what=f"TE k={k:.2e} xi={xi:.2e}")

    def test_bare_is_conductivity_zero_bit_for_bit(self):
        # Conductivity(0) adds exact zeros to eps and X, so Fresnel's
        # exact-X form must give Bare's numbers bit for bit
        def bits(v):
            return np.asarray(v, dtype=float).tobytes()

        ks = np.logspace(0.0, 7.0, 57)
        for spec in (GE, SI):
            for T in (300.0, 77.0, 1.0):
                bare = amplitude_fn(Bare(), spec, T)
                cond = amplitude_fn(Conductivity(sigma0=0.0), spec, T)
                xis = [phys.matsubara_xi(n, T) for n in range(40)]
                for xi in xis:
                    for k in ks.tolist():
                        assert bits(bare(xi, k)) == bits(cond(xi, k)), (spec.name, T, xi, k)
                grid = np.array(xis[1:])[:, None]
                for xi, k in ((0.0, ks), (grid, ks), (grid, np.broadcast_to(ks, (39, 57)))):
                    got_b, got_c = bare(xi, k), cond(xi, k)
                    for c in (0, 1):
                        assert bits(got_b[c]) == bits(got_c[c]), (spec.name, T, c)

    def test_no_interface_gives_zero(self):
        # eps == 1: both Fresnel amplitudes vanish identically; the
        # resonance sits so far below xi_1 that eps(i xi_1) rounds to 1
        vacuum = replace(GE, permittivity=SellmeierPermittivity(
            eps0=1.0 + 2.0**-52, eps_inf=1.0, omega0=1e12))
        assert bare_eps(vacuum, XI1) == 1.0
        r_tm_v, r_te_v = amplitude_fn(Bare(), vacuum, 300.0)(XI1, 1e4)
        assert r_tm_v == 0.0 and r_te_v == 0.0


class TestAmplitudes:
    def test_drift_matches_multiprecision(self):
        pair = amplitude_fn(Drift(), GE, 300.0)
        for k, xi in [(1e4, XI1), (3e3, 0.37 * XI1), (2e5, 12.0 * XI1)]:
            _, _, _, rtm_ref, rte_ref = mp_drift_amplitudes(GE, 300.0, xi, k)
            rtm, rte = pair(xi, k)
            assert_close(rtm, rtm_ref, 1e-12)
            assert_close(rte, rte_ref, 1e-12)

    def test_te_is_fresnel_with_conduction_permittivity(self):
        st_ = material_state(GE, 300.0)
        k = 1e4
        eps_eff = bare_eps(GE, XI1) + 4 * math.pi * st_.sigma0 / (
            XI1 * (1 + XI1 * st_.tau))
        g = math.hypot(k, XI1 / phys.C_LIGHT)
        eta = math.sqrt(k * k + eps_eff * (XI1 / phys.C_LIGHT) ** 2)
        ref = (g - eta) / (g + eta)
        got = amplitude_fn(Drift(), GE, 300.0)(XI1, k)[1]
        assert got < 0.0
        assert_close(got, ref, 1e-10)

    def test_nonlocal_model_equals_drift(self):
        pair_n = amplitude_fn(Nonlocal(), GE, 300.0)
        pair_d = amplitude_fn(Drift(), GE, 300.0)
        for k in (1e3, 1e4, 1e5):
            for xi in (0.0, XI1, 10 * XI1):
                rn, rd = pair_n(xi, k), pair_d(xi, k)
                assert_close(rn[0], rd[0], 1e-10)
                if xi > 0:
                    assert_close(rn[1], rd[1], 1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([0, 1, 2, 3]),
        st.floats(min_value=2.0, max_value=6.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_passivity(self, model_idx, log_k, log_xi_rel):
        model = ALL_MODELS[model_idx]
        k = 10.0**log_k
        xi = XI1 * 10.0**log_xi_rel
        for spec in (GE, SI):
            for pol, r in enumerate(amplitude_fn(model, spec, 300.0)(xi, k)):
                assert -1.0 < r <= 1.0, (model, spec.name, pol, k, xi)


class TestBoundaryConditionOracle:
    def test_agreement_on_random_modes(self):
        # the oracle receives 30-digit eta inputs: near-grazing corners carry
        # TE amplitudes ~1e-9, far below what rounded float etas can encode
        rng = random.Random(20240817)
        pair = amplitude_fn(Drift(), GE, 300.0)
        for _ in range(50):
            k = 10.0 ** rng.uniform(2, 6)
            xi = XI1 * 10.0 ** rng.uniform(-3, 3)
            ebar, etaL_, etaT_, _, _, _ = mp_drift_quantities(GE, 300.0, xi, k)
            rtm_o, rte_o = r_oracle_bc(Mode(xi=xi, k=k), etaL_, etaT_, ebar)
            rtm_c, rte_c = pair(xi, k)
            assert_close(rtm_o, rtm_c, 1e-9, what=f"TM k={k:.2e} xi={xi:.2e}")
            assert_close(rte_o, rte_c, 1e-9, what=f"TE k={k:.2e} xi={xi:.2e}")

    def test_nonlocal_at_extreme_scale_separation(self):
        # down to xi/(c k) = 1e-12 the closed-form Nonlocal amplitudes
        # match Drift and the oracle; TE falls to ~1e-24 there, so the
        # oracle gets 50-digit etas
        for spec in (GE, SI):
            for T in (300.0, 10.0):
                drift = amplitude_fn(Drift(), spec, T)
                nonlocal_ = amplitude_fn(Nonlocal(), spec, T)
                for k in (1e2, 1e4, 1e6):
                    for ratio in (1e-8, 1e-10, 1e-12):
                        xi = ratio * phys.C_LIGHT * k
                        ebar, etaL_, etaT_, _, _, _ = mp_drift_quantities(
                            spec, T, xi, k, dps=50)
                        oracle = r_oracle_bc(Mode(xi=xi, k=k), etaL_, etaT_, ebar)
                        what = f"{spec.name} T={T} k={k:.0e} xi/(ck)={ratio:.0e}"
                        for r_n, r_d, r_o in zip(nonlocal_(xi, k), drift(xi, k), oracle):
                            assert_close(r_n, r_d, 1e-8, what=what)
                            assert_close(r_n, r_o, 1e-9, what=what)

    def test_reproduces_textbook_fresnel_without_carriers(self):
        spec = zero_carrier(SI)
        st_ = material_state(spec, 300.0)
        eps = bare_eps(spec, XI1)
        m = Mode(xi=XI1, k=5e3)
        dq = drift_quantities(m, st_, eps)
        rtm_o, rte_o = r_oracle_bc(m, dq.eta_L, dq.eta_T, eps)
        rtm_f, rte_f = amplitude_fn(Bare(), spec, 300.0)(XI1, 5e3)
        assert_close(rtm_o, rtm_f, 1e-10)
        assert_close(rte_o, rte_f, 1e-10)

    def test_te_longitudinal_branch_not_excited(self):
        st_ = material_state(GE, 300.0)
        eps = bare_eps(GE, XI1)
        m = Mode(xi=XI1, k=1e4)
        dq = drift_quantities(m, st_, eps)
        _, _, extras = r_oracle_bc(m, dq.eta_L, dq.eta_T, eps, full=True)
        assert extras["A_long"] == 0.0
        # TM branch amplitudes exist and are finite
        assert math.isfinite(extras["A_T"]) and math.isfinite(extras["A_L"])

    def test_requires_positive_frequency(self):
        with pytest.raises(DomainError):
            r_oracle_bc(Mode(xi=0.0, k=1e4), 1e4, 1e4, 16.2)


class TestArrayEvaluation:
    def test_array_k_matches_scalar_calls(self):
        # one body serves floats and arrays: every provider, a row of k at
        # fixed xi (xi = 0 takes the static branch) and an (xi, k) grid
        ks = np.logspace(1.0, 7.0, 25)
        xis = np.array([0.1, 1.0, 30.0])[:, None] * XI1
        for model in ALL_MODELS + [IdealMetal()]:
            for spec in (GE, SI):
                for T in (300.0, 77.0, 1.0):
                    pair = amplitude_fn(model, spec, T)
                    cases = [(xi, ks) for xi in (0.0, 0.1 * XI1, XI1, 30.0 * XI1)]
                    cases.append((xis, np.broadcast_to(ks, (3, ks.size))))
                    for xi, k in cases:
                        got = pair(xi, k)
                        xi_b = np.broadcast_to(xi, k.shape)
                        for c in (0, 1):
                            arr = np.broadcast_to(got[c], k.shape)
                            for x, kk, v in zip(xi_b.flat, k.flat, arr.flat):
                                want = pair(float(x), float(kk))[c]
                                assert abs(v - want) <= 1e-15 * abs(want), (
                                    model, spec.name, T, c, x, kk, v, want)

    @pytest.mark.parametrize("model", ALL_MODELS + [IdealMetal()],
                             ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("xi", [math.nan, math.inf, -1.0,
                                    np.array([1e13, math.nan]),
                                    np.array([1e13, math.inf]),
                                    np.array([1e13, -1.0])],
                             ids=["nan", "inf", "-1",
                                  "array-nan", "array-inf", "array-neg"])
    def test_every_provider_refuses_bad_frequencies(self, model, xi):
        pair = amplitude_fn(model, GE, 300.0)
        with pytest.raises(DomainError, match="imaginary frequency"):
            pair(xi, 1e4)


def test_dispatch_rejects_unknown_model():
    class Fake:
        __hash__ = object.__hash__
    with pytest.raises(DomainError):
        amplitude_fn(Fake(), GE, 300.0)  # type: ignore[arg-type]
