import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
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

    def test_carrier_models_at_zero_temperature_are_bare(self):
        # n0 = 0 at T = 0: the carrier models hand back Bare's cached provider
        for spec in (GE, SI):
            bare = amplitude_fn(Bare(), spec, 0.0)
            assert amplitude_fn(Drift(), spec, 0.0) is bare
            assert amplitude_fn(Nonlocal(), spec, 0.0) is bare

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


def _hex(v):
    return [float(x).hex() for x in np.asarray(v, dtype=float).ravel()]


class TestFrequencyStageMemo:
    """Each provider keeps the frequency stage of its last float xi."""

    MODELS = ALL_MODELS + [IdealMetal()]
    KS = np.logspace(1.0, 7.0, 9).tolist()

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_call_order_does_not_change_bits(self, model):
        # xi outer (the memo hits), k outer (it always misses) and a fresh
        # closure per call (it never exists) give the same bits
        for spec in (GE, SI):
            for T in (300.0, 20.0):
                pair = amplitude_fn(model, spec, T)
                xis = [phys.matsubara_xi(n, T) for n in range(6)] + [0.37 * XI1]
                grid = [(xi, k) for xi in xis for k in self.KS]
                xi_outer = [_hex(pair(xi, k)) for xi, k in grid]
                k_outer = {(xi, k): _hex(pair(xi, k)) for k in self.KS for xi in xis}
                fresh = [_hex(amplitude_fn.__wrapped__(model, spec, T)(xi, k))
                         for xi, k in grid]
                assert xi_outer == [k_outer[p] for p in grid] == fresh, (spec.name, T)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_bad_frequency_after_a_cached_one_still_fails(self, model):
        pair = amplitude_fn(model, GE, 300.0)
        want = _hex(pair(XI1, 1e4))
        for xi in (math.nan, math.inf, -math.inf, -XI1, -0.5):
            with pytest.raises(DomainError, match="imaginary frequency"):
                pair(xi, 1e4)
            assert _hex(pair(XI1, 1e4)) == want
        static = amplitude_fn.__wrapped__(model, GE, 300.0)(0.0, 1e4)
        pair(XI1, 1e4)
        assert _hex(pair(0.0, 1e4)) == _hex(static)
        # a numpy scalar runs the stage itself and gives the float's bits
        assert _hex(pair(np.float64(XI1), 1e4)) == want

    def test_two_threads_get_the_bits_of_one(self):
        # two threads alternate xi on one shared provider; a short switch
        # interval makes them interleave inside the calls
        xis = [phys.matsubara_xi(n, 300.0) for n in range(1, 5)]
        ks = np.logspace(2.0, 6.0, 250).tolist()
        # 1,000 calls per thread; thread a walks xi_1..xi_4, thread b
        # xi_4..xi_1, so each call changes xi
        work = {"a": [(xi, k) for k in ks for xi in xis],
                "b": [(xi, k) for k in ks for xi in reversed(xis)]}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for model in ALL_MODELS:
                single = {name: [_hex(amplitude_fn.__wrapped__(model, GE, 300.0)(xi, k))
                                 for xi, k in pts] for name, pts in work.items()}
                pair = amplitude_fn.__wrapped__(model, GE, 300.0)
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = {name: pool.submit(lambda pts: [_hex(pair(xi, k)) for xi, k in pts],
                                                 pts) for name, pts in work.items()}
                    assert {name: f.result() for name, f in futures.items()} == single, model
        finally:
            sys.setswitchinterval(interval)


def test_drift_underflow_fails_alike_for_floats_and_arrays():
    # at xi = 1e-160, 1 K (no carriers) X = eta_T^2 - k^2 underflows to 0:
    # the frequency stage refuses it for a float and for an array alike
    pair = amplitude_fn(Drift(), GE, 1.0)
    for xi, k in ((1e-160, 1e4), (np.array([1e-160]), 1e4),
                  (np.array([[XI1], [1e-160]]), np.array([1e3, 1e4]))):
        for _ in range(2):  # a failed stage is not remembered
            with pytest.raises(EvaluationError, match="underflowed"):
                pair(xi, k)


# The premise of the direct Matsubara sum's stop (casdrift.lifshitz): on
# the imaginary axis every model is passive, |r_TM| <= 1 and |r_TE| <= 1,
# for float and array calls alike and at the static xi = 0.  The maximum
# is exactly 1 (IdealMetal, and Conductivity's static TM).
@pytest.mark.parametrize("model", ALL_MODELS + [IdealMetal()], ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("spec", [GE, SI], ids=["Ge", "Si"])
def test_amplitudes_are_passive_on_matsubara_grids(spec, model):
    ns = np.array([1.0, 2.0, 5.0, 20.0, 100.0, 1e3, 1e4])
    for T in (0.1, 1.0, 10.0, 77.0, 300.0, 400.0):
        pair = amplitude_fn(model, spec, T)
        xis = ns * phys.matsubara_xi(1, T)
        ks = np.logspace(-3.0, 8.0, 23)  # 1/cm; xi_1/c is 2.7/cm at 0.1 K and 1.1e4/cm at 400 K
        for k in ks.tolist():
            for xi in [0.0] + xis.tolist():
                assert max(map(abs, pair(xi, k))) <= 1.0, (T, xi, k)
        for r in pair(xis[:, None], ks):
            assert (np.abs(r) <= 1.0).all(), T
        for r in pair(0.0, ks):
            assert (np.abs(r) <= 1.0).all(), T


# Amplitudes on Ge at 300 K, pinned to the bit: r(xi, k) for
# xi in (0.3, 1, 30) xi_1 and k in (1e2, 1e4, 1e6) 1/cm as (r_tm, r_te)
# pairs, xi outer; then one array call at xi = [[0.5], [3], [20]] xi_1 and
# eight k log-spaced over 1e2-1e6 1/cm, as the (3, 8) r_tm and r_te
# blocks.  A change to the order of any kernel's arithmetic shows here.
FROZEN_BITS = {
    "Bare": (
        [("0x1.3453137c8fde3p-1", "-0x1.3412d687b1343p-1"),
         ("0x1.b034ea4061ab9p-1", "-0x1.3ed24627c92fap-3"),
         ("0x1.c473789b769e3p-1", "-0x1.84b0b97995882p-16"),
         ("0x1.340abbb731229p-1", "-0x1.3404f1c76f1a0p-1"),
         ("0x1.6edd5e0e65d14p-1", "-0x1.d1d71963e969bp-2"),
         ("0x1.c44f194b04bf6p-1", "-0x1.0d303feefa41dp-12"),
         ("0x1.a836292039f66p-2", "-0x1.a83625598cf6ap-2"),
         ("0x1.a87fd2dc13d7ap-2", "-0x1.a7ec76503a9a9p-2"),
         ("0x1.59b51d912ccd3p-1", "-0x1.f522b5bcb2096p-5")],
        [["0x1.3436f223023e2p-1", "0x1.34cb507e84a59p-1", "0x1.3c484468b3185p-1",
          "0x1.713d5a385e63dp-1", "0x1.b4834b912f881p-1", "0x1.c3101ac7dcde3p-1",
          "0x1.c45546dd6c70bp-1", "0x1.c46d12fb32e00p-1", "0x1.32903cac9af0bp-1",
          "0x1.329466ad40beap-1", "0x1.32ce2378ac845p-1", "0x1.35d9933d26ff5p-1",
          "0x1.54468891eb9a9p-1", "0x1.a221c8235fd5cp-1", "0x1.bfdf46d48e9bep-1",
          "0x1.c3106e1fae4fbp-1", "0x1.fa869c2b90508p-2", "0x1.fa86d19110c93p-2",
          "0x1.fa89b77934758p-2", "0x1.fab1f57906573p-2", "0x1.fcdc12dbc9fd4p-2",
          "0x1.0bcc45a5580b7p-1", "0x1.53fae29a1c796p-1", "0x1.8dda70af1f170p-1"],
         ["-0x1.341fce268224cp-1", "-0x1.338b11c2b5bebp-1", "-0x1.2bce733c2ff71p-1",
          "-0x1.cab515bd81770p-2", "-0x1.0236a20946c41p-3", "-0x1.8bef2d503b1fcp-7",
          "-0x1.d3b83db5d0936p-11", "-0x1.0dcb5463309ecp-14", "-0x1.328f974feb2d9p-1",
          "-0x1.328b6d3c93318p-1", "-0x1.3251a262d02bfp-1", "-0x1.2f3c0a9c6034ep-1",
          "-0x1.0c1fc0e3cd4a0p-1", "-0x1.d9f1e3757a9e3p-3", "-0x1.e249815b4463fp-6",
          "-0x1.27c09df00866ep-9", "-0x1.fa8693e36cb42p-2", "-0x1.fa865e7de804ep-2",
          "-0x1.fa83789297160p-2", "-0x1.fa5b382e0e7c6p-2", "-0x1.f82f53382d891p-2",
          "-0x1.dc553d7506d34p-2", "-0x1.1ba614b84693ap-2", "-0x1.7cb6f8866b205p-5"]]),
    "Conductivity": (
        [("0x1.3457a67c8d3a1p-1", "-0x1.34176a6078736p-1"),
         ("0x1.b03803d06e82ep-1", "-0x1.3ee03177c967dp-3"),
         ("0x1.c4769d7925aa8p-1", "-0x1.84c7f3b2a038ap-16"),
         ("0x1.340c1c1c5eb38p-1", "-0x1.340652327a824p-1"),
         ("0x1.6ede81497a908p-1", "-0x1.d1da3c20c64e0p-2"),
         ("0x1.c4500bb518339p-1", "-0x1.0d35157f2ba33p-12"),
         ("0x1.a8367db1b3025p-2", "-0x1.a83679eb0602ap-2"),
         ("0x1.a880276d8c7a7p-2", "-0x1.a7eccae1b290ep-2"),
         ("0x1.59b54dd402a04p-1", "-0x1.f5238b258def2p-5")],
        [["0x1.3439b1457c41ap-1", "0x1.34ce0e7447ebfp-1", "0x1.3c4af3172e67ap-1",
          "0x1.713f9a91a6ef8p-1", "0x1.b48526416f312p-1", "0x1.c311fc13804e2p-1",
          "0x1.c4572a00a3d1ap-1", "0x1.c46ef6438ca77p-1", "0x1.3290b4eab6c41p-1",
          "0x1.3294dee9f2280p-1", "0x1.32ce9ba1bbc84p-1", "0x1.35da0a5c6ebacp-1",
          "0x1.5446f5198f200p-1", "0x1.a2221c53433e6p-1", "0x1.bfdf99a35bd2fp-1",
          "0x1.c310c1a50e5abp-1", "0x1.fa86e940f4e6bp-2", "0x1.fa871ea672db1p-2",
          "0x1.fa8a048e738d3p-2", "0x1.fab2428c5fc15p-2", "0x1.fcdc5fd504eb2p-2",
          "0x1.0bcc6b817e896p-1", "0x1.53fb05c5d345bp-1", "0x1.8dda953dd7539p-1"],
         ["-0x1.34228d77daf24p-1", "-0x1.338dd2407773fp-1", "-0x1.2bd142c8f68d2p-1",
          "-0x1.cabb5b9124b44p-2", "-0x1.023dd226503b9p-3", "-0x1.8bfd0a49d5583p-7",
          "-0x1.d3c8fd0bfc32cp-11", "-0x1.0dd5018bab138p-14", "-0x1.32900f8e3f38bp-1",
          "-0x1.328be57c51a3bp-1", "-0x1.32521ab62ea45p-1", "-0x1.2f3c83f7f3d4fp-1",
          "-0x1.0c2043e279f5ap-1", "-0x1.d9f3b1c3496b2p-3", "-0x1.e24c47fe9a4c1p-6",
          "-0x1.27c26a1323ce6p-9", "-0x1.fa86e0f8d1ae6p-2", "-0x1.fa86ab934f839p-2",
          "-0x1.fa83c5a8218e4p-2", "-0x1.fa5b85457e429p-2", "-0x1.f82fa0697436ep-2",
          "-0x1.dc558bb823b35p-2", "-0x1.1ba65d00e5f5bp-2", "-0x1.7cb794aa8db02p-5"]]),
    "Drift": (
        [("0x1.345353240cd1fp-1", "-0x1.3413163af8f1dp-1"),
         ("0x1.b0351548b87d9p-1", "-0x1.3ed307d67d4b9p-3"),
         ("0x1.c4739940eaf64p-1", "-0x1.84b1fca95e453p-16"),
         ("0x1.340ac179cd7c2p-1", "-0x1.3404f78a24049p-1"),
         ("0x1.6edd62d08e992p-1", "-0x1.d1d72682fa71cp-2"),
         ("0x1.c44f1cf1b4129p-1", "-0x1.0d305429637ebp-12"),
         ("0x1.a836292c08a95p-2", "-0x1.a83625655ba96p-2"),
         ("0x1.a87fd2e7e289bp-2", "-0x1.a7ec765c094d5p-2"),
         ("0x1.59b51d97e54d8p-1", "-0x1.f522b5da7dda7p-5")],
        [["0x1.34370919b3741p-1", "0x1.34cb676b601bfp-1", "0x1.3c485ad5a187cp-1",
          "0x1.713d6d08f059dp-1", "0x1.b4835b06698b1p-1", "0x1.c3102a525a750p-1",
          "0x1.c45555fa4fbb3p-1", "0x1.c46d204ee6d02p-1", "0x1.32903d546fea7p-1",
          "0x1.3294675513bdap-1", "0x1.32ce242064117p-1", "0x1.35d993e36b050p-1",
          "0x1.54468929601bdp-1", "0x1.a221c898afc91p-1", "0x1.bfdf4747535bap-1",
          "0x1.c3106e9131e28p-1", "0x1.fa869c3bb501cp-2", "0x1.fa86d1a13579dp-2",
          "0x1.fa89b789591f0p-2", "0x1.fab1f5892a9a9p-2", "0x1.fcdc12ebe8c23p-2",
          "0x1.0bcc45ad45ac1p-1", "0x1.53fae2a178878p-1", "0x1.8dda70b6bf5e6p-1"],
         ["-0x1.341fe51ebb7d7p-1", "-0x1.338b28c4be9cep-1", "-0x1.2bce8abc1de6fp-1",
          "-0x1.cab54a2f2be30p-2", "-0x1.0236de21118c3p-3", "-0x1.8befa135c3729p-7",
          "-0x1.d3b8c9b7f6f2bp-11", "-0x1.0dcba5483c804p-14", "-0x1.328f97f7c075ep-1",
          "-0x1.328b6de46a73ap-1", "-0x1.3251a30ac2d27p-1", "-0x1.2f3c0b45c3a10p-1",
          "-0x1.0c1fc19aa430cp-1", "-0x1.d9f1e5fabf91dp-3", "-0x1.e249853b25915p-6",
          "-0x1.27c0a07245cf3p-9", "-0x1.fa8693f391656p-2", "-0x1.fa865e8e0cb6cp-2",
          "-0x1.fa8378a2bbcf1p-2", "-0x1.fa5b383e339b1p-2", "-0x1.f82f534858112p-2",
          "-0x1.dc553d856ab48p-2", "-0x1.1ba614c769ed8p-2", "-0x1.7cb6f8a71e514p-5"]]),
    "Nonlocal": (
        [("0x1.345353240cd1cp-1", "-0x1.3413163af8f1ap-1"),
         ("0x1.b0351548b87dbp-1", "-0x1.3ed307d67d4b8p-3"),
         ("0x1.c4739940eaf64p-1", "-0x1.84b1fca95e452p-16"),
         ("0x1.340ac179cd7c1p-1", "-0x1.3404f78a24048p-1"),
         ("0x1.6edd62d08e994p-1", "-0x1.d1d72682fa71cp-2"),
         ("0x1.c44f1cf1b412ap-1", "-0x1.0d305429637e9p-12"),
         ("0x1.a836292c08a8fp-2", "-0x1.a83625655ba94p-2"),
         ("0x1.a87fd2e7e28a1p-2", "-0x1.a7ec765c094d4p-2"),
         ("0x1.59b51d97e54d6p-1", "-0x1.f522b5da7dda4p-5")],
        [["0x1.34370919b373fp-1", "0x1.34cb676b601bep-1", "0x1.3c485ad5a187bp-1",
          "0x1.713d6d08f059ep-1", "0x1.b4835b06698b2p-1", "0x1.c3102a525a74dp-1",
          "0x1.c45555fa4fbb3p-1", "0x1.c46d204ee6d02p-1", "0x1.32903d546fea5p-1",
          "0x1.3294675513bddp-1", "0x1.32ce24206411ap-1", "0x1.35d993e36b04ep-1",
          "0x1.54468929601b9p-1", "0x1.a221c898afc92p-1", "0x1.bfdf4747535b7p-1",
          "0x1.c3106e9131e29p-1", "0x1.fa869c3bb5018p-2", "0x1.fa86d1a13579ep-2",
          "0x1.fa89b789591ecp-2", "0x1.fab1f5892a9a6p-2", "0x1.fcdc12ebe8c20p-2",
          "0x1.0bcc45ad45ac0p-1", "0x1.53fae2a178878p-1", "0x1.8dda70b6bf5e9p-1"],
         ["-0x1.341fe51ebb7dap-1", "-0x1.338b28c4be9ccp-1", "-0x1.2bce8abc1de6fp-1",
          "-0x1.cab54a2f2be2ep-2", "-0x1.0236de21118c5p-3", "-0x1.8befa135c372ap-7",
          "-0x1.d3b8c9b7f6f2cp-11", "-0x1.0dcba5483c806p-14", "-0x1.328f97f7c075ep-1",
          "-0x1.328b6de46a739p-1", "-0x1.3251a30ac2d26p-1", "-0x1.2f3c0b45c3a10p-1",
          "-0x1.0c1fc19aa430ap-1", "-0x1.d9f1e5fabf91cp-3", "-0x1.e249853b25914p-6",
          "-0x1.27c0a07245cf3p-9", "-0x1.fa8693f391655p-2", "-0x1.fa865e8e0cb6cp-2",
          "-0x1.fa8378a2bbcf2p-2", "-0x1.fa5b383e339b1p-2", "-0x1.f82f534858111p-2",
          "-0x1.dc553d856ab47p-2", "-0x1.1ba614c769ed9p-2", "-0x1.7cb6f8a71e514p-5"]]),
    "IdealMetal": (
        [("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
         ("0x1.0000000000000p+0", "-0x1.0000000000000p+0")],
        [["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
          "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"],
         ["-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
          "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
          "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
          "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
          "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
          "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
          "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
          "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0"]]),
}


@pytest.mark.parametrize("model", ALL_MODELS + [IdealMetal()], ids=lambda m: type(m).__name__)
def test_frozen_bits(model):
    pair = amplitude_fn(model, GE, 300.0)
    floats, arrays = FROZEN_BITS[type(model).__name__]
    got = [tuple(_hex(pair(xi, k))) for xi in (0.3 * XI1, XI1, 30.0 * XI1)
           for k in (1e2, 1e4, 1e6)]
    assert got == floats
    block = pair(np.array([[0.5], [3.0], [20.0]]) * XI1, np.logspace(2.0, 6.0, 8))
    assert [_hex(np.broadcast_to(r, (3, 8))) for r in block] == arrays


def test_dispatch_rejects_unknown_model():
    class Fake:
        __hash__ = object.__hash__
    with pytest.raises(DomainError):
        amplitude_fn(Fake(), GE, 300.0)  # type: ignore[arg-type]
