import pytest

from casdrift import phys
from casdrift.errors import DomainError, EvaluationError
from casdrift.materials import GE, SI, bare_eps, material_state
from casdrift.reflection import Drift, Mode, amplitude_fn
from casdrift.spatial import (
    eps_perp_drift,
    make_drift_tensor,
    r_from_H_tilde,
    verify_equivalence,
)

from conftest import assert_close, logspace
from oracles import (
    ConstantTensor,
    drift_quantities,
    eps_par_drift,
    full_drift_tensor,
    h_integrals,
    h_integrals_quadrature,
    r_from_H,
    unit_tensor,
    zero_carrier,
)

XI1 = phys.matsubara_xi(1, 300.0)
GE_STATE = material_state(GE, 300.0)


class TestDriftTensorComponents:
    def test_eps_perp_closes_eta_t(self):
        for k in (1e3, 1e5):
            for xi in (0.1 * XI1, XI1, 50 * XI1):
                eps = bare_eps(GE, xi)
                ep = eps_perp_drift(k, xi, GE_STATE, eps)
                eta_t = drift_quantities(Mode(xi=xi, k=k), GE_STATE, eps).eta_T
                assert_close(k * k + ep * (xi / phys.C_LIGHT) ** 2,
                             eta_t**2, 1e-12)

    def test_eps_perp_reduces_to_bare_without_carriers(self):
        spec = zero_carrier(GE)
        st = material_state(spec, 300.0)
        assert eps_perp_drift(1e4, XI1, st, bare_eps(spec, XI1)) == bare_eps(spec, XI1)

    def test_eps_perp_requires_positive_xi(self):
        with pytest.raises(DomainError):
            eps_perp_drift(1e4, 0.0, GE_STATE, 16.2)

    def test_eps_par_static_uniaxial_limit(self):
        # xi = 1e-5 xi_1: the diffusion term xi(1+xi tau)/D is still ~1e-2
        # of k^2 at k ~ kappa, so probe at k a few times kappa and beyond
        xi = 1e-5 * XI1
        for k in (3e4, 1e5, 3e5):
            got = eps_par_drift(k, xi, GE_STATE, bare_eps(GE, xi))
            want = 16.2 * (1.0 + 1.0 / (k * GE_STATE.R_D) ** 2)
            assert_close(got, want, 1e-3, what=f"k={k:.1e}")

    def test_eps_par_local_limit_without_carriers(self):
        spec = zero_carrier(GE)
        st = material_state(spec, 300.0)
        for xi in (0.3 * XI1, 7 * XI1):
            assert_close(eps_par_drift(1e4, xi, st, bare_eps(spec, xi)),
                         bare_eps(spec, xi), 1e-8)

    def test_components_match_multiprecision(self):
        import mpmath as mp
        mp.mp.dps = 30
        st = GE_STATE
        for k, xi in ((1e4, XI1), (3e4, 0.3 * XI1)):
            eps = bare_eps(GE, xi)
            sig0, tau, D = mp.mpf(st.sigma0), mp.mpf(st.tau), mp.mpf(st.D)
            xim, km = mp.mpf(xi), mp.mpf(k)
            perp_ref = mp.mpf(eps) + 4 * mp.pi * sig0 / (xim * (1 + xim * tau))
            par_ref = mp.mpf(eps) + 4 * mp.pi * sig0 / (
                xim * (1 + xim * tau) + D * km**2)
            assert_close(eps_perp_drift(k, xi, st, eps), float(perp_ref), 1e-13)
            assert_close(eps_par_drift(k, xi, st, eps), float(par_ref), 1e-13)

    def test_components_at_least_one_for_builtins(self):
        for spec in (GE, SI):
            st = material_state(spec, 300.0)
            for k in (1e3, 1e5):
                for xi in (0.01 * XI1, XI1, 100 * XI1):
                    eps = bare_eps(spec, xi)
                    assert eps_perp_drift(k, xi, st, eps) >= 1.0
                    assert eps_par_drift(k, xi, st, eps) >= 1.0

    def test_eps_par_validation(self):
        with pytest.raises(DomainError):
            eps_par_drift(1e4, 0.0, GE_STATE, 16.2)
        with pytest.raises(DomainError):
            eps_par_drift(-1.0, XI1, GE_STATE, 16.2)


class TestHIntegrals:
    def test_unit_tensor_gives_unit_H_and_zero_r(self):
        hf = h_integrals(unit_tensor(), Mode(xi=XI1, k=1e4))
        assert hf.h_tilde_a == hf.h_tilde_b == hf.h_tilde_c == 0.0
        assert hf.H_tm == 1.0 and hf.H_te == 1.0
        assert r_from_H(hf.H_tm) == 0.0
        assert r_from_H_tilde(hf.H_te_tilde) == 0.0

    def test_quadrature_matches_closed_qz_independent(self):
        # constant uniaxial tensor: h_a = 1/eps_par exactly
        tensor = ConstantTensor(perp=9.5, par=4.0)
        for k in (1e3, 3e4, 1e6):
            for xi in (0.03 * XI1, XI1, 40 * XI1):
                a = h_integrals(tensor, Mode(xi=xi, k=k))
                b = h_integrals_quadrature(tensor, Mode(xi=xi, k=k))
                assert_close(b.h_a, a.h_a, 1e-8)
                assert_close(b.h_b, a.h_b, 1e-8)
                assert_close(b.h_c, a.h_c, 1e-8)

    def test_quadrature_matches_closed_drift_tensor(self):
        # the drift eps_par is genuinely q-dependent; its h_a closed form
        # comes from the tensor itself and the quadrature is the oracle
        tensor = full_drift_tensor(GE, 300.0)
        for k in (1e3, 3e4, 1e6):
            for xi in (0.03 * XI1, XI1, 40 * XI1):
                a = h_integrals(tensor, Mode(xi=xi, k=k))
                b = h_integrals_quadrature(tensor, Mode(xi=xi, k=k))
                assert_close(b.h_a, a.h_a, 1e-8)
                assert_close(b.h_b, a.h_b, 1e-8)
                assert_close(b.h_c, a.h_c, 1e-8)
                # the tilded values agree in their own right, which is the
                # stronger statement for near-unity media
                assert abs(b.h_tilde_b - a.h_tilde_b) <= 1e-8 * max(
                    abs(a.h_tilde_b), 1e-10)

    def test_h_b_is_gamma_over_eta_t(self):
        tensor = make_drift_tensor(GE, 300.0)
        for k, xi in ((1e4, XI1), (2e5, 0.2 * XI1)):
            hf = h_integrals(tensor, Mode(xi=xi, k=k))
            dq = drift_quantities(Mode(xi=xi, k=k), GE_STATE, bare_eps(GE, xi))
            m = Mode(xi=xi, k=k)
            assert_close(hf.h_b, m.gamma0 / dq.eta_T, 1e-12)
            assert_close(hf.H_te, m.gamma0 / dq.eta_T, 1e-12)

    def test_scale_separation_guard(self):
        # the quadrature oracle refuses xi/(c k) = 3e-17; the closed forms
        # need no guard and still give H_te = gamma0/eta_T
        tensor = full_drift_tensor(GE, 300.0)
        m = Mode(xi=1.0, k=1e6)
        with pytest.raises(EvaluationError):
            h_integrals_quadrature(tensor, m)
        dq = drift_quantities(m, GE_STATE, bare_eps(GE, m.xi))
        assert_close(h_integrals(tensor, m).H_te, m.gamma0 / dq.eta_T, 1e-12)

    def test_requires_positive_xi(self):
        with pytest.raises(DomainError):
            h_integrals(unit_tensor(), Mode(xi=0.0, k=1e4))


class TestHFunctionsIdentity:
    def test_H_tm_times_chi_over_eps_gamma_is_one(self):
        tensor = make_drift_tensor(GE, 300.0)
        for k in logspace(1e2, 1e6, 8):
            for xi in logspace(1e-3 * XI1, 1e3 * XI1, 8):
                m = Mode(xi=xi, k=k)
                hf = h_integrals(tensor, m)
                eps = bare_eps(GE, xi)
                dq = drift_quantities(m, GE_STATE, eps)
                assert_close(hf.H_tm * dq.chi / (eps * m.gamma0), 1.0, 1e-9,
                             what=f"k={k:.2e} xi={xi:.2e}")


class TestRFromH:
    def test_unit_and_perfect_reflector(self):
        assert r_from_H(1.0) == 0.0
        assert r_from_H(1e12) == pytest.approx(1.0, abs=1e-11)

    def test_pole(self):
        with pytest.raises(EvaluationError):
            r_from_H(-1.0)
        with pytest.raises(EvaluationError):
            r_from_H_tilde(-2.0)

    def test_tilde_form_consistent(self):
        assert_close(r_from_H_tilde(0.3), r_from_H(1.3), 1e-14)


class TestEquivalenceTheorem:
    def test_drift_tensor_reproduces_drift_amplitudes(self):
        rows, max_rel = verify_equivalence(GE, 300.0, n_k=20, n_xi=20)
        assert len(rows) == 2 * 20 * 20
        assert max_rel <= 1e-8, f"max rel diff {max_rel:.3e}"

    def test_silicon_too(self):
        _, max_rel = verify_equivalence(SI, 300.0, n_k=8, n_xi=8)
        assert max_rel <= 1e-8

    def test_round_trip_through_H_tm(self):
        # feeding the longitudinal component back through the H machinery
        # reproduces the transport-theory TM amplitude
        tensor = make_drift_tensor(GE, 300.0)
        pair = amplitude_fn(Drift(), GE, 300.0)
        for k, xi in ((5e3, 0.4 * XI1), (1e5, 3 * XI1)):
            hf = h_integrals(tensor, Mode(xi=xi, k=k))
            assert_close(r_from_H_tilde(hf.H_tm_tilde), pair(xi, k)[0], 1e-8)
