import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from casdrift import materials, phys
from casdrift.errors import DomainError, ModelValidityError
from casdrift.materials import (
    GE,
    SI,
    band_gap,
    bare_eps,
    carrier_density,
    get_material,
    material_state,
    relaxation_time,
)

from conftest import assert_close, logspace
from oracles import omega_c, zero_carrier


class TestSellmeier:
    def test_ge_static_value(self):
        assert bare_eps(GE, 0.0) == pytest.approx(16.2)

    def test_ge_high_frequency_limit(self):
        assert_close(bare_eps(GE, 1e20), 1.1, 1e-6)

    def test_ge_half_sum_at_resonance(self):
        assert_close(bare_eps(GE, GE.permittivity.omega0), (16.2 + 1.1) / 2, 1e-12)

    def test_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            bare_eps(GE, -1.0)

    @given(st.floats(min_value=0.0, max_value=1e18))
    def test_bounds_on_imaginary_axis(self, xi):
        for spec in (GE, SI):
            v = bare_eps(spec, xi)
            slack = 4 * math.ulp(spec.permittivity.eps0)
            assert spec.permittivity.eps_inf - slack <= v
            assert v <= spec.permittivity.eps0 + slack

    def test_monotone_decreasing_in_xi(self):
        for spec in (GE, SI):
            vals = [bare_eps(spec, xi) for xi in logspace(1e10, 1e18, 40)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            materials.SellmeierPermittivity(eps0=1.0, eps_inf=1.1, omega0=1e15)
        with pytest.raises(DomainError):
            materials.SellmeierPermittivity(eps0=10.0, eps_inf=1.1, omega0=-1e15)


class TestAnchors:
    """Quoted 300 K values for the built-in parameter sets."""

    def test_ge_band_gap(self):
        assert_close(band_gap(GE, 300.0), 0.66, 5e-3)
        assert band_gap(GE, 0.0) == pytest.approx(0.742)

    def test_si_band_gap(self):
        assert_close(band_gap(SI, 300.0), 1.12, 5e-3)

    def test_ge_relaxation_time(self):
        assert_close(relaxation_time(GE, 300.0), 3.9e-12, 2e-2)
        # exponent vanishes at T = 0
        assert_close(relaxation_time(GE, 0.0), (0.26 + 1.49) * 1e-12, 1e-12)

    def test_si_relaxation_time(self):
        assert_close(relaxation_time(SI, 300.0), 0.5e-12, 5e-2)

    def test_effective_densities_of_states(self):
        # quoted 300 K values are 2-significant-figure roundings of the
        # prefactor fits (Ge n_c rounds 1.029e19 down to 1.0e19)
        T32 = 300.0**1.5
        assert_close(GE.nc_prefactor * T32, 1.0e19, 5e-2)
        assert_close(GE.nv_prefactor * T32, 5.0e18, 5e-2)
        assert_close(SI.nc_prefactor * T32, 3.2e19, 5e-2)
        assert_close(SI.nv_prefactor * T32, 1.8e19, 5e-2)

    def test_ge_carrier_density_without_doubling(self):
        single = replace(GE, carrier_doubling=False)
        n0 = carrier_density(single, 300.0)
        assert abs(n0 - 2.0e13) <= 0.15 * 2.0e13
        assert carrier_density(GE, 300.0) == pytest.approx(2.0 * n0)

    def test_debye_radii(self):
        r_ge = material_state(GE, 300.0).R_D / phys.CM_PER_UM
        assert abs(r_ge - 0.68) <= 0.2 * 0.68
        r_si = material_state(SI, 300.0).R_D / phys.CM_PER_UM
        assert 16.0 <= r_si <= 36.0

    def test_ge_thermal_velocity(self):
        assert_close(material_state(GE, 300.0).v_T,
                     math.sqrt(phys.K_B * 300.0 / (0.12 * phys.M_ELECTRON)), 1e-12)
        assert_close(material_state(GE, 300.0).v_T, 1.95e7, 1e-2)


class TestStateClosures:
    @pytest.mark.parametrize("spec", [GE, SI], ids=["Ge", "Si"])
    @pytest.mark.parametrize("T", [20.0, 77.0, 300.0, 400.0])
    def test_definitional_closures(self, spec, T):
        st_ = material_state(spec, T)
        kT = phys.K_B * T
        assert_close(st_.kappa**2 * spec.permittivity.eps0 * kT,
                     4 * math.pi * phys.E_CHARGE**2 * st_.n0, 1e-12)
        assert_close(st_.D, st_.v_T**2 * st_.tau, 1e-12)
        m = spec.mass_ratio * phys.M_ELECTRON
        assert_close(st_.sigma0, phys.E_CHARGE**2 * st_.n0 * st_.tau / m, 1e-12)
        assert_close(st_.mobility, phys.E_CHARGE * st_.tau / m, 1e-12)

    @pytest.mark.parametrize("xi", [0.0, 1e12, 2.5e14, 1e16])
    def test_omega_c_over_D_closure(self, xi):
        st_ = material_state(GE, 300.0)
        lhs = omega_c(st_, GE, xi) / st_.D
        rhs = st_.kappa**2 * GE.permittivity.eps0 / bare_eps(GE, xi)
        assert_close(lhs, rhs, 1e-12)

    def test_omega_c_static_form(self):
        st_ = material_state(GE, 300.0)
        assert_close(omega_c(st_, GE, 0.0),
                     4 * math.pi * st_.sigma0 / 16.2, 1e-12)

    def test_omega_c_vanishes_without_carriers(self):
        st_ = material_state(zero_carrier(GE), 300.0)
        assert omega_c(st_, zero_carrier(GE), 1e14) == 0.0

    def test_all_fields_positive(self):
        for spec in (GE, SI):
            for T in (10.0, 77.0, 300.0):
                st_ = material_state(spec, T)
                for name in ("n0", "tau", "sigma0", "v_T", "mobility",
                             "D", "kappa"):
                    assert getattr(st_, name) > 0.0, (spec.name, T, name)


class TestTemperatureBehaviour:
    def test_carrier_density_increasing_in_T(self):
        for spec in (GE, SI):
            vals = [carrier_density(spec, T) for T in range(10, 401, 15)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_freezeout_beats_any_power(self):
        # n0(T) T^-p -> 0 as T -> 0 even for p = 10
        for spec in (GE, SI):
            Ts = [50.0, 40.0, 30.0, 20.0, 14.0, 10.0]
            vals = [carrier_density(spec, T) * T**-10 for T in Ts]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 1e-40 * vals[0]

    def test_kappa_vanishes_at_low_T(self):
        for spec in (GE, SI):
            ks = [material_state(spec, T).kappa for T in (300.0, 100.0, 30.0, 10.0)]
            assert all(a > b for a, b in zip(ks, ks[1:]))
            assert ks[-1] < 1e-6 * ks[0]

    def test_tau_positive_over_validity_range(self):
        for spec in (GE, SI):
            for T in range(0, 401, 10):
                assert relaxation_time(spec, float(T)) > 0.0

    def test_relaxation_model_validity_error(self):
        broken = replace(GE, tau0_ps=-5.0, tau1_ps=0.1)
        with pytest.raises(ModelValidityError):
            relaxation_time(broken, 300.0)

    def test_out_of_range_warning(self):
        assert material_state(GE, 300.0).warnings == ()
        warned = material_state(GE, 405.0)
        assert warned.warnings and "405" in warned.warnings[0]

    def test_carrier_density_rejects_nonpositive_T(self):
        with pytest.raises(DomainError):
            carrier_density(GE, 0.0)

    @pytest.mark.parametrize("T", [1e-300, 1e-310, 5e-324])
    def test_subnormal_kT_is_a_domain_error(self, T):
        # kB T underflows: no ZeroDivisionError reaches the caller
        with pytest.raises(DomainError, match="kB T normal"):
            material_state(GE, T)


def test_get_material():
    assert get_material("Ge") is GE
    assert get_material("Si") is SI
    with pytest.raises(DomainError):
        get_material("GaAs")


def test_zero_carrier_freezes_out_exactly():
    spec = zero_carrier(GE)
    assert carrier_density(spec, 300.0) == 0.0
    st_ = material_state(spec, 300.0)
    assert st_.kappa == 0.0 and st_.sigma0 == 0.0 and st_.R_D == math.inf
