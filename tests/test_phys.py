import math

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from casdrift import phys
from casdrift.errors import DomainError

from conftest import assert_close, ulps_apart


def test_constants_are_codata2018():
    assert phys.HBAR == 1.054571817e-27
    assert phys.K_B == 1.380649e-16
    assert phys.C_LIGHT == 2.99792458e10
    assert_close(phys.E_CHARGE, 4.80320471257e-10, 1e-11)
    assert_close(phys.M_ELECTRON, 9.1093837015e-28, 1e-10)


def test_matsubara_n0_is_zero():
    assert phys.matsubara_xi(0, 300.0) == 0.0


def test_matsubara_first_frequency_at_300K():
    # independent high-precision arithmetic from the same CODATA figures
    mp.mp.dps = 30
    ref = 2 * mp.pi * 1 * mp.mpf("1.380649e-16") * 300 / mp.mpf("1.054571817e-27")
    got = phys.matsubara_xi(1, 300.0)
    assert_close(got, float(ref), 1e-14)
    assert_close(got, 2.467e14, 1e-3)  # quoted rounded value


def test_matsubara_linearity_in_nT():
    assert phys.matsubara_xi(2, 150.0) == pytest.approx(
        phys.matsubara_xi(1, 300.0), rel=1e-15)


@given(st.integers(min_value=1, max_value=10_000),
       st.floats(min_value=0.5, max_value=1000.0))
def test_matsubara_scales_linearly(n, T):
    assert_close(phys.matsubara_xi(n, T), n * phys.matsubara_xi(1, T), 1e-12)


@pytest.mark.parametrize("bad_T", [0.0, -5.0, math.nan, math.inf])
def test_matsubara_rejects_bad_temperature(bad_T):
    with pytest.raises(DomainError):
        phys.matsubara_xi(1, bad_T)


def test_matsubara_rejects_negative_index():
    with pytest.raises(DomainError):
        phys.matsubara_xi(-1, 300.0)


def test_sigma_gaussian_values():
    # Fig.-1-style inputs: resistivities 43 Ohm cm and 2.3e5 Ohm cm
    assert_close(phys.sigma_gaussian(1.0 / 43.0), 2.090e10, 1e-3)
    assert_close(phys.sigma_gaussian(1.0 / 2.3e5), 3.908e6, 1e-3)
    assert phys.sigma_gaussian(0.0) == 0.0
    # conversion factor is exactly c^2 * 1e-9
    assert phys.GAUSS_PER_OHM_CM == phys.C_LIGHT**2 * 1e-9
    assert_close(phys.GAUSS_PER_OHM_CM, 8.98755e11, 1e-5)


def test_sigma_gaussian_rejects_negative():
    with pytest.raises(DomainError):
        phys.sigma_gaussian(-1.0)


@given(st.floats(min_value=1e-10, max_value=1e10))
def test_unit_roundtrips_within_one_ulp(x):
    assert ulps_apart((x * phys.CM_PER_UM) / phys.CM_PER_UM, x) <= 1.0
    assert ulps_apart((x * phys.ERG_PER_EV) / phys.ERG_PER_EV, x) <= 1.0
    assert ulps_apart((x * phys.S_PER_PS) / phys.S_PER_PS, x) <= 1.0


def test_thermal_wavelength_at_300K():
    lam_um = phys.thermal_wavelength(300.0) / phys.CM_PER_UM
    assert abs(lam_um - 7.6) <= 0.1
