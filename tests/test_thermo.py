import math

import pytest

from casdrift import phys
from casdrift.errors import DomainError
from casdrift.lifshitz import Geometry, free_energy_per_area
from casdrift.materials import GE, SI
from casdrift.reflection import Bare, Drift
from casdrift.thermo import ENTROPY_TOL, entropy, nernst_sweep

from conftest import assert_close
from oracles import g_probe

D_1UM = 1e-4
XI1 = phys.matsubara_xi(1, 300.0)


class TestEntropy:
    def test_richardson_pair_consistency(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        pt = entropy(geom, 300.0)
        assert pt.richardson_error <= abs(pt.S)
        assert pt.fd_step == 15.0
        assert pt.S > 0.0  # screened Ge at 300 K gains entropy with T

    def test_step_halving_agrees_within_richardson_error(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        a = entropy(geom, 300.0, fd_step=15.0)
        b = entropy(geom, 300.0, fd_step=7.5)
        assert abs(a.S - b.S) <= 3.0 * (a.richardson_error + b.richardson_error) \
            + 1e-12 * abs(a.S)

    def test_step_floor_and_domain(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        with pytest.raises(DomainError):
            entropy(geom, 0.4)  # floored step 0.25 K leaves T - 2h <= 0
        with pytest.raises(DomainError):
            entropy(geom, 300.0, fd_step=200.0)

    def test_termwise_vs_whole_sum_differentiation(self):
        # differentiating the total equals summing differentiated per-n terms
        geom = Geometry.identical(D_1UM, GE, Drift())
        T, h = 300.0, 15.0
        tol = ENTROPY_TOL

        def term_map(temp):
            res = free_energy_per_area(geom, temp, tolerances=tol)
            return dict((n, te + tm) for n, te, tm in res.per_n_terms)

        evals = {s: term_map(T + s * h) for s in (-1.0, -0.5, 0.5, 1.0)}
        all_n = sorted(set().union(*[m.keys() for m in evals.values()]))

        def diff(n):
            get = lambda s: evals[s].get(n, 0.0)
            d1 = (get(1.0) - get(-1.0)) / (2 * h)
            d2 = (get(0.5) - get(-0.5)) / h
            return -(4 * d2 - d1) / 3.0

        s_termwise = sum(diff(n) for n in all_n)
        s_whole = entropy(geom, T, fd_step=h).S
        assert_close(s_termwise, s_whole, 1e-6)

    def test_bare_low_temperature_trend(self):
        # fixed permittivity: only the explicit Matsubara dependence remains,
        # and |S| still falls toward low temperature
        geom = Geometry.identical(4e-4, GE, Bare())
        pts = [entropy(geom, T) for T in (150.0, 50.0, 15.0)]
        mags = [abs(p.S) for p in pts]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert all(math.isfinite(p.S) for p in pts)


class TestGProbes:
    def test_te_first_derivative_vanishes(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        pr = g_probe("TE", 1e4, geom, 300.0)
        h0 = 1e-4 * XI1
        assert pr.g0 == 0.0
        assert abs(pr.g_xi) <= abs(pr.g_xixi) * h0 + 1e-24

    def test_te_curvature_negative(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        pr = g_probe("TE", 1e4, geom, 300.0)
        assert pr.g_xixi < 0.0

    def test_tm_first_derivative_positive(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        pr = g_probe("TM", 1e4, geom, 300.0)
        assert pr.g_xi > 0.0
        assert pr.g0 < 0.0

    def test_te_static_mode_function_zero_for_all_models(self):
        for model in (Bare(), Drift()):
            geom = Geometry.identical(D_1UM, GE, model)
            pr = g_probe("TE", 3e3, geom, 300.0)
            assert pr.g0 == 0.0

    def test_theta_definition(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        pr = g_probe("TM", 1e4, geom, 300.0)
        assert_close(pr.theta, 2 * math.pi * phys.K_B * 300.0 / phys.HBAR, 1e-15)

    def test_rejects_bad_k(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        with pytest.raises(DomainError):
            g_probe("TM", 0.0, geom, 300.0)


class TestScreeningEntropyChannel:
    def test_n0_term_T_dependence_freezes_out(self):
        # the screening channel of the n = 0 TM term (drift minus bare
        # derivative) dies with the carriers at low temperature
        def n0_term_slope(model, T, h=1.0):
            vals = []
            for temp in (T - h, T + h):
                geom = Geometry.identical(D_1UM, GE, model)
                res = free_energy_per_area(geom, temp, tolerances=ENTROPY_TOL)
                vals.append(res.per_n_terms[0][1] + res.per_n_terms[0][2])
            return (vals[1] - vals[0]) / (2 * h)

        chan_300 = n0_term_slope(Drift(), 300.0) - n0_term_slope(Bare(), 300.0)
        chan_15 = n0_term_slope(Drift(), 15.0) - n0_term_slope(Bare(), 15.0)
        assert abs(chan_15) < 1e-4 * abs(chan_300)


class TestNernstSweep:
    def test_short_sweep_diagnostics(self):
        geom = Geometry.identical(D_1UM, GE, Drift())
        report = nernst_sweep(geom, [120.0, 60.0, 30.0])
        assert len(report.points) == 3
        assert report.s_ratio_low_to_high < 1.0
        mags = {pt.T: abs(pt.S) for pt in report.points}
        assert mags[60.0] > mags[30.0]

    def test_silicon_same_qualitative_behaviour(self):
        geom = Geometry.identical(D_1UM, SI, Drift())
        report = nernst_sweep(geom, [75.0, 40.0, 20.0])
        assert report.monotone_abs_decreasing
        assert all(pt.S > 0.0 for pt in report.points)

    def test_bare_sweep_terminates(self):
        geom = Geometry.identical(D_1UM, GE, Bare())
        report = nernst_sweep(geom, [90.0, 45.0])
        assert all(math.isfinite(pt.S) for pt in report.points)
