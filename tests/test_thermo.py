import math

import pytest

from casdrift import phys
from casdrift.errors import DomainError
from casdrift.lifshitz import Geometry, free_energy_per_area, pressure
from casdrift.materials import GE, SI
from casdrift.reflection import Bare, Drift
from casdrift.thermo import ENTROPY_TOL, entropy, nernst_sweep

from conftest import assert_close
from oracles import g_probe, nernst_law

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

    def test_default_step_and_domain(self):
        # the default step T/20 leaves T - 2h = 0.9 T > 0 at every T > 0;
        # an explicit step must still keep T - 2h > 0
        geom = Geometry.identical(D_1UM, GE, Drift())
        pt = entropy(geom, 0.4)
        assert pt.fd_step == 0.4 / 20.0
        assert pt.S > 0.0 and pt.richardson_error <= 1e-3 * pt.S
        for T, h in ((0.4, 0.25), (300.0, 200.0), (300.0, 150.0)):
            with pytest.raises(DomainError):
                entropy(geom, T, fd_step=h)

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


class TestNernstLaw:
    # The paper's Nernst claim as a law: E(T) - E(0) -> C T^3 for bare and
    # drift plates, C from eps0 alone, with E(0) the sum at T = 0.
    def test_zero_temperature_energy(self):
        # the Ge/bare reference at 1 um, known to 13 digits
        geom = Geometry.identical(D_1UM, GE, Bare())
        assert_close(free_energy_per_area(geom, 0.0).value, -1.521072431148e-7, 1e-12)

    # With ENTROPY_TOL, (E(T) - E(0)) / (C T^3) read 0.9892-0.9989 at 0.1 K
    # (0.3-3 um), 0.9967-0.9997 at 0.03 K (1 and 3 um), and 0.9653-0.9929
    # at 1 K, d <= 1 um, where the T^4 d term shows.  0.3 um at 0.03 K is
    # left out: there E - E(0) is a few ulps of E (Ge/drift read 1.0200).
    @pytest.mark.parametrize("T, d_um, bound", [
        (0.1, 0.3, 0.02), (0.1, 1.0, 0.02), (0.1, 3.0, 0.02), (0.03, 1.0, 0.02),
        (0.03, 3.0, 0.02), (1.0, 0.3, 0.05), (1.0, 1.0, 0.05)])
    @pytest.mark.parametrize("spec", [GE, SI], ids=["Ge", "Si"])
    def test_energy_follows_the_t_cubed_law(self, spec, T, d_um, bound):
        for model in (Bare(), Drift()):
            geom = Geometry.identical(d_um * 1e-4, spec, model)
            e0, e = (free_energy_per_area(geom, t, tolerances=ENTROPY_TOL).value for t in (0.0, T))
            ratio = (e - e0) / T**3 / nernst_law(spec)
            assert abs(ratio - 1.0) <= bound, (spec.name, model, T, d_um, ratio)

    # C does not depend on d, so P = -dE/dd has no T^3 term: (P(T) - P(0))
    # over C T^3 / d read -0.0022 to -0.0298 at 0.3 K, the T^4 d term's share
    @pytest.mark.parametrize("d_um", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("spec", [GE, SI], ids=["Ge", "Si"])
    def test_pressure_has_no_t_cubed_term(self, spec, d_um):
        T, d = 0.3, d_um * 1e-4
        for model in (Bare(), Drift()):
            geom = Geometry.identical(d, spec, model)
            p0, p = (pressure(geom, t, tolerances=ENTROPY_TOL).value for t in (0.0, T))
            ratio = (p - p0) / T**3 / (nernst_law(spec) / d)
            assert abs(ratio) <= 0.05, (spec.name, model, d_um, ratio)
