"""Analytic and ODE reference bounds used to cross-check simulations."""

import math

import numpy as np
import pytest

from degenlog.geometry import DomainSpec
from degenlog.grid import build_grid
from degenlog.oracles import (OdeBoundParams, RadialProfile, TauInputs,
                              blow_up_constant, linear_bound,
                              subsolution_growth, tau_unbounded, w_closed_form,
                              w_inf, w_rk4, z_radial)
from degenlog.spectral import principal_eigenpair


class TestSaturationOde:
    def test_closed_form_matches_rk4(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = OdeBoundParams(lam=rng.uniform(-3.0, 8.0),
                               nu0=rng.uniform(0.2, 3.0),
                               rho=rng.uniform(1.5, 3.5),
                               w0=rng.uniform(0.1, 5.0))
            t = rng.uniform(0.1, 2.0)
            assert w_closed_form(p, t) == pytest.approx(w_rk4(p, t), rel=1e-9)

    def test_lam_zero_limit(self):
        p = OdeBoundParams(lam=0.0, nu0=1.0, rho=2.0, w0=1.0)
        # W' = -W^2 from 1 gives 1/(1+t)
        assert w_closed_form(p, 3.0) == pytest.approx(0.25)
        assert w_closed_form(p, 3.0) == pytest.approx(w_rk4(p, 3.0), rel=1e-9)

    def test_equilibrium_attracts(self):
        p = OdeBoundParams(lam=4.0, nu0=2.0, rho=3.0, w0=0.01)
        w_star = (p.lam / p.nu0) ** (1.0 / (p.rho - 1.0))
        assert w_closed_form(p, 50.0) == pytest.approx(w_star, rel=1e-6)

    def test_zero_start_stays_zero(self):
        p = OdeBoundParams(lam=4.0, nu0=2.0, rho=2.0, w0=0.0)
        assert w_closed_form(p, 1.0) == 0.0
        assert w_rk4(p, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OdeBoundParams(lam=1.0, nu0=1.0, rho=1.0)
        with pytest.raises(ValueError):
            OdeBoundParams(lam=1.0, nu0=0.0, rho=2.0)
        with pytest.raises(ValueError):
            OdeBoundParams(lam=1.0, nu0=1.0, rho=2.0, w0=-1.0)
        with pytest.raises(ValueError):
            w_closed_form(OdeBoundParams(lam=1.0, nu0=1.0, rho=2.0), -0.1)


class TestStartIndependentEnvelope:
    def test_dominates_every_start(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = rng.uniform(0.5, 10.0)
            nu0 = rng.uniform(0.2, 3.0)
            rho = rng.uniform(1.5, 3.0)
            t = rng.uniform(0.05, 3.0)
            env = w_inf(lam, nu0, rho, t)
            for w0 in (0.01, 1.0, 100.0, 1e6):
                p = OdeBoundParams(lam=lam, nu0=nu0, rho=rho, w0=w0)
                assert w_closed_form(p, t) <= env * (1.0 + 1e-12)

    def test_long_time_limit_is_equilibrium(self):
        assert w_inf(4.0, 2.0, 3.0, 100.0) == pytest.approx(math.sqrt(2.0))

    def test_rejects_nonpositive_growth(self):
        with pytest.raises(ValueError):
            w_inf(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            w_inf(1.0, 1.0, 2.0, 0.0)


class TestLinearBound:
    def test_formula(self):
        assert linear_bound(3.0, 2.0, 1.5, 4.0, 2.0) == pytest.approx(
            1.5 * math.exp(2.0) * 4.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            linear_bound(1.0, 1.0, 1.0, 1.0, -1.0)


class TestBoundaryBlowUpProfile:
    def test_blow_radius_hits_target(self):
        prof = z_radial(a=0.8, lam=5.0, beta=1.0, rho=2.0, dim=2)
        assert prof.blow_radius == pytest.approx(0.8, abs=1e-6)

    def test_profile_monotone_near_boundary(self):
        prof = z_radial(a=0.8, lam=5.0, beta=1.0, rho=2.0, dim=2)
        tail = prof.z[prof.r > 0.5]
        assert np.all(np.diff(tail) >= 0.0)

    def test_interpolation(self):
        prof = RadialProfile(r=np.array([0.0, 1.0]), z=np.array([2.0, 4.0]),
                             blow_radius=1.0, z0=2.0)
        assert prof.at(0.5) == pytest.approx(3.0)

    def test_blow_up_constant(self):
        # (2(rho+1) / (beta (rho-1)^2))^{1/(rho-1)} = (8/8)^{1/2}
        assert blow_up_constant(2.0, 3.0) == pytest.approx(1.0)
        assert blow_up_constant(1.0, 2.0) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            z_radial(a=-1.0, lam=0.0, beta=1.0, rho=2.0, dim=2)
        with pytest.raises(ValueError):
            z_radial(a=1.0, lam=0.0, beta=0.0, rho=2.0, dim=2)
        with pytest.raises(ValueError):
            z_radial(a=1.0, lam=0.0, beta=1.0, rho=2.0, dim=3)


class TestWaitingTime:
    def _inputs(self, **kw):
        base = dict(dim=2, lam=10.0, lam1_e=5.0, lam2_e=12.0, c_inf=1.0,
                    v0_norm=1.0, alpha1=0.5, inf_phi1_e_on_d=0.3,
                    max_phi1_d=2.0, gamma=2.0)
        base.update(kw)
        return TauInputs(**base)

    def test_positive_and_monotone_in_gamma(self):
        t1 = tau_unbounded(self._inputs(gamma=1.5))
        t2 = tau_unbounded(self._inputs(gamma=50.0))
        assert 0.0 < t1 <= t2

    def test_larger_growth_shrinks_wait(self):
        # small v0_norm keeps the spectral-gap term out of the maximum so the
        # growth-rate dependence is visible
        slow = tau_unbounded(self._inputs(lam=6.0, gamma=50.0, v0_norm=0.05))
        fast = tau_unbounded(self._inputs(lam=40.0, gamma=50.0, v0_norm=0.05))
        assert fast < slow

    def test_validation(self):
        with pytest.raises(ValueError):
            self._inputs(lam=4.0)            # growth below the principal value
        with pytest.raises(ValueError):
            self._inputs(lam2_e=5.0)         # no spectral gap
        with pytest.raises(ValueError):
            self._inputs(alpha1=0.0)
        with pytest.raises(ValueError):
            self._inputs(gamma=1.0)


class TestSubsolution:
    def test_one_mode_growth(self):
        dom = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))
        g = build_grid(dom, 24)
        pair = principal_eigenpair(g, g.mask)
        lam = pair.value + 3.0
        out = subsolution_growth(lam, pair, pair.vector, t=0.5,
                                 cell_volume=g.cell_volume)
        # u0 = phi1 has unit principal component, so the bound is
        # e^{(lam - lam1) t} phi1
        expected = math.exp(3.0 * 0.5)
        ratio = out[g.mask] / pair.vector[g.mask]
        assert np.allclose(ratio, expected, rtol=1e-8)
