"""Analytic and ODE reference bounds used to cross-check simulations.

The boundary blow-up radial profile z lives here, not in the package: it is
a test reference (a spatial ceiling wherever the logistic coefficient has a
positive floor) that acceptance criterion 06 checks a simulation against.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from degenlog.oracles import (OdeBoundParams, TauInputs, tau_unbounded,
                              w_closed_form, w_inf, w_rk4)


def blow_up_constant(beta: float, rho: float) -> float:
    """Limit of z(r) (a - r)^{2/(rho-1)} at the blow-up boundary."""
    return (2.0 * (rho + 1.0) / (beta * (rho - 1.0) ** 2)) ** (1.0 / (rho - 1.0))


@dataclass(frozen=True)
class RadialProfile:
    """Shooting result: sampled radial profile and the blow-up radius."""

    r: np.ndarray
    z: np.ndarray
    blow_radius: float

    def at(self, radii) -> np.ndarray:
        """Profile values at given radii (linear interpolation)."""
        return np.interp(radii, self.r, self.z)


def _blow_radius(z0: float, lam: float, beta: float, rho: float, dim: int,
                 cap: float, r_max: float):
    """Radius where the radial profile reaches cap, extended to the blow-up
    radius by the boundary asymptotics; None if no blow-up before r_max.

    Also returns the dense solution for profile sampling.
    """
    eps = 1e-8

    def rhs(r, y):
        z, dz = y
        return [dz, -(dim - 1) / r * dz - lam * z + beta * abs(z) ** (rho - 1.0) * z]

    def hit_cap(r, y):
        return y[0] - cap
    hit_cap.terminal = True
    hit_cap.direction = 1.0

    # series start away from the coordinate singularity at r = 0
    z_eps = z0 + (beta * z0 ** rho - lam * z0) * eps ** 2 / (2.0 * dim)
    dz_eps = (beta * z0 ** rho - lam * z0) * eps / dim
    sol = solve_ivp(rhs, (eps, r_max), [z_eps, dz_eps], events=hit_cap,
                    rtol=1e-10, atol=1e-12, dense_output=True, max_step=r_max / 50)
    if sol.t_events[0].size == 0:
        return None, sol
    r_cap = float(sol.t_events[0][0])
    tail = (blow_up_constant(beta, rho) / cap) ** ((rho - 1.0) / 2.0)
    return r_cap + tail, sol


def z_radial(a: float, lam: float, beta: float, rho: float, dim: int,
             cap: float = 1e8, radius_tol: float = 1e-6, n_table: int = 400):
    """Radial profile of the boundary blow-up solution on the ball of radius a.

    Solves z'' + (dim-1)/r z' + lam z - beta z^rho = 0, z'(0) = 0, shooting on
    z(0): bisect between the no-blow-up and early-blow-up regimes until the
    estimated blow-up radius matches a within radius_tol.  Returns arrays
    (r, z) sampled up to the cap.
    """
    if beta <= 0 or not rho > 1.0 or a <= 0:
        raise ValueError("need beta > 0, rho > 1, a > 0")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    r_max = 4.0 * a
    z_eq = (max(lam, 0.0) / beta) ** (1.0 / (rho - 1.0))

    def radius_of(z0):
        r, _ = _blow_radius(z0, lam, beta, rho, dim, cap, r_max)
        return r

    # bracket: lo blows up past a (or not at all), hi blows up before a
    lo = z_eq + 1e-6 if z_eq > 0 else 1e-6
    tries = 0
    while True:
        r_lo = radius_of(lo)
        if r_lo is None or r_lo > a:
            break
        lo = z_eq + (lo - z_eq) * 0.25
        tries += 1
        if tries > 60:
            raise RuntimeError(
                f"shooting bracket failure near z(0)={lo!r}: blow-up always "
                f"before radius {a!r}")
    hi = max(lo * 2.0, z_eq + 1.0)
    tries = 0
    while True:
        r_hi = radius_of(hi)
        if r_hi is not None and r_hi < a:
            break
        hi *= 2.0
        tries += 1
        if tries > 60:
            raise RuntimeError(
                f"shooting bracket failure: no blow-up before radius {a!r} "
                f"up to z(0)={hi!r}")
    while True:
        mid = 0.5 * (lo + hi)
        r_mid = radius_of(mid)
        if r_mid is None or r_mid > a:
            lo = mid
        else:
            hi = mid
        if r_mid is not None and abs(r_mid - a) <= radius_tol:
            break
        if hi - lo <= 1e-15 * hi:
            break
    r_blow, sol = _blow_radius(mid, lam, beta, rho, dim, cap, r_max)
    # accepted solver nodes are accurate right up to the near-singular end;
    # fill the smooth early range uniformly for plotting convenience
    r_end = float(sol.t[-1])
    fill = np.linspace(sol.t[0], 0.5 * r_end, n_table // 2)
    rs = np.unique(np.concatenate([fill, np.asarray(sol.t)]))
    zs = np.where(rs < sol.t[1], np.interp(rs, sol.t[:2], sol.y[0][:2]),
                  sol.sol(rs)[0])
    node_idx = np.searchsorted(rs, sol.t)
    zs[node_idx] = sol.y[0]
    zs = np.minimum(zs, cap)
    return RadialProfile(r=rs, z=zs, blow_radius=float(r_blow))


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
                             blow_radius=1.0)
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

