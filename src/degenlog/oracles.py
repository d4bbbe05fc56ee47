"""Independent analytic and ODE references used to cross-check simulation.

Contents: the saturation supersolution W and its start-independent envelope
W_inf; the linear growth bound; the boundary blow-up radial profile z (a
spatial ceiling wherever the logistic coefficient has a positive floor); the
waiting time tau after which the linear flow on a large set dominates a
scaled eigenfunction on a subset; and the one-mode eigenfunction subsolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .spectral import EigenPair

__all__ = [
    "OdeBoundParams",
    "TauInputs",
    "w_closed_form",
    "w_rk4",
    "w_inf",
    "linear_bound",
    "z_radial",
    "blow_up_constant",
    "RadialProfile",
    "tau_unbounded",
    "subsolution_growth",
]


@dataclass(frozen=True)
class OdeBoundParams:
    """Data of the saturation ODE W' = lam W - nu0 W^rho."""

    lam: float
    nu0: float
    rho: float
    w0: float = 0.0

    def __post_init__(self):
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")
        if self.nu0 <= 0:
            raise ValueError("nu0 must be positive")
        if self.w0 < 0:
            raise ValueError("w0 must be nonnegative")


def w_closed_form(p: OdeBoundParams, t: float) -> float:
    """Exact solution of W' = lam W - nu0 W^rho with W(0) = w0.

    W(t) = [nu0/lam (1 - e^{-lam(rho-1)t}) + e^{-lam(rho-1)t} w0^{1-rho}]
           ^{-1/(rho-1)};
    for lam = 0 the limit [nu0 (rho-1) t + w0^{1-rho}]^{-1/(rho-1)}.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if p.w0 == 0.0:
        return 0.0
    q = p.rho - 1.0
    if p.lam == 0.0:
        return (p.nu0 * q * t + p.w0 ** (-q)) ** (-1.0 / q)
    decay = math.exp(-p.lam * q * t)
    inner = p.nu0 / p.lam * (1.0 - decay) + decay * p.w0 ** (-q)
    return inner ** (-1.0 / q)


def w_rk4(p: OdeBoundParams, t: float, n_steps: int = 4000) -> float:
    """Classical fourth-order Runge-Kutta integration of the same ODE."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if p.w0 == 0.0 or t == 0.0:
        return p.w0

    def f(w):
        return p.lam * w - p.nu0 * abs(w) ** (p.rho - 1.0) * w

    h = t / n_steps
    w = p.w0
    for _ in range(n_steps):
        k1 = f(w)
        k2 = f(w + 0.5 * h * k1)
        k3 = f(w + 0.5 * h * k2)
        k4 = f(w + h * k3)
        w = w + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


def w_inf(lam: float, nu0: float, rho: float, t: float) -> float:
    """Start-independent envelope [nu0/lam (1 - e^{-lam(rho-1)t})]^{-1/(rho-1)}.

    Dominates w_closed_form for every starting value; only meaningful in the
    effective-growth regime lam > 0, so lam <= 0 is rejected.
    """
    if lam <= 0:
        raise ValueError(
            "the start-independent envelope needs lam > 0 (it arises from the "
            "saturation ODE under effective growth)")
    if not rho > 1.0:
        raise ValueError("rho must exceed 1")
    if nu0 <= 0:
        raise ValueError("nu0 must be positive")
    if t <= 0:
        raise ValueError("time must be positive")
    q = rho - 1.0
    return (nu0 / lam * (1.0 - math.exp(-lam * q * t))) ** (-1.0 / q)


def linear_bound(lam: float, lam1: float, m: float, u0_sup: float,
                 elapsed: float) -> float:
    """Linear-equation ceiling m e^{(lam - lam1) elapsed} ||u0||_inf."""
    if elapsed < 0:
        raise ValueError("elapsed time must be nonnegative")
    return m * math.exp((lam - lam1) * elapsed) * u0_sup


def blow_up_constant(beta: float, rho: float) -> float:
    """Limit of z(r) (a - r)^{2/(rho-1)} at the blow-up boundary."""
    return (2.0 * (rho + 1.0) / (beta * (rho - 1.0) ** 2)) ** (1.0 / (rho - 1.0))


@dataclass(frozen=True)
class RadialProfile:
    """Shooting result: sampled radial profile and the blow-up radius."""

    r: np.ndarray
    z: np.ndarray
    blow_radius: float
    z0: float

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
    return RadialProfile(r=rs, z=zs, blow_radius=float(r_blow), z0=float(mid))


@dataclass(frozen=True)
class TauInputs:
    """Spectral data of the waiting-time formula on a set E with subset D."""

    dim: int
    lam: float
    lam1_e: float
    lam2_e: float
    c_inf: float            # sup-norm embedding constant surrogate
    v0_norm: float          # L2 norm of the initial data on E
    alpha1: float           # <v0, phi_1^E> in L2(E)
    inf_phi1_e_on_d: float  # inf over D of phi_1^E
    max_phi1_d: float       # max over D of phi_1^D
    gamma: float

    def __post_init__(self):
        if not self.lam > self.lam1_e:
            raise ValueError("need lam > lam1_e")
        if not self.lam2_e > self.lam1_e:
            raise ValueError("need lam2_e > lam1_e")
        if self.alpha1 <= 0:
            raise ValueError("need a positive principal component alpha1")
        if not self.gamma > 1.0:
            raise ValueError("need gamma > 1")


def tau_unbounded(p: TauInputs) -> float:
    """Waiting time after which the linear flow on E, started from v0,
    dominates gamma times the principal eigenfunction of D.

    tau = max( N lam2 / (2e (lam2 - lam1)) *
                   (2 C v0_norm / (alpha1 inf_D phi1^E))^{2/N},
               1/(lam - lam1) * log(2 gamma max_D phi1^D
                                    / (alpha1 inf_D phi1^E)) ).
    """
    denom = p.alpha1 * p.inf_phi1_e_on_d
    first = (p.dim * p.lam2_e / (2.0 * math.e * (p.lam2_e - p.lam1_e))
             * (2.0 * p.c_inf * p.v0_norm / denom) ** (2.0 / p.dim))
    second = (1.0 / (p.lam - p.lam1_e)
              * math.log(2.0 * p.gamma * p.max_phi1_d / denom))
    return max(first, second)


def subsolution_growth(lam: float, eigen: EigenPair, u0: np.ndarray,
                       t: float, cell_volume: float) -> np.ndarray:
    """One-mode lower bound e^{(lam - lam1) t} <u0, phi1> phi1 on the
    lattice; cell_volume weights the discrete inner product."""
    phi = eigen.vector
    coeff = float(np.sum(u0 * phi)) * cell_volume
    factor = math.exp((lam - eigen.value) * t) * coeff
    return factor * phi
