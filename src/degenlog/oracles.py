"""Independent analytic and ODE references used to cross-check simulation.

Contents: the saturation supersolution W and its start-independent envelope
W_inf, and the waiting time tau after which the linear flow on a large set
dominates a scaled eigenfunction on a subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "OdeBoundParams",
    "TauInputs",
    "w_closed_form",
    "w_rk4",
    "w_inf",
    "tau_unbounded",
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
