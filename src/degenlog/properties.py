"""Acceptance criteria 01-05: properties of the M-matrix scheme and the
closed-form oracles, as rows (name, ok, detail).

`degenlog suite properties` prints the rows and the acceptance tests assert
on them by name.  Seeds, sample counts and grids are fixed, so the rows are
deterministic.  A detail holds no comma: it ends a line of the CSV report.
"""

import math

import numpy as np

from .evolve import RHO, EquationParams, SchemeConfig, run, step
from .geometry import NU_MAX, DomainSpec, SetShape, StaticSet
from .grid import MaskedOperator, build_grid, mask_from_shape
from .oracles import OdeBoundParams, w_closed_form, w_inf, w_rk4
from .spectral import (analytic_lambda1, lambda0_of_set, principal_eigenpair,
                       principal_eigenvalue, second_eigenvalue)

__all__ = ["suite_properties"]

UNIT_SQ = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))


def _rel_row(name, value, exact, bound):
    rel = abs(value - exact) / exact
    return name, rel < bound, f"rel_err={rel:.3g}"


def eigenvalue_rows():
    """Criterion 01: eigenvalues of the square and the disc against their
    closed forms."""
    disc = DomainSpec.disc((0.0, 0.0), 1.0)
    gsq = build_grid(UNIT_SQ, 128)
    gd = build_grid(disc, 256)
    return [_rel_row("eigen-square-lambda1", principal_eigenpair(
                gsq, gsq.mask).value, analytic_lambda1(UNIT_SQ), 0.005),
            _rel_row("eigen-square-lambda2", second_eigenvalue(gsq, gsq.mask),
                     5.0 * math.pi ** 2, 0.01),
            _rel_row("eigen-disc-lambda1", principal_eigenvalue(gd, gd.mask),
                     analytic_lambda1(disc), 0.01)]


def lambda0_rows():
    """Criterion 02: the characteristic value of a ball is its own principal
    eigenvalue, neighborhood values grow as delta shrinks, and a point's is
    infinite."""
    g = build_grid(UNIT_SQ, 128)
    ball = SetShape.ball((0.5, 0.5), 0.3)
    est = lambda0_of_set(g, ball)
    own = principal_eigenvalue(g, mask_from_shape(g, ball))
    pt = lambda0_of_set(g, SetShape.point((0.5, 0.5)))
    monotone = all(b >= a for values in (est.values, pt.values)
                   for a, b in zip(values, values[1:]))
    # an infinite estimate has value inf, so its rel_err fails the bound
    return [_rel_row("lambda0-ball-matches-own", est.value, own, 0.02),
            ("lambda0-values-monotone", monotone,
             "ball and point values nondecreasing as delta shrinks"),
            ("lambda0-point-infinite", pt.verdict == "infinite",
             "verdict infinite at cap 1e4")]


def comparison_rows():
    """Criterion 03: nodewise comparison in the coefficient, in the initial
    data, and under scaling of the initial data; 50 steps from random pairs
    on the 16-cell unit square."""
    grid = build_grid(UNIT_SQ, 16)
    op = MaskedOperator(grid)
    cfg = SchemeConfig(dt=1e-3, solve_tol=1e-12)
    params = EquationParams(lam=5.0)
    rng = np.random.default_rng(100)

    def draw(hi):
        return rng.uniform(0.0, hi, op.n)

    def evolve(u0, n_field):
        out = [u0]
        for _ in range(50):
            out.append(step(out[-1], n_field, params, cfg, op))
        return out

    def breach(lower, upper):
        """Largest excess of an evolution over the one that bounds it."""
        return max(float(np.max(a - b)) for a, b in zip(lower, upper))

    worst_n = worst_u = worst_s = -math.inf
    for _ in range(100):
        n2 = draw(1.0)
        n1, u0 = n2 + draw(1.0), draw(2.0)
        worst_n = max(worst_n, breach(evolve(u0, n1), evolve(u0, n2)))
    for _ in range(100):
        n1, u0 = draw(1.0), draw(1.0)
        v0 = u0 + draw(1.0)
        worst_u = max(worst_u, breach(evolve(u0, n1), evolve(v0, n1)))
    for alpha in (0.5, 2.0):
        for _ in range(10):
            n1, u0 = draw(1.0), draw(1.0)
            scaled = [alpha * b for b in evolve(u0, n1)]
            u = evolve(alpha * u0, n1)
            worst_s = max(worst_s, breach(u, scaled) if alpha >= 1.0
                          else breach(scaled, u))
    return [(name, worst <= 1e-10, f"worst_breach={worst:.3g}")
            for name, worst in (("comparison-coefficient", worst_n),
                                ("comparison-initial-data", worst_u),
                                ("comparison-scaling", worst_s))]


def linear_bound_rows():
    """Criterion 04: with no saturation the sup-norm stays under
    exp((lam - lambda1_h) t) times its initial value; 30 random runs."""
    grid = build_grid(UNIT_SQ, 16)
    lam1h = principal_eigenpair(grid, grid.mask).value
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(30):
        lam = rng.uniform(-2.0, 20.0)
        dt = rng.uniform(5e-4, 1e-3)
        t_end = rng.uniform(0.2, 0.4)
        u0 = np.where(grid.mask, rng.uniform(0.0, 1.0, grid.shape), 0.0)
        tr = run(grid, EquationParams(lam=lam),
                 SchemeConfig(dt=dt, solve_tol=1e-12), u0, 0.0, t_end)
        sup0 = tr.sup_norms[0]
        for t, s in zip(tr.times[1:], tr.sup_norms[1:]):
            worst = max(worst, s / (math.exp((lam - lam1h) * t) * sup0))
    return [("linear-sup-norm-bound", worst <= 1.0 + 1e-8,
             f"worst_sup_over_bound={worst:.6g}")]


def _w_breach(dt: float) -> float:
    """Largest relative excess of simulated sup-norms over the exact
    saturation envelope W when the coefficient has a global floor."""
    grid = build_grid(UNIT_SQ, 16)
    lam, nu0, w0 = 5.0, NU_MAX, 8.0
    params = EquationParams(lam=lam, moving_set=StaticSet(SetShape.empty()))
    u0 = np.where(grid.mask, w0, 0.0)
    tr = run(grid, params, SchemeConfig(dt=dt, solve_tol=1e-12), u0, 0.0, 1.0)
    p = OdeBoundParams(lam=lam, nu0=nu0, rho=RHO, w0=w0)
    breach = 0.0
    for t, s in zip(tr.times[1:], tr.sup_norms[1:]):
        w = w_closed_form(p, t)
        breach = max(breach, (s - w) / w)
    return breach


def ode_rows():
    """Criterion 05: the closed-form saturation ODE solution W against RK4,
    the envelope w_inf above W, and simulated sup-norms under W up to an
    O(dt) excess that shrinks when dt halves."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        p = OdeBoundParams(lam=rng.uniform(-3, 8), nu0=rng.uniform(0.2, 3),
                           rho=rng.uniform(1.5, 3.5), w0=rng.uniform(0.1, 5))
        t = rng.uniform(0.1, 2.0)
        worst = max(worst, abs(w_closed_form(p, t) - w_rk4(p, t)))

    dominates = True
    for _ in range(50):
        lam = rng.uniform(0.5, 8.0)
        nu0 = rng.uniform(0.2, 3.0)
        rho = rng.uniform(1.5, 3.0)
        t = rng.uniform(0.05, 4.0)
        p = OdeBoundParams(lam=lam, nu0=nu0, rho=rho, w0=rng.uniform(0.1, 100))
        dominates = dominates and \
            w_inf(lam, nu0, rho, t) >= w_closed_form(p, t) - 1e-12

    b_coarse, b_fine = _w_breach(5e-4), _w_breach(2.5e-4)
    # first-order scheme: any excess over W is O(dt) and shrinks with dt
    refines = (b_coarse <= 0.1 * 5e-4 and b_fine <= 0.1 * 2.5e-4
               and (b_coarse <= 1e-12 or b_fine <= 0.75 * b_coarse))
    return [("ode-closed-form-vs-rk4", worst < 1e-8,
             f"max_abs_diff={worst:.3g}"),
            ("ode-envelope-dominates", dominates,
             "w_inf >= w at 50 sampled points"),
            ("w-dominance-refinement", refines,
             f"breach={b_coarse:.3g}@dt=5e-4 {b_fine:.3g}@dt=2.5e-4")]


def suite_properties():
    """Rows (name, ok, detail) of criteria 01-05, in criterion order."""
    rows = (eigenvalue_rows() + lambda0_rows() + comparison_rows()
            + linear_bound_rows() + ode_rows())
    return [(name, bool(ok), detail) for name, ok, detail in rows]
