"""Acceptance gate: golden values, structural properties and scenario
cross-checks at pinned tolerances.  Each test prints one pass/fail line."""

import math

import numpy as np
import scipy.ndimage as ndi

from degenlog.cli import render_suite, scenario_row, suite_report
from degenlog.evolve import EquationParams, SchemeConfig, run, step
from degenlog.geometry import DomainSpec, SetShape, StaticSet
from degenlog.grid import MaskedOperator, build_grid, dirichlet_matrix
from degenlog.oracles import TauInputs, tau_unbounded
from degenlog.scenarios import InitialData, Scenario, scenario_grid
from degenlog.spectral import principal_eigenpair, second_eigenvalue
from test_oracles import blow_up_constant, z_radial
from test_spectral import linear_evolve

UNIT_SQ = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))


def _verdict(cache, label):
    return cache.report(label).verdict


def _line(num, detail):
    print(f"criterion {num:02d}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1-5. structural properties: the rows `degenlog suite properties` prints
# ---------------------------------------------------------------------------


def _rows(properties, num, *names):
    """Assert that the named property rows pass; print their details."""
    rows = {name: (ok, detail) for name, ok, detail in properties}
    assert all(rows[name][0] for name in names), \
        f"criterion {num:02d}: {[(name, rows[name]) for name in names]}"
    _line(num, "; ".join(f"{name} {rows[name][1]}" for name in names))


def test_criterion_01_eigenvalue_golden_values(properties):
    _rows(properties, 1, "eigen-square-lambda1", "eigen-square-lambda2",
          "eigen-disc-lambda1")


def test_criterion_02_characteristic_value(properties):
    _rows(properties, 2, "lambda0-ball-matches-own", "lambda0-values-monotone",
          "lambda0-point-infinite")


def test_criterion_03_comparison_and_scaling(properties):
    _rows(properties, 3, "comparison-coefficient", "comparison-initial-data",
          "comparison-scaling")


def test_criterion_04_linear_bound(properties):
    _rows(properties, 4, "linear-sup-norm-bound")


def test_criterion_05_saturation_ode(properties):
    _rows(properties, 5, "ode-closed-form-vs-rk4", "ode-envelope-dominates",
          "w-dominance-refinement")


# ---------------------------------------------------------------------------
# 6. boundary blow-up profile
# ---------------------------------------------------------------------------


def test_criterion_06_boundary_blow_up():
    a = 0.8
    consts = {}
    for rho, beta in ((2.0, 1.0), (3.0, 1.0)):
        prof = z_radial(a=a, lam=5.0, beta=beta, rho=rho, dim=2)
        assert abs(prof.blow_radius - a) <= 1e-6, \
            f"blow radius {prof.blow_radius} vs {a}"
        target = blow_up_constant(beta, rho)
        sel = (prof.z > 1e4) & (prof.z < 1e6)
        got = prof.z[sel] * (prof.blow_radius - prof.r[sel]) ** (2.0 / (rho - 1))
        rel = float(np.max(np.abs(got - target) / target))
        assert rel < 0.05, f"asymptotic constant off by {rel:.3g} at rho={rho}"
        consts[rho] = rel

    # nodal ceiling: any run with a coefficient floor beta on the ball stays
    # under the radial profile at every recorded time
    prof = z_radial(a=a, lam=5.0, beta=1.0, rho=2.0, dim=2)
    grid = build_grid(DomainSpec.disc((0.0, 0.0), a), 128)
    params = EquationParams(lam=5.0)
    op, on = MaskedOperator(grid), grid.mask.ravel()
    ceiling = prof.at(np.linalg.norm(grid.points()[on], axis=1))
    t, u, ones = 0.0, np.where(on, 20.0, 0.0), np.ones(on.size)
    cfg = SchemeConfig(dt=1e-3, solve_tol=1e-10, growth_cap=1e9)
    for k in range(1, 501):
        u = step(u, ones, params, cfg, op)
        t += cfg.dt
        if k % 25 == 0:
            assert np.all(u[on] <= ceiling) and not u[~on].any(), \
                f"profile ceiling breached at t={t:.3f}"
    _line(6, f"radius within 1e-6, const rel errs "
             f"{consts[2.0]:.2e}/{consts[3.0]:.2e}, ceiling holds")


# ---------------------------------------------------------------------------
# 7. autonomous trichotomy
# ---------------------------------------------------------------------------


def test_criterion_07_autonomous_trichotomy(cache):
    low = _verdict(cache, "trichotomy-low")
    assert low.kind == "decay", f"low rate: {low.kind} ({low.evidence})"
    tr = cache.trajectory("trichotomy-low")
    assert tr.sup_norms[-1] < 1e-6 * tr.sup_norms[0]

    mid = _verdict(cache, "trichotomy-mid")
    assert mid.kind == "bounded", f"mid rate: {mid.kind} ({mid.evidence})"

    high = _verdict(cache, "trichotomy-high")
    assert high.kind == "grow_up", f"high rate: {high.kind} ({high.evidence})"
    sups = np.asarray(cache.trajectory("trichotomy-high").sup_norms)
    tail = sups[len(sups) // 2:]
    assert np.all(np.diff(tail) >= -1e-9), "grow-up tail not monotone"
    _line(7, "decay / bounded / grow-up with monotone tail")


# ---------------------------------------------------------------------------
# 8. spatially separated alternation is bounded for every growth rate
# ---------------------------------------------------------------------------


def test_criterion_08_jumping_sets(cache):
    rep = cache.report("jumping-disjoint")
    s = cache.scenario("jumping-disjoint")
    n_phases = (s.t_end - s.t0) / s.params.moving_set.period
    assert n_phases >= 200, f"only {n_phases:.0f} reference periods"
    assert rep.verdict.kind == "bounded", \
        f"{rep.verdict.kind} ({rep.verdict.evidence})"
    assert rep.status == "CONSISTENT"

    ctrl = cache.report("jumping-control")
    assert ctrl.verdict.kind == "grow_up", \
        f"static control: {ctrl.verdict.kind}"
    assert ctrl.status == "CONSISTENT"
    _line(8, f"bounded over {n_phases:.0f} periods; static control grows up")


# ---------------------------------------------------------------------------
# 9. recurrent saturation intervals
# ---------------------------------------------------------------------------


def test_criterion_09_intermittent_saturation(cache):
    rep = cache.report("intermittent")
    assert rep.verdict.kind == "bounded", \
        f"{rep.verdict.kind} ({rep.verdict.evidence})"
    check = next(c for c in rep.checks if c.name == "intermittent-saturation")
    assert check.hypotheses_hold
    env = dict(check.details)["w_inf_at_eta"]
    s = cache.scenario("intermittent")
    period = s.params.moving_set.period
    tr = cache.trajectory("intermittent")
    times = np.asarray(tr.times)
    sups = np.asarray(tr.sup_norms)
    ends = [k * period for k in range(1, int(s.t_end / period) + 1)]
    checked = 0
    for t_end_i in ends:
        idx = np.argmin(np.abs(times - t_end_i))
        assert abs(times[idx] - t_end_i) < 1e-9
        assert sups[idx] <= env * 1.05, \
            f"sup {sups[idx]:.4g} above envelope {env:.4g} at t={t_end_i}"
        checked += 1
    assert checked >= 10
    _line(9, f"bounded; {checked} interval-end sups under "
             f"{env:.4g} * 1.05")


# ---------------------------------------------------------------------------
# 10. growth rate below the moving spectral floor
# ---------------------------------------------------------------------------


def test_criterion_10_moving_spectral_floor(cache):
    rep = cache.report("translating-slow")
    check = next(c for c in rep.checks if c.name == "moving-spectral-floor")
    assert check.hypotheses_hold, "floor criterion did not fire"
    floor = dict(check.details)["floor"]
    s = cache.scenario("translating-slow")
    assert s.params.lam < floor
    assert rep.verdict.kind == "bounded"
    assert rep.status == "CONSISTENT"
    _line(10, f"lam {s.params.lam} < floor {floor:.4g}, bounded, CONSISTENT")


# ---------------------------------------------------------------------------
# 11. eigen-dominance after the waiting time; slowly carried sanctuary
# ---------------------------------------------------------------------------


def test_criterion_11_eigen_dominance_and_carried_growth(cache):
    # square region E with a concentric sub-square D: after tau, the linear
    # flow started from the sub-square's principal mode dominates gamma
    # times that mode
    grid = build_grid(UNIT_SQ, 64)
    pts = grid.points()

    def box_mask(lo, hi):
        inside = np.all((pts > lo) & (pts < hi), axis=1)
        return inside.reshape(grid.shape) & grid.mask

    m_e = box_mask(0.125, 0.875)
    m_d = box_mask(0.4375, 0.5625)
    pair_e = principal_eigenpair(grid, m_e)
    lam2_e = second_eigenvalue(grid, m_e)
    pair_d = principal_eigenpair(grid, m_d)
    phi_e, phi_d = pair_e.vector, pair_d.vector
    alpha1 = float(np.sum(phi_d * phi_e)) * grid.cell_volume
    lam, gamma = 45.0, 2.0
    tau = tau_unbounded(TauInputs(
        dim=2, lam=lam, lam1_e=pair_e.value, lam2_e=lam2_e, c_inf=1.0,
        v0_norm=1.0, alpha1=alpha1,
        inf_phi1_e_on_d=float(np.min(phi_e[m_d])),
        max_phi1_d=float(np.max(phi_d)), gamma=gamma))
    v = np.zeros(grid.shape)
    v[m_e] = linear_evolve(dirichlet_matrix(grid, m_e), phi_d[m_e], tau,
                           lam=lam)
    assert np.all(v[m_d] >= gamma * phi_d[m_d]), \
        "linear flow fails to dominate the scaled sub-square mode"

    rep = cache.report("carried-growth")
    check = next(c for c in rep.checks if c.name == "carried-growth")
    assert check.hypotheses_hold, "carried-growth criterion did not fire"
    details = dict(check.details)
    assert details["carry_window"] >= details["tau"]
    assert rep.verdict.kind == "grow_up"
    assert rep.status == "CONSISTENT"
    _line(11, f"dominance after tau={tau:.3g}; carried scenario grows up")


# ---------------------------------------------------------------------------
# 12. nested alternation with a long growth phase
# ---------------------------------------------------------------------------


def test_criterion_12_nested_alternation(cache):
    rep = cache.report("alternating-nested")
    check = next(c for c in rep.checks
                 if c.name == "alternating-nested-growth")
    assert check.hypotheses_hold, "alternation criterion did not fire"
    assert rep.verdict.kind == "grow_up", \
        f"{rep.verdict.kind} ({rep.verdict.evidence})"
    assert rep.status == "CONSISTENT"

    s = cache.scenario("alternating-nested")
    gamma = s.predict_plan.gamma
    period = s.params.moving_set.period
    tr = cache.trajectory("alternating-nested")
    times = np.asarray(tr.times)
    sups = np.asarray(tr.sup_norms)
    peaks = []
    k = 1
    while k * period <= times[-1] + 1e-9:
        idx = np.argmin(np.abs(times - k * period))
        assert abs(times[idx] - k * period) < 1e-9
        peaks.append(sups[idx])
        k += 1
    assert len(peaks) >= 3, f"only {len(peaks)} phase starts recorded"
    ratios = [b / a for a, b in zip(peaks, peaks[1:])]
    assert all(r >= gamma * 0.95 for r in ratios), \
        f"phase-start growth ratios {ratios} below {gamma * 0.95}"
    _line(12, f"grow-up; phase-start ratios {[f'{r:.3g}' for r in ratios]} "
              f">= {gamma * 0.95}")


# ---------------------------------------------------------------------------
# 13. strict interior positivity and initial-data independence
# ---------------------------------------------------------------------------


def test_criterion_13_hopf_and_data_independence():
    dom = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))
    grid = build_grid(dom, 32)
    params = EquationParams(lam=10.0,
                            moving_set=StaticSet(SetShape.ball((0.5, 0.5),
                                                               0.2)))
    # start from a bump vanishing near the boundary so interior positivity
    # is a statement about the flow, not the data
    p = grid.points()
    bump = np.maximum(1.0 - (np.linalg.norm(p - 0.5, axis=1) / 0.25) ** 2, 0.0)
    u0 = np.where(grid.mask, bump.reshape(grid.shape), 0.0)
    tr = run(grid, params, SchemeConfig(dt=1e-3), u0, 0.0, 0.5,
             snapshot_times=tuple(0.1 + 0.1 * i for i in range(5)))
    assert len(tr.snapshots) == 5
    edge = grid.mask & ~ndi.binary_erosion(grid.mask)
    for t, snap in tr.snapshots:
        assert t >= 0.1 - 1e-9
        assert np.all(snap[edge] > 0.0), \
            f"inward difference not positive at t={t:.2f}"
        assert np.all(snap[grid.mask] > 0.0)

    s = Scenario(label="sandwich", domain=dom, resolution=16,
                 params=params, scheme=SchemeConfig(dt=2e-3),
                 t0=0.0, t_end=1.0, initial=InitialData("constant"))
    g16 = scenario_grid(s)
    rng = np.random.default_rng(13)
    worst = -math.inf
    for _ in range(20):
        u0 = np.where(g16.mask, rng.uniform(0.05, 2.0, g16.shape), 0.0)
        v0 = np.where(g16.mask, rng.uniform(0.05, 2.0, g16.shape), 0.0)
        alpha, beta, breach = initial_data_independence(s, u0, v0, delta=0.1,
                                                        n_samples=10)
        assert 0.0 < alpha <= beta
        worst = max(worst, breach)
    assert worst <= 1e-8, f"sandwich breached by {worst:.3g}"
    _line(13, f"interior positivity for t >= 0.1; worst sandwich breach "
              f"{worst:.2e} over 20 pairs")


def initial_data_independence(s: Scenario, u0: np.ndarray, v0: np.ndarray,
                              delta: float, n_samples: int = 10):
    """Sandwich test: after a settling time delta, the two evolutions stay
    ordered by the nodewise ratios measured at that time.

    Returns (alpha, beta, worst_violation) where worst_violation is the
    largest nodewise breach of alpha*u <= v <= beta*u over the sample times
    (nonpositive means the sandwich holds).
    """
    grid = scenario_grid(s)
    op, points, on = MaskedOperator(grid), grid.points(), grid.mask.ravel()
    dt = s.scheme.dt
    n_settle = int(round(delta / dt))

    def advance(u, v, t):
        n_next = s.params.n_values(t + dt, points)
        u, v = (step(u, n_next, s.params, s.scheme, op),
                step(v, n_next, s.params, s.scheme, op))
        return u, v, t + dt

    t, u, v = s.t0, u0.ravel(), v0.ravel()
    for _ in range(n_settle):
        u, v, t = advance(u, v, t)
    if np.any(u[on] <= 0.0):
        raise RuntimeError(
            "reference evolution vanished at an interior node after the "
            "settling time; refine dt or the grid")
    ratio = v[on] / u[on]
    alpha, beta = float(ratio.min()), float(ratio.max())
    horizon = s.t_end - (s.t0 + delta)
    sample_gap = max(int(round(horizon / dt / n_samples)), 1)
    worst = -math.inf
    for k in range(n_samples * sample_gap):
        u, v, t = advance(u, v, t)
        if (k + 1) % sample_gap == 0:
            scale = max(float(np.max(v)), 1e-300)
            breach_low = float(np.max(alpha * u[on] - v[on])) / scale
            breach_high = float(np.max(v[on] - beta * u[on])) / scale
            worst = max(worst, breach_low, breach_high)
    return alpha, beta, worst


# ---------------------------------------------------------------------------
# 14. deterministic reports
# ---------------------------------------------------------------------------


def test_criterion_14_deterministic_reports(cache, properties):
    # the session's rows (one independent computation in this process)
    # against one fresh suite run whose scenarios run in worker processes
    rows = [scenario_row(cache.scenario(lb), cache.report(lb))
            for lb in cache.labels]
    text1, csv1, code1 = render_suite("all", rows, properties)
    text2, csv2, code2 = suite_report("all", jobs=2)
    assert text1 == text2, "text reports differ between runs"
    assert csv1 == csv2, "csv reports differ between runs"
    assert code1 == code2 == 0, f"suite reported failures (exit {code1})"
    _line(14, f"cached and fresh full-suite reports byte-identical "
              f"({len(text1)} chars)")
