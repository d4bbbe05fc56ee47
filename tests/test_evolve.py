"""Semi-implicit stepping: positivity, comparison structure, recording."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from degenlog import evolve
from degenlog.cli import emit_trajectory_csv, resolve_scenario
from degenlog.geometry import DomainSpec, SetShape, StaticSet
from degenlog.grid import MaskedOperator, SolveFailure, build_grid
from degenlog.evolve import (EquationParams, SchemeConfig, Trajectory, run,
                             step)
from degenlog.scenarios import (realize_initial, registry, run_scenario,
                                scenario_grid)
from degenlog.spectral import principal_eigenpair

UNIT_SQ = DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0))


def _grid(n=16):
    return build_grid(UNIT_SQ, n)


def _random_u0(grid, rng, scale=1.0):
    vals = rng.uniform(0.0, scale, grid.shape)
    return np.where(grid.mask, vals, 0.0)


def _ones(grid):
    return np.where(grid.mask, 1.0, 0.0)


class TestValidation:
    def test_scheme_config(self):
        with pytest.raises(ValueError):
            SchemeConfig(dt=-1.0).validate(1.0)
        with pytest.raises(ValueError):
            SchemeConfig(dt=0.1).validate(5.0)     # dt * lam too large
        with pytest.raises(ValueError):
            SchemeConfig(dt=0.1, growth_cap=0.0).validate(1.0)
        SchemeConfig(dt=1e-3).validate(10.0)

    @pytest.mark.parametrize("cfg, lam, error", [
        (SchemeConfig(solve_tol=0.0), 1.0, "solve_tol must be positive"),
        (SchemeConfig(solve_tol=-1.0), 1.0, "solve_tol must be positive"),
        (SchemeConfig(growth_cap=math.nan), 1.0,
         "growth_cap must be positive"),
        (SchemeConfig(), math.nan, "lam must be finite"),
        (SchemeConfig(), math.inf, "lam must be finite")])
    def test_scheme_config_names_field(self, cfg, lam, error):
        with pytest.raises(ValueError, match=error):
            cfg.validate(lam)

    def test_equation_params(self):
        # the logistic exponent is the constant RHO, not a parameter
        assert evolve.RHO == 2.0
        with pytest.raises(TypeError):
            EquationParams(lam=1.0, rho=3.0)

    @staticmethod
    def _n_values_of(value, monkeypatch):
        monkeypatch.setattr(evolve, "evaluate_n",
                            lambda spec, t, p: np.full(len(p), value))
        params = EquationParams(lam=1.0,
                                moving_set=StaticSet(SetShape.empty()))
        return params.n_values(0.0, np.zeros((3, 2)))

    def test_negative_coefficient_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="nonnegative"):
            self._n_values_of(-1.0, monkeypatch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_coefficient_rejected(self, bad, monkeypatch):
        with pytest.raises(ValueError, match="finite"):
            self._n_values_of(bad, monkeypatch)

    def test_negative_initial_data_rejected(self):
        g = _grid()
        u0 = np.where(g.mask, -1.0, 0.0)
        with pytest.raises(ValueError):
            run(g, EquationParams(lam=0.0), SchemeConfig(dt=1e-3),
                u0, 0.0, 0.01)

    def test_initial_data_off_mask_rejected(self):
        g = build_grid(DomainSpec.disc((0.0, 0.0), 1.0), 16)
        u0 = np.ones(g.shape)
        with pytest.raises(ValueError, match="vanish off"):
            run(g, EquationParams(lam=0.0), SchemeConfig(dt=1e-3),
                u0, 0.0, 0.01)


class TestStep:
    def test_preserves_nonnegativity(self):
        g = _grid()
        rng = np.random.default_rng(2)
        params = EquationParams(lam=5.0)
        op = MaskedOperator(g)
        u = _random_u0(g, rng)[g.mask]
        for _ in range(20):
            u = step(u, rng.uniform(0.0, 3.0, op.n), params,
                     SchemeConfig(dt=2e-3), op)
            assert np.all(u >= 0.0)

    def test_linear_principal_mode_factor(self):
        g = _grid(32)
        pair = principal_eigenpair(g, g.mask, tol=1e-12)
        op = MaskedOperator(g)
        lam, dt = 3.0, 1e-3
        params = EquationParams(lam=lam)
        mode = pair.vector[g.mask]
        nxt = step(mode, np.zeros(op.n), params,
                   SchemeConfig(dt=dt, solve_tol=1e-13), op)
        # one semi-implicit step multiplies an eigenmode by
        # (1 + dt lam) / (1 + dt lam1_h)
        factor = (1.0 + dt * lam) / (1.0 + dt * pair.value)
        assert np.allclose(nxt / mode, factor, rtol=1e-9)

    def test_ordering_in_initial_data(self):
        g = _grid()
        rng = np.random.default_rng(3)
        params = EquationParams(lam=4.0)
        op = MaskedOperator(g)
        ones = np.ones(op.n)
        lo = _random_u0(g, rng)
        hi = lo + np.where(g.mask, rng.uniform(0, 1, g.shape), 0.0)
        u_lo, u_hi = lo[g.mask], hi[g.mask]
        cfg = SchemeConfig(dt=2e-3, solve_tol=1e-12)
        for _ in range(25):
            u_lo = step(u_lo, ones, params, cfg, op)
            u_hi = step(u_hi, ones, params, cfg, op)
            assert np.all(u_lo <= u_hi + 1e-10)

    def test_ordering_in_coefficient(self):
        g = _grid()
        rng = np.random.default_rng(4)
        op = MaskedOperator(g)
        n_small = rng.uniform(0.0, 2.0, op.n)
        n_large = n_small + rng.uniform(0.0, 2.0, op.n)
        params = EquationParams(lam=4.0)
        u_small = u_large = _random_u0(g, rng)[g.mask]
        cfg = SchemeConfig(dt=2e-3, solve_tol=1e-12)
        for _ in range(25):
            u_small = step(u_small, n_small, params, cfg, op)
            u_large = step(u_large, n_large, params, cfg, op)
            # larger coefficient saturates harder
            assert np.all(u_large <= u_small + 1e-10)


class TestRun:
    def test_record_cadence_and_final_record(self):
        g = _grid()
        params = EquationParams(lam=0.0)
        tr = run(g, params, SchemeConfig(dt=1e-3), _ones(g), 0.0, 0.05,
                 sample_every=10)
        assert len(tr.times) == 6                # t0 plus every 10th of 50
        assert tr.times[0] == 0.0
        assert tr.times[-1] == pytest.approx(0.05)
        assert tr.cap_hit is None

    def test_cap_abort(self):
        g = _grid()
        params = EquationParams(lam=20.0)   # linear growth, no brake
        tr = run(g, params, SchemeConfig(dt=1e-3, growth_cap=2.0), _ones(g),
                 0.0, 5.0, sample_every=5)
        assert tr.cap_hit is not None
        assert tr.sup_norms[-1] > 2.0
        assert all(s <= 2.0 for s in tr.sup_norms[:-1])
        assert tr.times[-1] == pytest.approx(tr.cap_hit)

    def test_snapshots_near_requested_times(self):
        g = _grid()
        params = EquationParams(lam=0.0)
        tr = run(g, params, SchemeConfig(dt=1e-3), _ones(g), 0.0, 0.1,
                 snapshot_times=(0.0, 0.05, 0.1))
        assert len(tr.snapshots) == 3
        for want, (got, snap) in zip((0.0, 0.05, 0.1), tr.snapshots):
            assert got == pytest.approx(want, abs=1e-3)
            assert snap.shape == g.shape
            assert np.all(snap[~g.mask] == 0.0)
        # requests less than one step apart are each served within dt/2
        tr = run(g, params, SchemeConfig(dt=2e-3), _ones(g), 0.0, 0.1,
                 snapshot_times=(0.05, 0.0505, 0.05))
        assert len(tr.snapshots) == 3
        for want, (got, _) in zip((0.05, 0.05, 0.0505), tr.snapshots):
            assert got == pytest.approx(want, abs=1e-3)

    def test_pure_decay_rate(self):
        g = _grid(32)
        pair = principal_eigenpair(g, g.mask, tol=1e-12)
        params = EquationParams(lam=0.0)
        tr = run(g, params, SchemeConfig(dt=5e-4, solve_tol=1e-12),
                 pair.vector, 0.0, 0.2, sample_every=100)
        # first-order-in-dt approximation of e^{-lam1 t}
        got = tr.sup_norms[-1] / tr.sup_norms[0]
        assert got == pytest.approx(math.exp(-pair.value * 0.2), rel=2e-2)

    def test_reversed_time_rejected(self):
        g = _grid()
        with pytest.raises(ValueError):
            run(g, EquationParams(lam=0.0), SchemeConfig(dt=1e-3),
                np.zeros(g.shape), 1.0, 0.0)

    @pytest.mark.parametrize("outputs, error", [
        ({"snapshot_times": (-1.0,)}, "outside"),
        ({"snapshot_times": (0.0, 99.0)}, "outside"),
        ({"sample_every": 0}, "sample_every")])
    def test_bad_outputs_rejected(self, outputs, error):
        g = _grid()
        with pytest.raises(ValueError, match=error):
            run(g, EquationParams(lam=0.0), SchemeConfig(dt=1e-3),
                _ones(g), 0.0, 0.2, **outputs)

    def test_packed_initial_data_rejected(self):
        g = _grid()
        packed = _ones(g)[g.mask]
        with pytest.raises(ValueError, match=r"\(225,\).*\(15, 15\)"):
            run(g, EquationParams(lam=0.0), SchemeConfig(dt=1e-3),
                packed, 0.0, 0.01)


def _run_steps(s, steps):
    grid = scenario_grid(s)
    return run(grid, s.params, s.scheme, realize_initial(s, grid),
               s.t0, s.t0 + steps * s.scheme.dt)


class TestCoefficientMemo:
    """n(t, .) from a moving set is recomputed only when K(t) changes."""

    @staticmethod
    def _count_distances(monkeypatch):
        calls = []
        distance = SetShape.distance

        def counted(shape, points):
            calls.append(shape)
            return distance(shape, points)

        monkeypatch.setattr(SetShape, "distance", counted)
        return calls

    @pytest.mark.parametrize("label", ["trichotomy-mid", "jumping-control",
                                       "jumping-disjoint"])
    def test_one_evaluation_per_snapshot_change(self, label, monkeypatch):
        s = registry()[label]
        # the snapshots the steps see, at the times run() steps to
        t, snapshots = s.t0, []
        for _ in range(200):
            snapshots.append(s.params.moving_set.snapshot(t + s.scheme.dt))
            t += s.scheme.dt
        changes = sum(a != b for a, b in zip(snapshots, snapshots[1:]))
        calls = self._count_distances(monkeypatch)
        _run_steps(s, 200)
        assert len(calls) == 1 + changes
        assert changes == (8 if label == "jumping-disjoint" else 0)
        # the memo is no field: equality and repr are those of a fresh copy
        assert s.params == registry()[label].params
        assert repr(s.params) == repr(registry()[label].params)


class TestTrajectory:
    def test_record(self):
        g = _grid()
        tr = Trajectory(growth_cap=1.0, cell_volume=g.cell_volume)
        tr.record(0.5, np.ones(int(g.mask.sum())))
        assert tr.times == [0.5]
        assert tr.sup_norms == [1.0]
        # 15^2 interior nodes of a 16^2-cell unit square
        assert tr.masses[0] == pytest.approx((15 / 16) ** 2)
        assert tr.l2_norms[0] == pytest.approx(15 / 16)


class TestRunStatistics:
    def test_clips_counted(self):
        # measured: the only clips seen over the registry, both benchmark
        # off-registry inputs and three bump inputs are these, 3 entries
        # on steps 14-16, the worst -2.19e-15, from a bump of radius 0.05
        s = resolve_scenario("trichotomy-low", [
            "initial.kind=bump", "initial.center=0.3,0.3",
            "initial.radius=0.05"])
        before = _run_steps(s, 13)
        assert before.steps == 13 and before.clipped_entries == 0
        assert before.most_negative_clip == 0.0
        tr = _run_steps(s, 20)
        assert tr.steps == 20 and tr.clipped_entries == 3
        assert -1e-14 < tr.most_negative_clip < 0.0

    @pytest.mark.parametrize("scale", [1e-6, 1e-14])
    def test_clip_beyond_the_solve_error_fails(self, scale, monkeypatch):
        # a solve within 4 solve_tol ||rhs|| of rhs is that close to the
        # nonnegative exact solution, so a deeper negative entry is a fault
        g = _grid()
        u = _ones(g).ravel()
        params, cfg = EquationParams(lam=1.0), SchemeConfig()
        solve = MaskedOperator.solve_spd

        def dented(op, rhs, *args, **kw):
            x = solve(op, rhs, *args, **kw)
            x[np.flatnonzero(g.mask)[0]] = -scale * np.linalg.norm(rhs)
            return x

        monkeypatch.setattr(MaskedOperator, "solve_spd", dented)
        tr = Trajectory()
        if scale > 4 * cfg.solve_tol:
            with pytest.raises(SolveFailure, match="below the solve's"):
                step(u, np.ones(u.size), params, cfg, MaskedOperator(g),
                     tr=tr)
        else:
            out = step(u, np.ones(u.size), params, cfg, MaskedOperator(g),
                       tr=tr)
            assert out.min() == 0.0 and tr.clipped_entries == 1
            assert tr.most_negative_clip == pytest.approx(
                -scale * (1 + cfg.dt) * np.linalg.norm(u))


def _run_200_steps(s, solve_tol=None):
    scheme = s.scheme if solve_tol is None else \
        dataclasses.replace(s.scheme, solve_tol=solve_tol)
    return run_scenario(dataclasses.replace(
        s, scheme=scheme, t_end=s.t0 + 200 * s.scheme.dt,
        outputs=dataclasses.replace(s.outputs, sample_every=1)))


def _disc_mid():
    return resolve_scenario("trichotomy-mid", [
        "domain.kind=disc", "domain.center=1,1", "domain.radius=1"])


class TestPredictedStart:
    """run() starts each solve from the quadratic extrapolation of the last
    three states, which the solve scales by its Galerkin factor: fewer
    iterations, the same solve tolerance."""

    def test_iterations_counted_and_cut(self):
        # measured: 6,143 iterations from u_k, 5,009 from the linear
        # extrapolation 2u_k - u_{k-1}, 3,536 from the quadratic one, 3,438
        # from its Galerkin-scaled multiple
        tr = _run_200_steps(registry()["trichotomy-mid"])
        assert 3000 < tr.cg_iterations <= 4000

    def test_scaled_start_halves_decay_iterations(self):
        # measured on the whole run: 8,156 iterations from the quadratic
        # extrapolation, 4,362 from its Galerkin-scaled multiple
        s = resolve_scenario("trichotomy-low", ["domain.resolution=16"])
        assert run_scenario(s).cg_iterations <= 5000

    @pytest.mark.parametrize("scenario", [
        lambda: resolve_scenario("trichotomy-low", ["domain.resolution=16"]),
        lambda: registry()["trichotomy-high"]],
        ids=["low-square16", "high"])
    def test_solve_statistics(self, scenario):
        # the worst final residual over its target would show drift of the
        # recursive residual; the recheck refuses a ratio above 4
        tr = run_scenario(scenario())
        assert 0 < tr.cg_max_iterations <= tr.cg_iterations
        assert 0.0 < tr.worst_residual_ratio <= 4.0

    @pytest.mark.parametrize("scenario", [
        lambda: registry()["trichotomy-mid"], _disc_mid],
        ids=["square", "disc"])
    def test_sup_norms_match_a_tight_solve(self, scenario):
        s = scenario()
        got = _run_200_steps(s).sup_norms
        ref = _run_200_steps(s, solve_tol=1e-13).sup_norms
        worst = max(abs(a - b) / b for a, b in zip(got, ref))
        # measured: 9.3e-10 on the square, 1.24e-9 on the disc
        assert worst <= 5e-9


def _fresh_run(grid, params, cfg, u0, t0, t_end, sample_every=1,
               snapshot_times=()):
    """run() with a fresh array for every vector, each step's inputs
    checked unchanged after it: the reference for run()'s kept buffers."""
    op, points = MaskedOperator(grid), grid.points()
    tr = Trajectory(growth_cap=cfg.growth_cap, cell_volume=grid.cell_volume)
    t, states = t0, [u0.ravel().copy()]
    tr.record(t, states[-1])
    pending = sorted(float(ts) for ts in snapshot_times)
    while pending and abs(pending[0] - t0) <= 0.5 * cfg.dt:
        tr.snapshots.append((t, u0.copy()))
        pending.pop(0)
    n_steps = int(round((t_end - t0) / cfg.dt))
    spec, shape, n_next = params.moving_set, None, None
    for k in range(1, n_steps + 1):
        snap = None if spec is None else spec.snapshot(t + cfg.dt)
        if n_next is None or snap != shape:
            shape, n_next = snap, params.n_values(t + cfg.dt, points)
        x0 = None if len(states) < 3 else np.maximum(
            3.0 * (states[-1] - states[-2]) + states[-3], 0.0)
        given = [v.copy() for v in (states[-1], n_next, x0) if v is not None]
        states.append(step(states[-1], n_next, params, cfg, op, x0, tr=tr))
        after = [v for v in (states[-2], n_next, x0) if v is not None]
        assert all(np.array_equal(_bits(a), _bits(b))
                   for a, b in zip(given, after))
        t += cfg.dt
        tr.steps = k
        while pending and t >= pending[0] - 0.5 * cfg.dt:
            tr.snapshots.append((t, states[-1].reshape(grid.shape).copy()))
            pending.pop(0)
        if k % sample_every == 0 or k == n_steps:
            tr.record(t, states[-1])
            if tr.sup_norms[-1] > cfg.growth_cap:
                tr.cap_hit = t
                break
    tr.unserved_snapshots = tuple(pending)
    tr.cg_iterations = op.iterations
    tr.cg_max_iterations = op.max_iterations
    tr.worst_residual_ratio = op.worst_residual_ratio
    return tr


def _bits(v):
    return np.ascontiguousarray(v, dtype=float).view(np.int64)


class TestKeptBuffers:
    """run() keeps its states, start, reaction and right-hand side in
    buffers it overwrites; the solves write into kept buffers too.  None of
    that may change a bit, or write to a vector a solve reads."""

    @pytest.fixture
    def unchanged_inputs(self, monkeypatch):
        """Wrap solve_spd to check that rhs, c and x0 leave it unchanged."""
        solve, calls = MaskedOperator.solve_spd, []

        def checked(op, rhs, dt, c, tol=1e-10, x0=None, out=None):
            given = [v.copy() for v in (rhs, c, x0) if v is not None]
            sol = solve(op, rhs, dt, c, tol=tol, x0=x0, out=out)
            after = [v for v in (rhs, c, x0) if v is not None]
            assert all(np.array_equal(_bits(a), _bits(b))
                       for a, b in zip(given, after))
            calls.append(dt)
            return sol

        monkeypatch.setattr(MaskedOperator, "solve_spd", checked)
        return calls

    @pytest.mark.parametrize("label, overrides, snapshot_times", [
        ("trichotomy-high", ["domain.resolution=16"], (0.0, 0.1, 0.25, 0.3)),
        ("trichotomy-mid", ["domain.kind=disc", "domain.center=1,1",
                            "domain.radius=1", "domain.resolution=32"],
         (0.0, 0.05, 0.1, 0.101, 0.3)),
    ], ids=["high-square16-cap", "mid-disc32-snapshots"])
    def test_run_is_a_loop_of_fresh_steps(self, label, overrides,
                                          snapshot_times, unchanged_inputs):
        s = resolve_scenario(label, overrides)
        grid = scenario_grid(s)
        t_end = s.t0 + 150 * s.scheme.dt
        args = (grid, s.params, s.scheme, realize_initial(s, grid), s.t0,
                t_end, 1, snapshot_times)
        got = run(*args)
        solves = len(unchanged_inputs)
        want = _fresh_run(*args)
        assert len(unchanged_inputs) == 2 * solves == 2 * got.steps
        # the cap cuts the high run off at step 147, before t = 0.3
        assert (got.cap_hit is not None) == (label == "trichotomy-high")
        assert got.steps == (147 if label == "trichotomy-high" else 150)
        assert got.unserved_snapshots == \
            ((0.3,) if label == "trichotomy-high" else ())
        assert len(got.snapshots) == len(snapshot_times) - \
            len(got.unserved_snapshots) >= 2
        for name in ("times", "sup_norms", "l2_norms", "masses",
                     "unserved_snapshots", "cap_hit", "cg_iterations",
                     "cg_max_iterations", "worst_residual_ratio", "steps",
                     "clipped_entries", "most_negative_clip"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), \
                name
        for (t_got, a_got), (t_want, a_want) in zip(got.snapshots,
                                                   want.snapshots):
            assert t_got == t_want
            assert np.array_equal(_bits(a_got), _bits(a_want))


class TestPinnedTrajectories:
    """sha256 of 200-step runs, each step recorded: any reordered
    floating-point operation in the step shows here.  Re-pinned when the
    solve moved to the assembled K = I + dt A + diag(c), after full runs of
    every registry label agreed with the previous sup norms to 1e-8
    relative and the suite reports stayed byte-identical.  Re-pinned again
    when run() began each solve from the quadratic extrapolation of the last
    three states: only the start of each solve moved, every solve still
    meets solve_tol, and over every registry label and both off-registry
    inputs of the benchmark the full runs lie at most 1.07e-8 relative from
    runs at solve_tol = 1e-13 (1e-11 for alternating-nested, whose solves
    near its cap cannot reach 1e-12), against 1.08e-8 when each solve
    started from u_k.  Re-pinned again when each solve began scaling its
    start by the Galerkin factor: over the same runs the distance is at
    most 3.3e-9 (square-16), and the cap-hit times did not move.  The disc
    hash alone was re-pinned when the solve moved to the lattice system
    stored by diagonals, whose products add the disc's off-mask zeros and
    whose norms sum over the whole lattice: the 200-step disc run and the
    full trichotomy-mid run on the 64-cell disc each lie 1.24e-9 relative
    from runs at solve_tol = 1e-13, as before (1.24e-9), and the full run's
    final sup norm moved from 605.6256564991049 to 605.6256565017131."""

    CSV_SHA256 = {
        "trichotomy-high":
            "5989abb13865becb619e0db2d570ffd87ff6e7ad9ffc2b688a2589cb2998d9f7",
        "jumping-control":
            "b4964b805e8230f288e4c59d4e6f33b2481d5f271bae2bdaf350848ad78a5d30",
        "rotating-slow":
            "aa52a2d55daad4e4a2cd5e3b3ff5197b6e4f217ada64208c6966952e720e8138",
        "translating-slow":
            "9231163b0f6c0cc468dfd8a89ba90c9075a684525efca910575dc92cbff9a853",
    }

    @pytest.mark.parametrize("label", CSV_SHA256)
    def test_registry_csv(self, label, tmp_path):
        path = tmp_path / "trajectory.csv"
        emit_trajectory_csv(_run_200_steps(registry()[label]), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            self.CSV_SHA256[label]

    def test_disc_sup_norms(self):
        sups = repr(_run_200_steps(_disc_mid()).sup_norms).encode()
        assert hashlib.sha256(sups).hexdigest() == \
            "6d1bc2a6eb108f36731d9695af8d77c02a2b507acc8ce53b1a7b5a17ac1d1ff2"
