"""Scenario descriptions, the verdict classifier and the prediction layer."""

import dataclasses
import hashlib

import numpy as np
import pytest

from degenlog import scenarios, spectral
from degenlog.evolve import EquationParams, SchemeConfig, Trajectory
from degenlog.geometry import DomainSpec, SetShape, StaticSet
from degenlog.scenarios import (InitialData, OutputPlan, REGISTRY_LABELS,
                                Scenario, classify, cross_check, predict,
                                realize_initial, registry, scenario_grid)
from degenlog.spectral import lambda0_of_set

DOM = DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0))


def _scenario(**kw):
    base = dict(
        label="t",
        domain=DOM,
        resolution=16,
        params=EquationParams(lam=5.0,
                              moving_set=StaticSet(SetShape.ball((1, 1), 0.3))),
        scheme=SchemeConfig(dt=2e-3),
        t0=0.0,
        t_end=1.0,
        initial=InitialData("constant"),
    )
    base.update(kw)
    return Scenario(**base)


def _traj(sups, cap=1e5, cap_hit=None):
    sups = list(sups)
    return Trajectory(times=list(np.arange(len(sups), dtype=float)),
                      sup_norms=sups, l2_norms=sups, masses=sups,
                      cap_hit=cap_hit, growth_cap=cap)


class TestInitialData:
    def test_constant_positive_only(self):
        with pytest.raises(ValueError):
            InitialData("constant", 0.0)

    def test_bump_validation(self):
        with pytest.raises(ValueError):
            InitialData.bump((1, 1), 0.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown initial data kind"):
            InitialData(kind="gauss")

    def test_direct_construction_checks_values(self):
        # the bump's radius is squared, so a negative one would run as its
        # absolute value
        with pytest.raises(ValueError, match="positive radius and height"):
            InitialData(kind="bump", value=1.0, center=(1.0, 1.0),
                        radius=-0.5)
        with pytest.raises(ValueError, match="must be positive"):
            InitialData(kind="constant", value=-2.0)

    def test_realize_constant(self):
        s = _scenario()
        g = scenario_grid(s)
        u0 = realize_initial(s, g)
        assert np.max(u0) == 1.0
        assert np.all(u0[~g.mask] == 0.0)

    def test_realize_bump_support_and_height(self):
        s = _scenario(initial=InitialData.bump((1.0, 1.0), 0.4, 2.0))
        g = scenario_grid(s)
        u0 = realize_initial(s, g)
        pts = g.points()
        far = np.linalg.norm(pts - (1.0, 1.0), axis=1).reshape(g.shape) > 0.4
        assert np.all(u0[far] == 0.0)
        assert np.max(u0) == pytest.approx(2.0, rel=0.1)

    def test_realize_zero_off_mask(self):
        # the bump reaches past the disc into the bounding box's corners
        s = _scenario(domain=DomainSpec.disc((1.0, 1.0), 1.0),
                      initial=InitialData.bump((1.0, 1.0), 1.5, 1.0))
        g = scenario_grid(s)
        u0 = realize_initial(s, g)
        assert not g.mask.all()
        assert np.all(u0[~g.mask] == 0.0)
        assert np.all(u0[g.mask] > 0.0)

    def test_realize_bump_centre_of_grid_dimension(self):
        # a 1-d centre would broadcast to the diagonal point (0.8, 0.8)
        with pytest.raises(ValueError, match="1-d in a 2-d grid"):
            _scenario(initial=InitialData.bump((0.8,), 0.2, 1.0))

    def test_bump_missing_every_node_refused(self):
        # a derived scenario is refused when built, not when it runs
        mid = registry()["trichotomy-mid"]
        with pytest.raises(ValueError, match="must not vanish identically"):
            dataclasses.replace(
                mid, initial=InitialData.bump((0.01, 0.01), 0.005, 1.0))


class TestScenarioValidation:
    def test_reversed_times(self):
        with pytest.raises(ValueError):
            _scenario(t0=2.0, t_end=1.0)

    def test_horizon_is_whole_number_of_steps(self):
        with pytest.raises(ValueError, match="whole number of steps"):
            _scenario(t_end=1.0011)                 # 500.55 steps of 2e-3
        assert _scenario(t0=0.1, t_end=0.3).t_end == 0.3    # 100 up to ulps

    @pytest.mark.parametrize("plan, error", [
        (OutputPlan(snapshot_times=(-1.0,)), "outside"),
        (OutputPlan(snapshot_times=(0.0, 99.0)), "outside"),
        (OutputPlan(sample_every=0), "sample_every")])
    def test_bad_output_plan(self, plan, error):
        with pytest.raises(ValueError, match=error):
            _scenario(outputs=plan)

    def test_scheme_incompatible_with_lam(self):
        with pytest.raises(ValueError):
            _scenario(params=EquationParams(lam=400.0),
                      scheme=SchemeConfig(dt=2e-3))

    def test_moving_set_must_stay_inside_domain(self):
        with pytest.raises(ValueError, match="leaves the domain"):
            _scenario(params=EquationParams(
                lam=5.0, moving_set=StaticSet(SetShape.ball((0.1, 0.1), 0.3))))
        # the same refusal for a scenario derived in Python, which predict()
        # would otherwise evaluate
        mid = registry()["trichotomy-mid"]
        moved = EquationParams(lam=mid.params.lam, moving_set=StaticSet(
            SetShape.ball((0.1, 0.1), 0.45)))
        with pytest.raises(ValueError, match="leaves the domain"):
            dataclasses.replace(mid, params=moved)

    def test_grid_refused_without_moving_set(self):
        # without a vanishing set nothing else reads the grid before run()
        mid = registry()["trichotomy-mid"]
        with pytest.raises(ValueError, match="at least 8 cells per axis"):
            dataclasses.replace(mid, resolution=4, params=EquationParams(
                lam=mid.params.lam, moving_set=None))

    def test_scenarios_on_one_lattice_share_a_grid(self):
        reg = registry()
        assert scenario_grid(reg["trichotomy-low"]) is \
            scenario_grid(reg["carried-growth"])


class TestClassify:
    def test_needs_enough_records(self):
        with pytest.raises(ValueError):
            classify(_traj([1.0] * 10))

    def test_decay(self):
        sups = list(np.geomspace(1.0, 1e-8, 60))
        v = classify(_traj(sups))
        assert v.kind == "decay"
        assert v.is_bounded_kind

    def test_plateau_bounded(self):
        sups = list(np.linspace(1.0, 3.0, 30)) + [3.0] * 40
        v = classify(_traj(sups))
        assert v.kind == "bounded"
        assert v.bound_estimate == pytest.approx(3.0)

    def test_cap_with_growing_tail_is_grow_up(self):
        sups = list(np.geomspace(1.0, 2e5, 80))
        v = classify(_traj(sups, cap=1e5, cap_hit=79.0))
        assert v.kind == "grow_up"
        assert v.cap_hit_time == 79.0

    def test_cap_without_net_growth_is_inconclusive(self):
        # plateau brushing the cap: exceedance without sustained net growth
        sups = [9e4] * 79 + [1.1e5]
        v = classify(_traj(sups, cap=1e5, cap_hit=79.0))
        assert v.kind == "inconclusive"

    def test_wandering_below_running_max_is_bounded(self):
        # multistable forced pattern: an early peak, then hops between lower
        # plateau levels — bounded via the running-maximum reading
        sups = ([1.0] * 10 + [500.0] * 10
                + ([300.0] * 10 + [450.0] * 10 + [350.0] * 10) * 3)
        v = classify(_traj(sups, cap=1e5))
        assert v.kind == "bounded"
        assert v.bound_estimate == pytest.approx(500.0)

    def test_steady_growth_without_cap_is_inconclusive(self):
        sups = list(np.geomspace(1.0, 1e3, 60))
        v = classify(_traj(sups, cap=1e5))
        assert v.kind == "inconclusive"


class TestRegistry:
    def test_labels_stable_and_unique(self):
        labels = list(registry())
        assert labels == list(REGISTRY_LABELS)
        assert len(set(labels)) == len(labels)
        assert len(labels) == 14

    def test_every_scenario_declares_expectation(self):
        for s in registry().values():
            assert s.expected_status in ("CONSISTENT", "UNDECIDED")

    def test_built_once_in_fresh_dicts(self):
        first = registry()
        first.pop("trichotomy-low")
        first["extra"] = None
        second = registry()
        assert list(second) == list(REGISTRY_LABELS)
        assert all(second[k] is first[k] for k in first if k != "extra")

    def test_scenarios_frozen_throughout(self):
        # shared objects are safe because nothing in them can change
        def frozen(v):
            if dataclasses.is_dataclass(v):
                return v.__dataclass_params__.frozen and all(
                    frozen(getattr(v, f.name))
                    for f in dataclasses.fields(v))
            if isinstance(v, tuple):
                return all(frozen(x) for x in v)
            return isinstance(v, (str, int, float, type(None)))

        assert all(frozen(s) for s in registry().values())

    def test_scenarios_are_well_formed(self):
        for s in registry().values():
            g = scenario_grid(s)
            u0 = realize_initial(s, g)
            assert np.any(u0 > 0)
            assert np.all(u0 >= 0)


class TestPredictAndCrossCheck:
    def test_static_ball_below_threshold_predicts_bounded(self):
        s = _scenario(params=EquationParams(
            lam=6.0, moving_set=StaticSet(SetShape.ball((1.0, 1.0), 0.3))),
            resolution=64, t_end=2.0)
        checks = predict(s)
        fired = [c for c in checks if c.hypotheses_hold]
        assert any(c.predicted == "bounded" for c in fired)
        assert not any(c.predicted == "grow_up" for c in fired)

    def test_static_ball_above_threshold_predicts_grow_up(self):
        s = _scenario(params=EquationParams(
            lam=80.0, moving_set=StaticSet(SetShape.ball((1.0, 1.0), 0.3))),
            scheme=SchemeConfig(dt=2e-3, growth_cap=1e4),
            resolution=64, t_end=2.0)
        checks = predict(s)
        fired = [c for c in checks if c.hypotheses_hold]
        assert any(c.predicted == "grow_up" for c in fired)
        assert not any(c.predicted == "bounded" for c in fired)

    def test_cross_check_consistency_from_synthetic_verdict(self):
        s = _scenario(params=EquationParams(
            lam=6.0, moving_set=StaticSet(SetShape.ball((1.0, 1.0), 0.3))),
            resolution=64, t_end=2.0)
        grid = scenario_grid(s)
        checks = predict(s, grid)
        bounded_traj = _traj([1.0] * 30 + [2.0] * 40)
        rep = cross_check(s, bounded_traj, grid, checks=checks)
        assert rep.predicted == "bounded"
        assert rep.status == "CONSISTENT"
        cap_traj = _traj(list(np.geomspace(1.0, 2e5, 80)), cap=1e5,
                         cap_hit=79.0)
        rep2 = cross_check(s, cap_traj, grid, checks=checks)
        assert rep2.status == "VIOLATION"

    def test_registry_predictions_pinned(self):
        """The bits of the prediction layer over the registry: the first 16
        hex digits of the sha256 of the UTF-8 bytes of
        "\\n".join(repr(predict(s)) for s in registry().values())
        are f4cfcab390254a20.  Any moved eigenvalue, ladder value, tau or
        verdict of any label moves the hash."""
        text = "\n".join(repr(predict(s)) for s in registry().values())
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == "f4cfcab390254a20"

    #: principal and second eigen solves of one predict() per label, 98 in
    #: all.  Each distinct envelope set takes one ladder of two rungs, and a
    #: point, rotating-slow's and rotating-fast's K_inf, takes none;
    #: rotating-fast's K_sup at its three tau0 is one ball, the full-span
    #: sector; alternating-nested's check reads both balls' values from its
    #: envelope ladders; jumping-disjoint's 4 are the two components of each
    #: neighbourhood of its union, which the lattice maps onto each other
    #: and which each take a solve
    SOLVES = {"trichotomy-low": 3, "trichotomy-mid": 3, "trichotomy-high": 5,
              "shrink-case1": 6, "shrink-case2": 6, "shrink-case3": 4,
              "rotating-slow": 6, "rotating-fast": 2, "jumping-disjoint": 4,
              "jumping-control": 5, "translating-slow": 21,
              "carried-growth": 24, "intermittent": 2,
              "alternating-nested": 7}

    def test_one_solve_per_distinct_eigenproblem(self, monkeypatch):
        calls = []
        solve = spectral._smallest_eigenpairs

        def counted(a, k, tol):
            calls.append(k)
            return solve(a, k, tol)

        monkeypatch.setattr(spectral, "_smallest_eigenpairs", counted)
        solves = {}
        for label, s in registry().items():
            predict(s)
            solves[label], calls[:] = len(calls), []
        assert solves == self.SOLVES
        assert sum(solves.values()) == 98

    def test_band_factor_for_each_principal_solve(self, monkeypatch):
        # every registry mask fits the band cap, so each of the 94 principal
        # solves factors a band and only the 4 second-eigenvalue solves
        # factor through SuperLU
        factors = []
        band, lu = spectral.cholesky_banded, spectral.spla.splu

        def counted(name, factor):
            def call(*args, **kwargs):
                factors.append(name)
                return factor(*args, **kwargs)
            return call

        monkeypatch.setattr(spectral, "cholesky_banded",
                            counted("band", band))
        monkeypatch.setattr(spectral.spla, "splu", counted("lu", lu))
        for s in registry().values():
            predict(s)
        assert (factors.count("band"), factors.count("lu")) == (94, 4)

    # rotating-slow's K_inf is a point, which takes no ladder; the
    # alternating check of alternating-nested reads its envelope ladders
    @pytest.mark.parametrize("label, ladders", [
        ("trichotomy-mid", 1), ("jumping-control", 1),
        ("rotating-slow", 3), ("shrink-case3", 2),
        ("alternating-nested", 2)])
    def test_one_ladder_per_distinct_envelope_set(self, label, ladders,
                                                   monkeypatch):
        s = registry()[label]
        grid = scenario_grid(s)
        calls, envelopes = [], []

        def counted(grid, shape, **kw):
            calls.append(shape)
            return lambda0_of_set(grid, shape, **kw)

        def recorded(envelope):
            def wrapper(*args):
                envelopes.append(envelope(*args))
                return envelopes[-1]
            return wrapper

        monkeypatch.setattr(scenarios, "lambda0_of_set", counted)
        for name in ("k_sup", "k_inf"):
            monkeypatch.setattr(scenarios, name,
                                recorded(getattr(scenarios, name)))
        checks = predict(s, grid)
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) == ladders
        # each tau0 row holds fresh ladders of that tau0's K_sup and K_inf
        fresh = [scenarios._lambda0(grid, k, {}) for k in envelopes]
        rows = [[v for key, v in c.details if key.startswith("tau0=")]
                for c in checks[:2]]
        assert rows == 2 * [list(zip(fresh[::2], fresh[1::2]))]
