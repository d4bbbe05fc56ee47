import math

import numpy as np
import pytest

from degenlog import geometry, scenarios
from degenlog.geometry import (D_RAMP, NU_MAX, DomainSpec, JumpingSets,
                               PathSchedule, RadiusBall, RadiusSchedule,
                               RotatingSector, SetShape, StaticSet,
                               TranslatingSet, _sample_step, _sample_times,
                               ball_inside, evaluate_n, k_inf, k_sup,
                               shape_gap, union_over_interval,
                               validate_inside_domain)
from degenlog.grid import build_grid


class TestDomainSpec:
    def test_rectangle_margin_and_contains(self):
        d = DomainSpec.rectangle((0.0, 0.0), (2.0, 1.0))
        assert d.interior_margin((0.5, 0.5))[0] == pytest.approx(0.5)
        assert d.contains((1.0, 0.5))[0]
        assert not d.contains((2.5, 0.5))[0]

    def test_disc_margin(self):
        d = DomainSpec.disc((0.0, 0.0), 2.0)
        assert d.interior_margin((1.0, 0.0))[0] == pytest.approx(1.0)
        assert not d.contains((2.1, 0.0))[0]

    def test_invalid_rectangle(self):
        with pytest.raises(ValueError):
            DomainSpec.rectangle((1.0, 0.0), (0.0, 1.0))

    def test_interval_is_1d(self):
        d = DomainSpec.rectangle((0.0,), (3.0,))
        assert d.dim == 1
        assert d.contains((1.5,))[0]


class TestSetShape:
    def test_ball_distance(self):
        b = SetShape.ball((0.0, 0.0), 1.0)
        assert b.distance((2.0, 0.0))[0] == pytest.approx(1.0)
        assert b.distance((0.5, 0.0))[0] == 0.0

    def test_point_distance(self):
        p = SetShape.point((1.0, 1.0))
        assert p.distance((1.0, 2.0))[0] == pytest.approx(1.0)

    def test_sector_distance_inside_wedge(self):
        s = SetShape.sector((0.0, 0.0), 1.0, 0.0, math.pi / 2)
        # along the bisector, beyond the arc
        assert s.distance((math.sqrt(2), math.sqrt(2)))[0] == \
            pytest.approx(1.0)
        assert s.distance((0.5, 0.5))[0] == 0.0

    def test_sector_distance_outside_wedge(self):
        s = SetShape.sector((0.0, 0.0), 1.0, 0.0, math.pi / 2)
        # below the x-axis the nearest face is the radial edge along x
        assert s.distance((0.5, -0.3))[0] == pytest.approx(0.3)

    def test_full_sector_is_ball(self):
        s = SetShape.sector((0.0, 0.0), 1.0, 0.0, 2.0 * math.pi)
        assert s.distance((3.0, 0.0))[0] == pytest.approx(2.0)

    # 166 rad is the widest of rotating-fast's K_sup spans
    @pytest.mark.parametrize("span", [2.0 * math.pi, 166.0],
                             ids=["2pi", "166"])
    def test_full_span_sector_equals_its_disc(self, span):
        c, theta0 = (1.0, 1.0), -0.7
        assert SetShape.sector(c, 0.5, theta0, theta0 + span) == \
            SetShape.ball(c, 0.5)

    def test_sector_short_of_a_full_turn_stays_a_sector(self):
        s = SetShape.sector((1.0, 1.0), 0.5, 0.0, 2.0 * math.pi - 1e-9)
        assert s.kind == "sector"

    @pytest.mark.parametrize("center", [(1.0,), (1.0, 1.0, 1.0)])
    def test_sector_centre_must_be_2d(self, center):
        with pytest.raises(ValueError, match="a sector is 2-d"):
            SetShape.sector(center, 0.5, 0.0, 1.0)

    def test_union_distance_is_min(self):
        u = SetShape.union([SetShape.point((0.0, 0.0)),
                            SetShape.point((4.0, 0.0))])
        assert u.distance((3.0, 0.0))[0] == pytest.approx(1.0)

    def test_union_drops_empty_parts(self):
        u = SetShape.union([SetShape.empty(), SetShape.ball((0, 0), 1.0)])
        assert u.kind == "ball"
        assert SetShape.union([SetShape.empty()]).is_empty

    def test_empty_distance_raises(self):
        with pytest.raises(ValueError):
            SetShape.empty().distance((0.0, 0.0))


class TestSchedules:
    def test_radius_laws(self):
        assert RadiusSchedule("harmonic_shrink", 2.0).radius(1.0) == \
            pytest.approx(1.0)
        assert RadiusSchedule("approach", 2.0).radius(1.0) == pytest.approx(1.0)
        osc = RadiusSchedule("oscillating", 1.0, omega=math.pi / 2)
        assert osc.radius(1.0) == pytest.approx(2.0)
        # a ball of fixed radius is a StaticSet, not a schedule
        for kind in ("constant", "foo"):
            with pytest.raises(ValueError, match="unknown radius schedule"):
                RadiusSchedule(kind, 2.0)

    def test_oscillating_radius_range(self):
        # |sin(pi t / 2)|: zeros at even t, peaks at odd t
        osc = RadiusSchedule("oscillating", 1.0, omega=math.pi / 2)
        edge = 1.0 + math.sqrt(0.5)
        assert osc.radius_range(0.5, 1.5) == pytest.approx((edge, 2.0))
        assert osc.radius_range(1.5, 2.5) == pytest.approx((1.0, edge))
        assert osc.radius_range(0.5, 2.5) == (1.0, 2.0)
        assert osc.radius_range(1.2, 1.8) == (osc.radius(1.8),
                                              osc.radius(1.2))

    def test_path_positions_and_speed(self):
        line = PathSchedule(kind="line", point=(0.0, 0.0), velocity=(1.0, 0.0))
        assert line.position(2.0) == pytest.approx((2.0, 0.0))
        assert line.max_speed() == 1.0
        circ = PathSchedule(kind="circle", center=(0.0, 0.0), radius=2.0,
                            omega=0.5)
        assert circ.position(0.0) == pytest.approx((2.0, 0.0))
        assert circ.max_speed() == 1.0

    def test_line_path_dimensions_must_agree(self):
        # a 1-d velocity would broadcast and move a 2-d point diagonally
        with pytest.raises(ValueError, match="dimensions differ"):
            PathSchedule(kind="line", point=(0.8, 1.0), velocity=(0.02,))

    def test_unknown_path_kind(self):
        with pytest.raises(ValueError, match="unknown path schedule 'spiral'"):
            PathSchedule(kind="spiral")

    @pytest.mark.parametrize("center", [(1.0,), (1.0, 1.0, 1.0)])
    def test_circle_path_centre_must_be_2d(self, center):
        # a 1-d centre would broadcast into the 2-d point (1.2, 1.0)
        with pytest.raises(ValueError, match="a circle path is 2-d"):
            PathSchedule(kind="circle", center=center, radius=0.2, omega=1.0)


class TestMovingSets:
    def test_static(self):
        s = StaticSet(SetShape.ball((0, 0), 1.0))
        assert s.snapshot(0.0) == s.snapshot(100.0)

    def test_radius_ball_degenerates_to_point(self):
        s = RadiusBall((0.0, 0.0), RadiusSchedule("harmonic_shrink", 1.0))
        assert s.snapshot(0.0).kind == "ball"
        approach = RadiusBall((0.0, 0.0), RadiusSchedule("approach", 1.0))
        point = approach.snapshot(0.0)
        assert point.kind == "ball" and point.radius == 0.0

    def test_rotating_sector_spins(self):
        s = RotatingSector((0.0, 0.0), 1.0, 0.0, 1.0, omega=0.5)
        snap = s.snapshot(2.0)
        assert snap.theta0 == pytest.approx(-1.0)
        assert snap.theta1 == pytest.approx(0.0)

    def test_jumping_phases(self):
        j = JumpingSets(SetShape.ball((0, 0), 1.0), SetShape.empty(),
                        period=1.0, t1=0.4)
        assert j.snapshot(0.2).kind == "ball"
        assert j.snapshot(0.4).kind == "ball"      # right endpoint included
        assert j.snapshot(0.5).is_empty
        assert j.snapshot(1.0).is_empty            # period boundary

    def test_jumping_invalid_t1(self):
        with pytest.raises(ValueError):
            JumpingSets(SetShape.empty(), SetShape.empty(), period=1.0, t1=1.5)

    def test_jumping_phase_is_a_ball_or_empty(self):
        sector = SetShape.sector((0.5, 0.5), 0.3, 0.0, 1.0)
        union = SetShape.union([SetShape.ball((0.5, 0.5), 0.1),
                                SetShape.point((1.5, 1.5))])
        for k0, k1, name in ((sector, SetShape.empty(), "k0 is a sector"),
                             (SetShape.point((1.0, 1.0)), union,
                              "k1 is a union")):
            with pytest.raises(ValueError, match=f"jumping phase {name}"):
                JumpingSets(k0, k1, period=1.0, t1=0.5)

    def test_jumping_phases_share_a_dimension(self):
        # a 1-d centre would broadcast against the 2-d one in shape_gap
        with pytest.raises(ValueError, match="differ in dimension"):
            JumpingSets(SetShape.ball((0.5,), 0.1),
                        SetShape.ball((1.0, 1.0), 0.1), period=1.0, t1=0.5)
        JumpingSets(SetShape.ball((0.5,), 0.1), SetShape.empty(),
                    period=1.0, t1=0.5)

    def test_translating_set(self):
        s = TranslatingSet(0.5, PathSchedule(kind="line", point=(1.0, 0.0),
                                             velocity=(0.0, 1.0)))
        snap = s.snapshot(2.0)
        assert snap == SetShape.ball((1.0, 2.0), 0.5)


class TestNuProfile:
    """n(t, x) = NU_MAX (1 - exp(-d / D_RAMP)) of the distance d to K(t)."""

    def test_saturating_vanishes_only_on_set(self):
        spec = StaticSet(SetShape.ball((0.0, 0.0), 0.5))
        xs = (0.0, 0.2, 0.5, 0.5001, 0.51, 0.6, 1.5)
        n = evaluate_n(spec, 0.0, [(x, 0.0) for x in xs])
        assert n[:3].tolist() == [0.0, 0.0, 0.0]    # on K(t), edge included
        assert np.all(np.diff(n[2:]) > 0)           # strictly increasing
        assert n[-1] < NU_MAX

    def test_evaluate_n(self):
        spec = StaticSet(SetShape.ball((0.0, 0.0), 0.5))
        n = evaluate_n(spec, 0.0, [(0.2, 0.0), (1.0, 0.0)])
        assert n.shape == (2,) and n[0] == 0.0
        assert n[1] == pytest.approx(NU_MAX * (1.0 - math.exp(-0.5 / D_RAMP)),
                                     rel=1e-15)
        assert evaluate_n(spec, 0.0, (0.2, 0.0)).tolist() == [0.0]
        empty = JumpingSets(SetShape.ball((0, 0), 0.5), SetShape.empty(),
                            period=1.0, t1=0.5)
        assert evaluate_n(empty, 0.75, [(0.0, 0.0), (0.3, 0.4)]).tolist() \
            == [NU_MAX, NU_MAX]


class TestEnvelopes:
    def test_rotating_fast_sup_is_the_full_span_disc_bit_for_bit(self):
        """rotating-fast's K_sup at each default tau0 sweeps more than a
        full turn: it is the disc, at the same distances as the full-span
        sector's formula max(|q| - r, 0) on the scenario's lattice."""
        s = scenarios.registry()["rotating-fast"]
        spec = s.params.moving_set
        p = scenarios.scenario_grid(s).points()
        q = p - np.array(spec.center)
        full_span = np.maximum(np.linalg.norm(q, axis=1) - spec.r0, 0.0)
        for tau0 in (0.5, 2.0, 4.5):
            up = k_sup(spec, tau0, s.t_end)
            assert up == SetShape.ball(spec.center, spec.r0)
            assert np.array_equal(up.distance(p), full_span)

    @pytest.mark.parametrize("tau0", [0.1, 0.7])
    def test_k_sup_nested_jumping_pair_is_the_outer_ball(self, tau0):
        # phase k0 holds on (0, 0.5], k1 on (0.5, 1]
        outer = SetShape.ball((1.0, 1.0), 0.65)
        inner = SetShape.ball((1.1, 0.9), 0.35)
        for k0, k1 in ((outer, inner), (inner, outer)):
            spec = JumpingSets(k0, k1, period=1.0, t1=0.5)
            assert k_sup(spec, tau0, tau0 + 3.0) == outer

    def test_k_sup_k_inf_static(self):
        s = StaticSet(SetShape.ball((0, 0), 1.0))
        assert k_sup(s, 1.0, 2.0) == s.base
        assert k_inf(s, 1.0, 2.0) == s.base

    def test_k_inf_radius_ball_uses_min_radius(self):
        s = RadiusBall((0.0, 0.0), RadiusSchedule("harmonic_shrink", 1.0))
        low = k_inf(s, 0.0, 1.0)
        assert low.radius == pytest.approx(0.5)
        assert k_sup(s, 0.0, 1.0) == SetShape.ball((0.0, 0.0), 1.0)

    def test_k_inf_rotating_sector_shrinks_to_point(self):
        s = RotatingSector((0.0, 0.0), 1.0, 0.0, 0.5, omega=1.0)
        point = k_inf(s, 0.0, 10.0)
        assert point.kind == "ball" and point.radius == 0.0
        narrow = k_inf(s, 0.0, 0.2)
        assert narrow.kind == "sector"
        assert narrow.theta1 - narrow.theta0 == pytest.approx(0.3)

    def test_k_inf_jumping(self):
        a = SetShape.ball((0.0, 0.0), 1.0)
        b = SetShape.ball((5.0, 0.0), 1.0)
        disjoint = JumpingSets(a, b, period=1.0, t1=0.5)
        assert k_inf(disjoint, 0.0, 3.0).is_empty
        withempty = JumpingSets(a, SetShape.empty(), period=1.0, t1=0.5)
        assert k_inf(withempty, 0.0, 3.0).is_empty
        inner = SetShape.ball((0.2, 0.1), 0.5)
        for k0, k1 in ((a, inner), (inner, a)):
            nested = JumpingSets(k0, k1, period=1.0, t1=0.5)
            assert k_inf(nested, 0.0, 3.0) == inner
        same = JumpingSets(a, a, period=1.0, t1=0.5)
        assert k_inf(same, 0.0, 3.0) == a

    @pytest.mark.parametrize("a, b", [
        (SetShape.ball((0.6, 0.9), 0.5), SetShape.ball((1.2, 1.3), 0.4)),
        (SetShape.ball((1.0, 1.0), 0.7), SetShape.ball((0.3, 1.0), 0.05)),
        (SetShape.ball((0.5,), 0.3), SetShape.ball((0.9,), 0.2)),
    ], ids=["lens", "thin-lens", "one-dimensional"])
    def test_k_inf_overlapping_jumping_pair(self, a, b):
        """The largest ball in both phases: radius (r0 + r1 - d) / 2, inside
        both balls at seeded random points."""
        d = float(np.linalg.norm(np.subtract(a.center, b.center)))
        assert abs(a.radius - b.radius) < d < a.radius + b.radius
        low = k_inf(JumpingSets(a, b, period=1.0, t1=0.5), 0.0, 3.0)
        assert low.kind == "ball"
        assert low.radius == pytest.approx(0.5 * (a.radius + b.radius - d),
                                           rel=1e-12)
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(2000, a.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = np.array(low.center) + low.radius * (
            rng.uniform(0.0, 1.0, (2000, 1)) ** (1.0 / a.dim) * dirs)
        for phase in (a, b):
            assert np.all(phase.distance(pts) <= 1e-12)
        # the ball touches each phase's boundary on the line of centres
        assert ball_inside(a, low) and ball_inside(b, low)
        assert not ball_inside(a, SetShape.ball(low.center, low.radius + 1e-9))

    def test_k_inf_translating_ball(self):
        s = TranslatingSet(1.0, PathSchedule(kind="line", point=(0.0, 0.0),
                                             velocity=(1.0, 0.0)))
        low = k_inf(s, 0.0, 1.0)
        assert low.kind == "ball"
        # exact intersection radius is 0.5; the sampled surrogate shrinks it
        # by half a sample step (0.01 on a unit interval) at unit speed
        assert low.radius == pytest.approx(0.5 - 0.5 * 0.01, abs=1e-6)
        assert low.radius <= 0.5
        fast = TranslatingSet(1.0, PathSchedule(kind="line", point=(0.0, 0.0),
                                                velocity=(10.0, 0.0)))
        assert k_inf(fast, 0.0, 1.0).is_empty

    def test_envelope_inclusions_sampled(self):
        """Every snapshot lies in the upper envelope and the lower envelope
        in every snapshot, pointwise at random times, for every registry
        moving set on random intervals.  A sampled union (translating sets)
        may miss the motion between samples by half a step at top speed."""
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 2.0, size=(400, 2))
        reg = scenarios.registry()
        jump = reg["jumping-disjoint"].params.moving_set   # period 0.05
        osc = reg["shrink-case3"].params.moving_set        # omega 10
        # |sin(10 t)| peaks at pi/20 ~ 0.157 and vanishes at pi/10 ~ 0.314
        short = [(jump, 0.03, 0.045, jump.k1),              # one phase
                 (jump, 0.03, 0.06, SetShape.union([jump.k1, jump.k0])),
                 (osc, 0.2, 0.25, SetShape.ball(osc.center,
                                                osc.schedule.radius(0.2))),
                 (osc, 0.1, 0.2, SetShape.ball(osc.center, 0.6))]
        cases = [(spec, ta, tb) for spec, ta, tb, _ in short]
        for spec, ta, tb, up in short:
            assert k_sup(spec, ta, tb) == up
        for s in reg.values():
            for _ in range(4):
                tau0 = rng.uniform(0.0, 10.0)
                cases.append((s.params.moving_set, tau0,
                              tau0 + 10.0 ** rng.uniform(-2.0, 0.5)))
        for spec, ta, tb in cases:
            up, low = k_sup(spec, ta, tb), k_inf(spec, ta, tb)
            if isinstance(spec, TranslatingSet):
                slack = 0.5 * _sample_step(ta, tb) * spec.curve.max_speed()
            else:
                slack = 0.0
                if not isinstance(spec, JumpingSets):
                    assert up.kind != "union"
            for t in np.concatenate(([ta, tb], rng.uniform(ta, tb, 8))):
                snap = spec.snapshot(t)
                if snap.is_empty:
                    continue
                in_snap = snap.distance(pts) == 0.0
                assert np.all(up.distance(pts[in_snap]) <= slack)
                if not low.is_empty:
                    in_low = low.distance(pts) <= 1e-9
                    assert np.all(in_snap[in_low])


def _envelope_shapes(label, monkeypatch):
    """The K_sup / K_inf shapes _check_envelopes builds for a registry
    scenario, with its grid."""
    s = scenarios.registry()[label]
    shapes = []

    def record(grid, shape, ladders):
        shapes.append(shape)
        return 1.0

    monkeypatch.setattr(scenarios, "_lambda0", record)
    grid = scenarios.scenario_grid(s)
    scenarios._check_envelopes(s, grid, {})
    return shapes, grid


def _per_part_distance(shape, p):
    """The reference, one ball at a time: min over the parts of
    max(norm(p - c) - r, 0)."""
    parts = shape.parts if shape.kind == "union" else (shape,)
    return np.min([np.maximum(np.linalg.norm(p - np.array(b.center), axis=1)
                              - b.radius, 0.0) for b in parts], axis=0)


class TestCompoundDistances:
    """Unions of 32 or more balls take the tree query, other unions fold
    their parts one at a time; both must give exactly the stacked min over
    independently computed parts."""

    @pytest.mark.parametrize("label", ["translating-slow", "carried-growth"])
    def test_envelope_union_matches_stacked_min(self, label, monkeypatch):
        shapes, grid = _envelope_shapes(label, monkeypatch)
        unions = [u for u in shapes if u.kind == "union"]
        assert max(len(u.parts) for u in unions) == 401
        p = grid.points()
        for u in unions:
            assert np.array_equal(u.distance(p), _per_part_distance(u, p))

    @pytest.mark.parametrize("label", ["translating-slow", "carried-growth"])
    def test_union_over_interval_keeps_time_order(self, label):
        spec = scenarios.registry()[label].params.moving_set
        ta, tb = 0.5, 10.0
        shapes = [spec.snapshot(t) for t in _sample_times(ta, tb)]
        assert len(shapes) == 401
        assert union_over_interval(spec, ta, tb) == SetShape.union(shapes)


def _random_balls(n, dim, radii, seed):
    rng = np.random.default_rng(seed)
    return SetShape.union([
        SetShape.ball(tuple(rng.uniform(0.0, 2.0, dim)), radii[i % len(radii)])
        for i in range(n)])


class TestBallUnionDistance:
    """The ball formula, the fold over balls and the tree query over a union
    of balls are bit-identical to the per-ball loop (the 401-ball envelopes
    are checked above)."""

    # 31 balls take the fold, 32 and more the tree query
    @pytest.mark.parametrize("n, dim, radii", [
        (31, 2, (0.1,)),
        (32, 2, (0.1,)),
        (40, 2, (0.35, 0.0)),
        (48, 1, (0.05, 0.2)),
    ], ids=["31-balls", "32-balls", "two-radii", "one-dimensional"])
    def test_either_side_of_the_tree_threshold(self, n, dim, radii):
        assert (n >= geometry._TREE_BALLS) == (n > 31)
        u = _random_balls(n, dim, radii, seed=n)
        assert len(u.parts) == n
        p = np.random.default_rng(3).uniform(-0.5, 2.5, (4000, dim))
        assert np.array_equal(u.distance(p), _per_part_distance(u, p))

    # jumping-disjoint's balls are apart and of one radius, and its K_sup
    # is their union; alternating-nested's are nested, of radii 0.65 and
    # 0.35, so its K_sup is the outer ball and their union is built here
    @pytest.mark.parametrize("label", ["jumping-disjoint",
                                       "alternating-nested"])
    def test_two_ball_unions(self, label):
        s = scenarios.registry()[label]
        spec = s.params.moving_set
        u = (k_sup(spec, s.t0, s.t_end) if label == "jumping-disjoint"
             else SetShape.union([spec.k0, spec.k1]))
        assert u.kind == "union" and len(u.parts) == 2
        p = scenarios.scenario_grid(s).points()
        assert np.array_equal(u.distance(p), _per_part_distance(u, p))

    def test_one_dimensional_union(self):
        u = SetShape.union([SetShape.ball((0.4,), 0.1),
                            SetShape.ball((1.3,), 0.25)])
        grid = build_grid(DomainSpec.rectangle((0.0,), (2.0,)), 64)
        p = grid.points()
        assert np.array_equal(u.distance(p), _per_part_distance(u, p))

    def test_union_with_a_point(self):
        u = SetShape.union([SetShape.ball((0.5, 0.5), 0.3),
                            SetShape.point((1.5, 1.2))])
        p = np.random.default_rng(1).uniform(0.0, 2.0, (3000, 2))
        p[0] = (1.5, 1.2)
        d = u.distance(p)
        assert d[0] == 0.0
        assert np.array_equal(d, _per_part_distance(u, p))

    # a union of three balls on 70,000 points folds the ball formula; a
    # single ball or a point takes the formula alone, on a 128-cell grid
    @pytest.mark.parametrize("shape", [
        SetShape.union([SetShape.ball((0.3, 0.2), 0.1),
                        SetShape.ball((1.0, 1.7), 0.4),
                        SetShape.ball((1.6, 0.9), 0.0)]),
        SetShape.ball((0.9, 1.1), 0.45),
        SetShape.ball((0.7,), 0.2),
        SetShape.point((1.3, 0.6)),
    ], ids=["three-balls-70000-points", "ball", "one-dimensional-ball",
            "point"])
    def test_matches_the_per_ball_loop(self, shape):
        if shape.kind == "union":
            p = np.random.default_rng(2).uniform(0.0, 2.0, (70_000, 2))
        else:
            box = DomainSpec.rectangle((0.0,) * shape.dim, (2.0,) * shape.dim)
            p = build_grid(box, 128).points()
        assert np.array_equal(shape.distance(p), _per_part_distance(shape, p))


class TestGapsAndValidation:
    def test_shape_gap_balls(self):
        a = SetShape.ball((0.0, 0.0), 1.0)
        b = SetShape.ball((3.0, 0.0), 1.0)
        assert shape_gap(a, b) == pytest.approx(1.0)
        assert shape_gap(a, SetShape.ball((1.0, 0.0), 1.0)) == 0.0

    def test_shape_gap_balls_only(self):
        s = SetShape.sector((0.0, 0.0), 1.0, 0.0, math.pi / 2)
        b = SetShape.ball((0.0, -2.0), 0.5)
        for x, y in ((s, b), (b, s), (b, SetShape.empty())):
            with pytest.raises(ValueError, match="balls only"):
                shape_gap(x, y)

    def test_validate_inside_domain(self):
        d = DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0))
        ok = StaticSet(SetShape.ball((1.0, 1.0), 0.5))
        validate_inside_domain(ok, d, 0.0, 1.0)
        bad = StaticSet(SetShape.ball((1.0, 1.0), 1.5))
        with pytest.raises(ValueError):
            validate_inside_domain(bad, d, 0.0, 1.0)
        # The radius peaks at 1.2 between evenly spaced sample times, and the
        # sector turns to face the near wall between them: K_sup sees both.
        swelling = RadiusBall((1.0, 1.0), RadiusSchedule(
            "oscillating", 0.6, omega=math.pi / 0.375))
        spinning = RotatingSector((0.45, 1.0), 0.5, 0.0, math.pi / 3.0,
                                  omega=2.0 * math.pi / 0.3125)
        # K_sup spans 63 turns: 64 angles spread evenly over that range
        # would all point away from the near wall
        whirling = RotatingSector((0.45, 1.0), 0.5, 0.0, math.pi / 3.0,
                                  omega=(126.0 - 1.0 / 3.0) * math.pi / 10.0)
        for spec, t_end in ((swelling, 12.0), (spinning, 10.0),
                            (whirling, 10.0)):
            with pytest.raises(ValueError, match="leaves the domain"):
                validate_inside_domain(spec, d, 0.0, t_end)
        shrink = RadiusBall((1.0, 1.0), RadiusSchedule("harmonic_shrink", 0.5))
        with pytest.raises(ValueError, match="needs t > -1"):
            validate_inside_domain(shrink, d, -1.0, 1.0)

    @pytest.mark.parametrize("domain, center, radius, theta0, theta1", [
        # the arc reaches x = 1.5 + r at theta = 0, between its ends
        (DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0)), (1.5, 1.0), 0.5,
         -0.5, 0.501),
        # the arc reaches 0.3 + r from the disc's centre at theta = 0
        (DomainSpec.disc((1.0, 1.0), 1.0), (1.3, 1.0), 0.7, -0.5, 0.5),
        # the arc reaches y = 1.2 + r at theta = pi / 2 + 2 pi
        (DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0)), (1.0, 1.2), 0.8,
         7.0, 9.0),
    ], ids=["rectangle", "disc", "next-turn"])
    def test_sector_grazing_the_boundary(self, domain, center, radius,
                                         theta0, theta1):
        """The test of a sector is exact: a sector that reaches 1e-5 past
        the boundary between the ends of its arc is refused, while the same
        sector 1e-5 inside is accepted."""
        def sector(r):
            return StaticSet(SetShape.sector(center, r, theta0, theta1))
        validate_inside_domain(sector(radius - 1e-5), domain, 0.0, 1.0)
        with pytest.raises(ValueError, match="leaves the domain"):
            validate_inside_domain(sector(radius + 1e-5), domain, 0.0, 1.0)

    @pytest.mark.parametrize("omega", [1.0, -1.0])
    @pytest.mark.parametrize("domain", [
        DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0)),
        DomainSpec.disc((1.0, 1.0), 1.0)], ids=["rectangle", "disc"])
    def test_circle_path_grazing_the_boundary(self, domain, omega):
        """The test of a circle path is exact: its centre reaches (1.7, 1),
        0.3 from the boundary, at angle 0, which no time in 0.025 k hits.
        A radius 1e-6 past that margin is refused, 1e-6 short accepted."""
        def carried(r):
            return TranslatingSet(r, PathSchedule(
                kind="circle", center=(1.2, 1.0), radius=0.5, omega=omega,
                phase=-0.0125))
        validate_inside_domain(carried(0.3 - 1e-6), domain, 0.0, 10.0)
        with pytest.raises(ValueError, match="leaves the domain"):
            validate_inside_domain(carried(0.3 + 1e-6), domain, 0.0, 10.0)

    def test_translating_check_reads_no_sampled_set(self, monkeypatch):
        def sampled(*args):
            raise AssertionError("the check read a sampled set")
        monkeypatch.setattr(geometry, "k_sup", sampled)
        monkeypatch.setattr(geometry, "union_over_interval", sampled)
        d = DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0))
        # the line's ball leaves at its end only, (1.5, 1) at t = 5
        line = PathSchedule(kind="line", point=(1.0, 1.0), velocity=(0.1, 0.0))
        circle = PathSchedule(kind="circle", center=(1.0, 1.0), radius=0.5,
                              omega=-2.0, phase=1.0)
        for curve in (line, circle):
            validate_inside_domain(TranslatingSet(0.4, curve), d, 0.0, 5.0)
            with pytest.raises(ValueError, match="leaves the domain"):
                validate_inside_domain(TranslatingSet(0.6, curve), d, 0.0,
                                       5.0)

    def test_nested_jumping_pair_tested_phase_by_phase(self):
        """The inner ball B((1 + 9e-13, 1), 1 - 9e-13) reaches the wall
        x = 2.  The outer ball, the pair's K_sup, holds it to 1e-12 and lies
        inside.  The pair is refused, and accepted with an inner radius
        1.1e-12 smaller."""
        d = DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0))
        outer = SetShape.ball((1.0, 1.0), 1.0 - 1e-13)
        for radius, fits in ((1.0 - 9e-13, False), (1.0 - 2e-12, True)):
            inner = SetShape.ball((1.0 + 9e-13, 1.0), radius)
            spec = JumpingSets(outer, inner, period=1.0, t1=0.5)
            assert k_sup(spec, 0.0, 3.0) == outer
            if fits:
                validate_inside_domain(spec, d, 0.0, 3.0)
            else:
                with pytest.raises(ValueError, match="leaves the domain"):
                    validate_inside_domain(spec, d, 0.0, 3.0)

    def test_sector_in_a_1d_domain(self):
        spec = RotatingSector((1.0,), 0.3, 0.0, 1.0, omega=1.0)
        with pytest.raises(ValueError, match="2-d in a 1-d domain"):
            validate_inside_domain(spec, DomainSpec.rectangle((0.0,), (2.0,)),
                                   0.0, 1.0)
