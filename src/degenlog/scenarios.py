"""Experiment registry, hypothesis-driven predictions and the classifier.

A Scenario bundles everything one simulation needs, and one that builds can
predict and run: nothing downstream checks it again.  predict() evaluates the
boundedness / grow-up criteria mechanically on the declarative moving-set
description (never on simulated fields), each returning a check with its
measured spectral numbers.  classify() reads a verdict off a recorded
trajectory at desk scale: grow-up means the cap was exceeded with a monotone
tail, bounded means the trailing block maxima are level well under the cap.
cross_check() confronts the two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import geometry as geo
from .geometry import (DomainSpec, JumpingSets, RadiusBall, RotatingSector,
                       SetShape, StaticSet, TranslatingSet, ball_inside, k_inf,
                       k_sup, shape_gap)
from .evolve import (RHO, EquationParams, SchemeConfig, Trajectory,
                     check_outputs, run as evolve_run)
from .grid import Grid, build_grid, mask_from_shape, mask_within_distance
from .oracles import TauInputs, tau_unbounded, w_inf
from .spectral import (lambda0_deltas, lambda0_of_set, principal_eigenpair,
                       second_eigenvalue)

__all__ = [
    "InitialData",
    "OutputPlan",
    "PredictPlan",
    "Scenario",
    "Verdict",
    "TheoremCheck",
    "scenario_grid",
    "realize_initial",
    "run_scenario",
    "classify",
    "predict",
    "cross_check",
    "CrossCheckReport",
    "registry",
    "REGISTRY_LABELS",
]


# ---------------------------------------------------------------------------
# Scenario data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialData:
    """A positive constant, or a bump of positive height and radius."""

    kind: str  # "constant" | "bump"
    value: float = 1.0
    center: tuple = ()
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "constant":
            if not self.value > 0:
                raise ValueError("constant initial data must be positive")
        elif self.kind == "bump":
            if not (self.radius > 0 and self.value > 0):
                raise ValueError("bump needs positive radius and height")
        else:
            raise ValueError(f"unknown initial data kind {self.kind!r}")

    @staticmethod
    def bump(center, radius: float, height: float) -> "InitialData":
        return InitialData(kind="bump", value=height,
                           center=tuple(float(v) for v in center),
                           radius=float(radius))


@dataclass(frozen=True)
class OutputPlan:
    sample_every: int = 10
    snapshot_times: tuple = ()


@dataclass(frozen=True)
class PredictPlan:
    """Inputs of predict() that the moving-set description leaves open.

    ``tau0_list`` holds the start times tau0 of the envelope criterion,
    offsets from t0 (None: derived from the horizon); ``gamma`` is the
    dominance factor of the waiting time tau; ``carry_window`` is the carry
    time of a translating sanctuary (None: that check does not apply).
    """

    tau0_list: tuple | None = None
    gamma: float = 1.5
    carry_window: float | None = None

    def check(self, horizon: float) -> None:
        if self.tau0_list is not None and not (
                self.tau0_list and all(0 < t < horizon
                                       for t in self.tau0_list)):
            raise ValueError(f"tau0_list must be nonempty with every tau0 in "
                             f"(0, {horizon:g}), got {self.tau0_list}")
        if not self.gamma > 1:
            raise ValueError(f"gamma must exceed 1, got {self.gamma!r}")
        if self.carry_window is not None and \
                not 0 < self.carry_window < math.inf:
            raise ValueError(f"carry_window must be finite and positive, "
                             f"got {self.carry_window!r}")


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description, refused when built if K(t) leaves
    the domain in [t0, t_end], or if its grid or initial data cannot be
    made; every scenario on one lattice shares one grid."""

    label: str
    domain: DomainSpec
    resolution: int
    params: EquationParams
    scheme: SchemeConfig
    t0: float
    t_end: float
    initial: InitialData
    outputs: OutputPlan = OutputPlan()
    predict_plan: PredictPlan = PredictPlan()
    expected_status: str = "CONSISTENT"    # suite expectation, not a predicate

    def __post_init__(self):
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        self.scheme.validate(self.params.lam)
        steps = (self.t_end - self.t0) / self.scheme.dt
        if not (math.isfinite(steps)
                and math.isclose(steps, round(steps), rel_tol=1e-9)):
            raise ValueError(f"t_end - t0 = {self.t_end - self.t0:g} is not "
                             f"a whole number of steps dt = {self.scheme.dt:g}")
        check_outputs(self.t0, self.t_end, self.outputs.sample_every,
                      self.outputs.snapshot_times)
        self.predict_plan.check(self.t_end - self.t0)
        if self.params.moving_set is not None:
            geo.validate_inside_domain(self.params.moving_set, self.domain,
                                       self.t0, self.t_end)
        realize_initial(self, scenario_grid(self))


def scenario_grid(s: Scenario) -> Grid:
    return build_grid(s.domain, s.resolution)


def realize_initial(s: Scenario, grid: Grid) -> np.ndarray:
    """The initial data as a lattice array, zero off the grid's mask;
    refused when it vanishes on every node of the mask."""
    init = s.initial
    c = np.array(init.center)
    # a constant reads no centre, but one it is given must fit the grid
    if c.size != grid.dim and (c.size or init.kind == "bump"):
        raise ValueError(f"initial data centre: {c.size}-d in a "
                         f"{grid.dim}-d grid")
    if init.kind == "constant":
        return np.where(grid.mask, init.value, 0.0)
    q = 1.0 - (np.linalg.norm(grid.points() - c, axis=1) / init.radius) ** 2
    u0 = np.where(grid.mask, (init.value * np.maximum(q, 0.0) ** 2)
                  .reshape(grid.shape), 0.0)
    if not np.any(u0 > 0):
        raise ValueError("initial data must not vanish identically")
    return u0


def run_scenario(s: Scenario, grid: Grid | None = None) -> Trajectory:
    grid = grid if grid is not None else scenario_grid(s)
    return evolve_run(grid, s.params, s.scheme, realize_initial(s, grid),
                      s.t0, s.t_end, sample_every=s.outputs.sample_every,
                      snapshot_times=s.outputs.snapshot_times)


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


MIN_RECORDS = 50
TAIL_FRACTION = 0.2      # net-increase window for grow-up
TAIL_GROWTH = 2.0        # required cap / window-start ratio
WINDOW_FRACTION = 0.4    # trailing window for boundedness
N_BLOCKS = 4
OSCILLATION_TOL = 0.01   # of the level, on block maxima
LEVEL_CAP_RATIO = 0.1
DECAY_RATIO = 1e-6


@dataclass(frozen=True)
class Verdict:
    kind: str                 # "decay" | "bounded" | "grow_up" | "inconclusive"
    bound_estimate: float | None = None
    cap_hit_time: float | None = None
    evidence: str = ""

    @property
    def is_bounded_kind(self) -> bool:
        return self.kind in ("decay", "bounded")


def classify(tr: Trajectory) -> Verdict:
    """Desk-scale verdict from recorded sup-norms.

    Grow-up is asserted only as cap exceedance with a monotone-increasing
    tail; boundedness only as a level plateau of the trailing block maxima
    well below the cap.  Oscillation is measured on block maxima so that a
    periodically forced but saturated solution still reads as bounded.
    """
    sups = np.asarray(tr.sup_norms)
    if len(sups) < MIN_RECORDS:
        raise ValueError(f"need at least {MIN_RECORDS} records")
    if tr.cap_hit is not None:
        # the run aborts at the first cap exceedance, so the last record is
        # the running maximum; ask additionally for a clear net increase
        # across the trailing window to rule out a plateau brushing the cap
        n_tail = max(int(len(sups) * TAIL_FRACTION), 2)
        tail = sups[-n_tail:]
        if tail[-1] >= TAIL_GROWTH * tail[0]:
            return Verdict(kind="grow_up", cap_hit_time=tr.cap_hit,
                           evidence=f"cap {tr.growth_cap:g} exceeded at "
                                    f"t={tr.cap_hit:g} after a net "
                                    f"{tail[-1] / tail[0]:.3g}x increase over "
                                    f"the trailing {n_tail} records")
        return Verdict(kind="inconclusive",
                       evidence="cap exceeded without sustained net growth "
                                "over the trailing window")
    if sups[-1] < DECAY_RATIO * sups[0]:
        return Verdict(kind="decay", bound_estimate=float(sups[-1]),
                       evidence=f"final sup-norm {sups[-1]:.3e} below "
                                f"{DECAY_RATIO:g} of the initial one")
    n_win = max(int(len(sups) * WINDOW_FRACTION), N_BLOCKS)
    window = sups[-n_win:]
    blocks = np.array_split(window, N_BLOCKS)
    maxima = np.array([b.max() for b in blocks])
    level = float(maxima.max())
    osc = float(maxima.max() - maxima.min())
    if level == 0.0:
        return Verdict(kind="decay", bound_estimate=0.0,
                       evidence="identically zero tail")
    if osc < OSCILLATION_TOL * level and \
            level < LEVEL_CAP_RATIO * tr.growth_cap:
        return Verdict(kind="bounded", bound_estimate=level,
                       evidence=f"trailing block maxima level {level:.6g} "
                                f"with oscillation {osc:.2e}")
    # wandering-but-bounded orbits (multistable forced attractors) hop
    # between plateau levels without ever setting a new record: read
    # boundedness off the running maximum instead
    peak_idx = int(np.argmax(sups))
    peak = float(sups[peak_idx])
    if peak_idx < len(sups) - n_win and peak < LEVEL_CAP_RATIO * \
            tr.growth_cap:
        return Verdict(kind="bounded", bound_estimate=peak,
                       evidence=f"running maximum {peak:.6g} set at record "
                                f"{peak_idx} and never exceeded over the "
                                f"trailing {n_win} records")
    return Verdict(kind="inconclusive",
                   evidence=f"level {level:.6g}, oscillation {osc:.3e}: "
                            "neither plateau nor cap exceedance")


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremCheck:
    """One criterion evaluated mechanically on the declarative scenario."""

    name: str
    hypotheses_hold: bool
    predicted: str            # "bounded" | "grow_up" | "none"
    details: tuple            # ((key, value), ...)


def _lambda0(grid: Grid, shape: SetShape, ladders: dict) -> float:
    """Characteristic value of a set from the two tightest rungs of the
    default ladder, the only ones its verdict and extrapolation read, kept
    in ladders so each set takes one ladder.  The empty set and a point,
    which lambda0_of_set calls infinite whatever its ladder, take none."""
    if shape not in ladders:
        if shape.is_empty or shape.is_point:
            ladders[shape] = math.inf
        else:
            deltas = lambda0_deltas(grid)[-2:]
            ladders[shape] = lambda0_of_set(grid, shape, deltas=deltas).value
    return ladders[shape]


def _check_envelopes(s: Scenario, grid: Grid, ladders: dict) -> list:
    """Boundedness below the upper-envelope value, grow-up above the
    lower-envelope value (the two sides of the envelope criterion)."""
    spec = s.params.moving_set
    lam = s.params.lam
    horizon = s.t_end - s.t0
    tau0_list = s.predict_plan.tau0_list or (
        min(0.5, horizon / 4), min(2.0, horizon / 2), horizon * 0.75)
    # either criterion fires as soon as one start time tau0 satisfies it:
    # the bounded side wants the largest upper-envelope value over tau0,
    # the grow-up side the smallest lower-envelope value
    best_sup, best_inf = -math.inf, math.inf
    rows = []
    for tau0 in sorted(set(float(t) for t in tau0_list)):
        l0_up = _lambda0(grid, k_sup(spec, s.t0 + tau0, s.t0 + horizon),
                         ladders)
        l0_low = _lambda0(grid, k_inf(spec, s.t0 + tau0, s.t0 + horizon),
                          ladders)
        rows.append((tau0, l0_up, l0_low))
        best_sup = max(best_sup, l0_up)
        best_inf = min(best_inf, l0_low)
    details = tuple(("tau0=%g" % t, (lu, ll)) for t, lu, ll in rows)
    bounded = lam < best_sup
    growup = lam > best_inf
    checks = [
        TheoremCheck("envelope-bounded", bounded, "bounded" if bounded
                     else "none",
                     details + (("lam", lam), ("sup_env_value", best_sup))),
        TheoremCheck("envelope-grow-up", growup, "grow_up" if growup
                     else "none",
                     details + (("lam", lam), ("inf_env_value", best_inf))),
    ]
    return checks


def _jumping_phases(spec: JumpingSets):
    """(first-shape length, second-shape length) of each period."""
    return spec.t1, spec.period - spec.t1


def _check_intermittent(s: Scenario) -> TheoremCheck:
    """Saturation on recurrent intervals: the coefficient has a positive
    floor everywhere on intervals longer than eta, separated by gaps of
    length at most Xi; bounded for every growth rate."""
    spec = s.params.moving_set
    if not (isinstance(spec, JumpingSets)
            and (spec.k0.is_empty ^ spec.k1.is_empty)):
        return TheoremCheck("intermittent-saturation", False, "none",
                            (("reason", "no recurrent empty phase"),))
    len0, len1 = _jumping_phases(spec)
    eta = len1 if spec.k1.is_empty else len0
    xi = len0 if spec.k1.is_empty else len1
    nu0 = geo.NU_MAX
    details = [("eta", eta), ("xi", xi), ("nu0", nu0)]
    if s.params.lam > 0:
        details.append(("w_inf_at_eta",
                        w_inf(s.params.lam, nu0, RHO, eta)))
    return TheoremCheck("intermittent-saturation", True, "bounded",
                        tuple(details))


def _check_jumping(s: Scenario) -> TheoremCheck:
    """Jump separation: the set alternates between two spatially separated
    shapes with jump gaps neither too short nor unbounded; bounded for
    every growth rate."""
    spec = s.params.moving_set
    if not (isinstance(spec, JumpingSets)
            and not spec.k0.is_empty and not spec.k1.is_empty):
        return TheoremCheck("jumping-separation", False, "none",
                            (("reason", "not an alternating pair"),))
    gap = shape_gap(spec.k0, spec.k1)
    len0, len1 = _jumping_phases(spec)
    tau0 = 0.5 * min(len0, len1)
    xi = max(len0, len1)
    hold = gap > 0.0 and tau0 > 0.0
    return TheoremCheck("jumping-separation", hold,
                        "bounded" if hold else "none",
                        (("gap", gap), ("tau0", tau0), ("xi", xi)))


def _check_moving_floor(s: Scenario, grid: Grid) -> TheoremCheck:
    """Moving spectral floor: a carried neighborhood family of the moving
    set keeps its principal eigenvalue above the growth rate; bounded."""
    spec = s.params.moving_set
    if not isinstance(spec, TranslatingSet):
        return TheoremCheck("moving-spectral-floor", False, "none",
                            (("reason", "needs a rigidly carried set"),))
    tau0 = 0.5            # half-width of each carry window
    delta = max(0.1, 3.0 * grid.h)
    n_times = 9
    times = np.linspace(s.t0 + tau0, s.t_end - tau0, n_times)
    floor = math.inf
    for t in times:
        shape = k_sup(spec, t - tau0, t + tau0)
        m = mask_within_distance(grid, shape, delta)
        floor = min(floor, principal_eigenpair(grid, m).value)
    hold = s.params.lam < floor
    return TheoremCheck("moving-spectral-floor", hold,
                        "bounded" if hold else "none",
                        (("floor", floor), ("delta", delta), ("tau0", tau0),
                         ("lam", s.params.lam)))


def _ball_spectral_data(grid: Grid, pair_e, m_d: np.ndarray):
    """Eigen data of a set E, given its principal pair, with the nodes m_d
    of a strictly interior ball D."""
    lam2_e = second_eigenvalue(grid, pair_e.mask)
    pair_d = principal_eigenpair(grid, m_d)
    phi_e, phi_d = pair_e.vector, pair_d.vector
    alpha1 = float(np.sum(phi_d * phi_e)) * grid.cell_volume
    inf_e_on_d = float(np.min(phi_e[m_d]))
    max_d = float(np.max(phi_d))
    return lam2_e, pair_d, alpha1, inf_e_on_d, max_d


def _check_carried_growth(s: Scenario, grid: Grid) -> TheoremCheck:
    """Slowly carried sanctuary: rigid copies of a set inside the moving
    region overlap on balls, the growth rate beats the set's principal
    eigenvalue, and the carry time between copies exceeds the waiting time
    of the eigen-dominance estimate; grow-up."""
    spec = s.params.moving_set
    lam = s.params.lam
    gamma = s.predict_plan.gamma
    name = "carried-growth"
    if isinstance(spec, StaticSet) and spec.base.kind == "ball":
        e_shape = spec.base
        r = e_shape.radius / 4.0
        d_shape = SetShape.ball(e_shape.center, r)
        window = None
    elif isinstance(spec, TranslatingSet):
        window = s.predict_plan.carry_window
        if window is None:
            return TheoremCheck(name, False, "none",
                                (("reason", "no carry window configured"),))
        v = spec.curve.max_speed()
        r = 0.5 * (spec.radius - v * window)
        if r <= 2.0 * grid.h:
            return TheoremCheck(name, False, "none",
                                (("reason", "overlap ball under-resolved"),
                                 ("r", r)))
        e_shape = SetShape.ball(spec.curve.position(s.t0 + 0.5 * window),
                                spec.radius - 0.5 * v * window)
        d_shape = SetShape.ball(spec.curve.position(s.t0 + window), r)
    else:
        return TheoremCheck(name, False, "none",
                            (("reason", "needs a static or rigidly "
                                        "translated ball"),))
    m_e, m_d = mask_from_shape(grid, e_shape), mask_from_shape(grid, d_shape)
    if not (m_e.any() and m_d.any()):
        return TheoremCheck(name, False, "none",
                            (("reason", "set covers no lattice node"),))
    pair_e = principal_eigenpair(grid, m_e)
    if lam <= pair_e.value:
        return TheoremCheck(name, False, "none",
                            (("lam", lam), ("lam1_e", pair_e.value),
                             ("reason", "growth rate below the set's "
                                        "principal eigenvalue")))
    lam2_e, pair_d, alpha1, inf_e_on_d, max_d = \
        _ball_spectral_data(grid, pair_e, m_d)
    tau = tau_unbounded(TauInputs(
        dim=grid.dim, lam=lam, lam1_e=pair_e.value, lam2_e=lam2_e,
        c_inf=1.0, v0_norm=1.0, alpha1=alpha1,
        inf_phi1_e_on_d=inf_e_on_d, max_phi1_d=max_d, gamma=gamma))
    details = (("lam1_e", pair_e.value), ("lam2_e", lam2_e),
               ("tau", tau), ("gamma", gamma), ("overlap_radius",
                                                d_shape.radius))
    if window is None:
        # the sanctuary never moves: copies coincide, any spacing >= tau works
        return TheoremCheck(name, True, "grow_up",
                            details + (("carry_window", None),))
    hold = window >= tau
    return TheoremCheck(name, hold, "grow_up" if hold else "none",
                        details + (("carry_window", window),))


def _check_alternating(s: Scenario, grid: Grid, ladders: dict) -> TheoremCheck:
    """Alternating nested sanctuaries: the set contains a large region for
    long stretches and shrinks to a nested small one only briefly; if the
    growth rate sits between the two characteristic values and the long
    stretch exceeds the waiting time, grow-up."""
    spec = s.params.moving_set
    lam = s.params.lam
    gamma = s.predict_plan.gamma
    name = "alternating-nested-growth"
    if not (isinstance(spec, JumpingSets) and spec.k0.kind == "ball"
            and spec.k1.kind == "ball"):
        return TheoremCheck(name, False, "none",
                            (("reason", "not an alternating ball pair"),))
    len0, len1 = _jumping_phases(spec)
    if ball_inside(spec.k0, spec.k1):
        big, small = spec.k0, spec.k1
        long_len, short_len = len0, len1
    elif ball_inside(spec.k1, spec.k0):
        big, small = spec.k1, spec.k0
        long_len, short_len = len1, len0
    else:
        return TheoremCheck(name, False, "none",
                            (("reason", "shapes are not nested"),))
    l0_big = _lambda0(grid, big, ladders)
    l0_small = _lambda0(grid, small, ladders)
    if not (l0_big < lam < l0_small < math.inf):
        return TheoremCheck(name, False, "none",
                            (("lam", lam), ("lambda0_big", l0_big),
                             ("lambda0_small", l0_small),
                             ("reason", "growth rate not between the two "
                                        "characteristic values")))
    m_big, m_small = mask_from_shape(grid, big), mask_from_shape(grid, small)
    if not (m_big.any() and m_small.any()):
        return TheoremCheck(name, False, "none",
                            (("reason", "set covers no lattice node"),))
    pair_e = principal_eigenpair(grid, m_big)
    lam2_e, pair_d, alpha1, inf_e_on_d, max_d = \
        _ball_spectral_data(grid, pair_e, m_small)
    lam_eff = min(lam, pair_e.value + 0.9 * (lam2_e - pair_e.value))
    alpha = math.exp((lam_eff - pair_d.value) * short_len)
    tau = tau_unbounded(TauInputs(
        dim=grid.dim, lam=lam_eff, lam1_e=pair_e.value, lam2_e=lam2_e,
        c_inf=1.0, v0_norm=1.0, alpha1=alpha1,
        inf_phi1_e_on_d=inf_e_on_d, max_phi1_d=max_d, gamma=gamma / alpha))
    hold = long_len >= tau
    return TheoremCheck(name, hold, "grow_up" if hold else "none",
                        (("lambda0_big", l0_big), ("lambda0_small", l0_small),
                         ("lam1_e", pair_e.value), ("lam2_e", lam2_e),
                         ("alpha", alpha), ("gamma", gamma), ("tau", tau),
                         ("long_phase", long_len), ("short_phase", short_len)))


def predict(s: Scenario, grid: Grid | None = None) -> list:
    """Evaluate every criterion on the declarative scenario description;
    the call builds one lambda0 ladder per distinct set, in a dict by
    SetShape that the envelope and alternating checks share."""
    if s.params.moving_set is None:
        return [TheoremCheck("envelope-bounded", False, "none",
                             (("reason", "no vanishing set (purely linear "
                                         "coefficient)"),))]
    grid = grid if grid is not None else scenario_grid(s)
    ladders = {}
    checks = _check_envelopes(s, grid, ladders)
    checks.append(_check_intermittent(s))
    checks.append(_check_jumping(s))
    checks.append(_check_moving_floor(s, grid))
    checks.append(_check_carried_growth(s, grid))
    checks.append(_check_alternating(s, grid, ladders))
    fired = {c.predicted for c in checks if c.hypotheses_hold}
    if "bounded" in fired and "grow_up" in fired:
        raise RuntimeError(
            "contradictory criteria fired on one scenario — this falsifies "
            f"the implementation: {[c.name for c in checks if c.hypotheses_hold]}")
    return checks


@dataclass(frozen=True)
class CrossCheckReport:
    label: str
    checks: tuple
    verdict: Verdict
    predicted: str        # "bounded" | "grow_up" | "none"
    status: str           # "CONSISTENT" | "VIOLATION" | "UNDECIDED"


def cross_check(s: Scenario, trajectory: Trajectory | None = None,
                grid: Grid | None = None,
                checks: list | None = None) -> CrossCheckReport:
    """Confront hypothesis-based prediction with direct simulation."""
    grid = grid if grid is not None else scenario_grid(s)
    if checks is None:
        checks = predict(s, grid)
    tr = trajectory if trajectory is not None else run_scenario(s, grid)
    verdict = classify(tr)
    fired = {c.predicted for c in checks if c.hypotheses_hold}
    predicted = next(iter(fired)) if fired else "none"
    if predicted == "none":
        status = "UNDECIDED"
    elif verdict.kind == "inconclusive":
        status = "UNDECIDED"
    elif (predicted == "bounded") == verdict.is_bounded_kind:
        status = "CONSISTENT"
    else:
        status = "VIOLATION"
    return CrossCheckReport(label=s.label, checks=tuple(checks),
                            verdict=verdict, predicted=predicted,
                            status=status)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_SQ = DomainSpec.rectangle((0.0, 0.0), (2.0, 2.0))
_CENTER = (1.0, 1.0)


def _scn(label, moving_set, lam, t_end, *, scheme=SchemeConfig(),
         outputs=OutputPlan(), initial=InitialData("constant"),
         expected="CONSISTENT", plan=PredictPlan()):
    """A registry scenario on the square (0, 2)^2 at resolution 64 from
    t0 = 0, with the defaults of every dataclass it does not pass."""
    return Scenario(
        label=label, domain=_SQ, resolution=64,
        params=EquationParams(lam=lam, moving_set=moving_set),
        scheme=scheme, t0=0.0, t_end=t_end, initial=initial,
        outputs=outputs, predict_plan=plan, expected_status=expected)


def registry() -> dict:
    """All shipped experiments, keyed by label: a fresh dict over scenarios
    built once per process (every one is frozen, down to its tuples)."""
    return {s.label: s for s in _registry_scenarios()}


@cache
def _registry_scenarios() -> tuple:
    ball45 = StaticSet(SetShape.ball(_CENTER, 0.45))
    # centers chosen so the node lattice maps one ball onto the other:
    # the alternation is then exactly symmetric and the recorded envelope
    # settles to a clean periodic level
    ball35a = SetShape.ball((0.5, 0.5), 0.35)
    ball35b = SetShape.ball((1.5, 1.5), 0.35)
    return (
        # autonomous reference triple around the two thresholds
        _scn("trichotomy-low", ball45, 2.47, 10.0),
        _scn("trichotomy-mid", ball45, 16.7, 8.0),
        _scn("trichotomy-high", ball45, 42.8, 3.0,
             scheme=SchemeConfig(growth_cap=1e4),
             outputs=OutputPlan(sample_every=2)),
        # ball of changing radius
        _scn("shrink-case1",
             RadiusBall(_CENTER, geo.RadiusSchedule("approach", 0.45)),
             42.8, 8.0, scheme=SchemeConfig(growth_cap=1e4),
             outputs=OutputPlan(sample_every=5),
             plan=PredictPlan(tau0_list=(1.0, 6.0))),
        _scn("shrink-case2",
             RadiusBall(_CENTER, geo.RadiusSchedule("harmonic_shrink", 0.2)),
             42.8, 30.0,
             plan=PredictPlan(tau0_list=(1.0, 3.0))),
        _scn("shrink-case3",
             RadiusBall(_CENTER, geo.RadiusSchedule("oscillating", 0.3,
                                                    omega=10.0)),
             8.0, 12.0),
        # spinning sector
        _scn("rotating-slow",
             RotatingSector(_CENTER, 0.5, 0.0, math.pi / 3.0, 0.5),
             11.0, 10.0),
        _scn("rotating-fast",
             RotatingSector(_CENTER, 0.5, 0.0, math.pi / 3.0, 30.0),
             30.0, 6.0, scheme=SchemeConfig(growth_cap=1e4),
             expected="UNDECIDED"),
        # alternation between two separated sanctuaries, plus its static control
        _scn("jumping-disjoint",
             JumpingSets(ball35a, ball35b, period=0.05, t1=0.025),
             94.4, 41.0, scheme=SchemeConfig(dt=1e-3, growth_cap=1e6),
             outputs=OutputPlan(sample_every=25),
             initial=InitialData("constant", 200.0)),
        _scn("jumping-control", StaticSet(ball35a),
             94.4, 1.5, scheme=SchemeConfig(dt=1e-3, growth_cap=1e4),
             outputs=OutputPlan(sample_every=1)),
        # slowly carried sanctuary, bounded side (spectral floor above lam)
        _scn("translating-slow",
             TranslatingSet(0.3, geo.PathSchedule(
                 kind="circle", center=_CENTER, radius=0.25, omega=0.2)),
             12.0, 10.0),
        # slowly carried sanctuary, grow-up side
        _scn("carried-growth",
             TranslatingSet(0.55, geo.PathSchedule(
                 kind="line", point=(0.8, 1.0), velocity=(0.02, 0.0))),
             26.0, 12.0, scheme=SchemeConfig(growth_cap=1e4),
             outputs=OutputPlan(sample_every=5),
             initial=InitialData.bump((0.8, 1.0), 0.2, 1.0),
             plan=PredictPlan(carry_window=3.0)),
        # recurrent saturation intervals (empty sanctuary part of the time)
        _scn("intermittent",
             JumpingSets(SetShape.ball(_CENTER, 0.65), SetShape.empty(),
                         period=1.0, t1=0.4),
             14.8, 20.0),
        # nested alternation: long large-sanctuary phases, brief shrinkages
        _scn("alternating-nested",
             JumpingSets(SetShape.ball(_CENTER, 0.65),
                         SetShape.ball(_CENTER, 0.35),
                         period=2.75, t1=2.6),
             16.0, 25.0, scheme=SchemeConfig(growth_cap=1e10),
             outputs=OutputPlan(sample_every=25),
             initial=InitialData.bump(_CENTER, 0.3, 0.01),
             plan=PredictPlan(gamma=1.6)),
    )


REGISTRY_LABELS = tuple(registry().keys())
