"""Domains, moving vanishing sets, distance fields and the logistic coefficient.

The vanishing set K(t) is described declaratively (static, ball with a radius
schedule, rotating sector, jumping pair, rigid translation of a ball) and
realized as a concrete ``SetShape`` snapshot at any time.  The logistic
coefficient n(t, x) = NU_MAX (1 - exp(-d / D_RAMP)) is a fixed formula of the
distance d to K(t): it vanishes exactly on K(t), increases strictly with the
distance, and equals its limit NU_MAX wherever K(t) is empty.

All values are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "SetShape",
    "RadiusSchedule",
    "PathSchedule",
    "StaticSet",
    "RadiusBall",
    "RotatingSector",
    "JumpingSets",
    "TranslatingSet",
    "NU_MAX",
    "D_RAMP",
    "evaluate_n",
    "union_over_interval",
    "k_sup",
    "k_inf",
    "validate_inside_domain",
]


def _as_points(x) -> np.ndarray:
    """Coerce a point or an (M, d) batch of points to a 2-d float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    return a


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Bounded habitat domain: a 1-d or 2-d rectangle, or a disc."""

    kind: str  # "rectangle" | "disc"
    lo: tuple = ()
    hi: tuple = ()
    center: tuple = ()
    radius: float = 0.0

    @staticmethod
    def rectangle(lo, hi) -> "DomainSpec":
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) != len(hi) or len(lo) not in (1, 2):
            raise ValueError("rectangle needs matching 1-d or 2-d corners")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("rectangle corners must satisfy lo < hi componentwise")
        return DomainSpec(kind="rectangle", lo=lo, hi=hi)

    @staticmethod
    def disc(center, radius: float) -> "DomainSpec":
        center = tuple(float(v) for v in center)
        if len(center) != 2:
            raise ValueError("disc domains are 2-d")
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        return DomainSpec(kind="disc", center=center, radius=float(radius))

    @property
    def dim(self) -> int:
        return len(self.lo) if self.kind == "rectangle" else 2

    def bounding_box(self):
        if self.kind == "rectangle":
            return np.array(self.lo), np.array(self.hi)
        c = np.array(self.center)
        return c - self.radius, c + self.radius

    def interior_margin(self, points) -> np.ndarray:
        """Distance of each point to the domain boundary (negative outside)."""
        p = _as_points(points)
        if self.kind == "rectangle":
            lo, hi = np.array(self.lo), np.array(self.hi)
            return np.minimum((p - lo).min(axis=1), (hi - p).min(axis=1))
        return self.radius - np.linalg.norm(p - np.array(self.center), axis=1)

    def contains(self, points) -> np.ndarray:
        return self.interior_margin(points) > 0.0


# ---------------------------------------------------------------------------
# Set shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetShape:
    """A compact set: ball, circular sector, empty, or a union of them.

    A point is the ball of radius 0, and a sector spanning 2 pi or more is
    the ball it fills, so equal sets compare equal.  Distances are exact
    Euclidean distances for every kind.
    """

    kind: str  # "ball" | "sector" | "empty" | "union"
    center: tuple = ()
    radius: float = 0.0
    theta0: float = 0.0
    theta1: float = 0.0
    parts: tuple = ()

    @staticmethod
    def ball(center, radius: float) -> "SetShape":
        if radius < 0:
            raise ValueError("ball radius must be nonnegative")
        return SetShape(kind="ball", center=tuple(float(v) for v in center),
                        radius=float(radius))

    @staticmethod
    def sector(center, r0: float, theta0: float, theta1: float) -> "SetShape":
        """The filled sector of radius r0 over the angles [theta0, theta1];
        the disc SetShape.ball(center, r0) once theta1 - theta0 >= 2 pi."""
        if r0 <= 0:
            raise ValueError("sector radius must be positive")
        if not theta0 < theta1:
            raise ValueError("sector needs theta0 < theta1")
        center = tuple(float(v) for v in center)
        if len(center) != 2:
            raise ValueError(f"a sector is 2-d, not {len(center)}-d")
        if theta1 - theta0 >= 2.0 * math.pi:
            return SetShape.ball(center, r0)
        return SetShape(kind="sector", center=center, radius=float(r0),
                        theta0=float(theta0), theta1=float(theta1))

    @staticmethod
    def point(p) -> "SetShape":
        return SetShape.ball(p, 0.0)

    @staticmethod
    def empty() -> "SetShape":
        return SetShape(kind="empty")

    @staticmethod
    def union(parts) -> "SetShape":
        parts = tuple(p for p in parts if not p.is_empty)
        if not parts:
            return SetShape.empty()
        if len(parts) == 1:
            return parts[0]
        return SetShape(kind="union", parts=parts)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def is_point(self) -> bool:
        return self.kind == "ball" and self.radius == 0.0

    @property
    def dim(self) -> int:
        if self.kind == "union":
            return self.parts[0].dim
        return len(self.center)

    def distance(self, points) -> np.ndarray:
        p = _as_points(points)
        if not self.is_empty and p.shape[1] != self.dim:
            raise ValueError(f"distance from {p.shape[1]}-d points to a "
                             f"{self.dim}-d {self.kind}")
        return self._distance(p)

    def _distance(self, p: np.ndarray) -> np.ndarray:
        if self.kind == "empty":
            raise ValueError("distance to the empty set is undefined")
        if self.kind == "ball":
            return _ball_distance(p, self.center, self.radius)
        if self.kind == "sector":
            return _sector_distance(p - np.array(self.center), self.radius,
                                    self.theta0, self.theta1)
        if (len(self.parts) >= _TREE_BALLS
                and all(b.kind == "ball" for b in self.parts)):
            return _balls_distance(p, np.array([b.center for b in self.parts]),
                                   np.array([b.radius for b in self.parts]))
        d = self.parts[0]._distance(p)
        for part in self.parts[1:]:
            np.minimum(d, part._distance(p), out=d)
        return d


# unions of at least this many balls take _balls_distance's tree query
_TREE_BALLS = 32


def _ball_distance(p: np.ndarray, center, radius: float) -> np.ndarray:
    """Distance from points p (M, d) to the ball B(center, radius): the
    float operations of max(norm(p - c, axis=1) - r, 0), squares summed
    axis by axis, then sqrt."""
    d = p[:, 0] - center[0]
    d *= d
    for a in range(1, len(center)):
        q = p[:, a] - center[a]
        q *= q
        d += q
    np.sqrt(d, out=d)
    d -= radius
    return np.maximum(d, 0.0, out=d)


def _balls_distance(p: np.ndarray, centers: np.ndarray,
                    radii: np.ndarray) -> np.ndarray:
    """Distance from points p (M, d) to the union of the balls with centres
    (m, d) and radii (m,): one nearest-centre query of a k-d tree per
    distinct radius.

    In one or two dimensions the tree sums the same squares in the same
    order as _ball_distance, and sqrt and x -> max(x - r, 0) are monotone,
    so the sqrt of the nearest squared distance, less r, is the min over
    that radius's balls: the result equals, bit for bit, the min over the
    balls taken one at a time.
    """
    # imported here, not at module level: scipy.spatial costs about 20 ms
    # and 2.5 MB of peak memory at import, which runs that never sample a
    # union of 32 balls should not pay
    from scipy.spatial import cKDTree
    out = np.full(len(p), np.inf)
    for r in np.unique(radii):
        d = cKDTree(centers[radii == r]).query(p)[0]
        d -= r
        np.maximum(d, 0.0, out=d)
        np.minimum(out, d, out=out)
    return out


def _segment_distance(p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from points p (M, 2) to the segment [0, b]."""
    denom = float(b @ b)
    t = np.clip(p @ b / denom, 0.0, 1.0) if denom > 0 else np.zeros(len(p))
    return np.linalg.norm(p - t[:, None] * b, axis=1)


def _sector_distance(q, r0, theta0, theta1) -> np.ndarray:
    """Exact distance to a filled circular sector, narrower than 2 pi, by
    case split, from the offsets q of the points to its center.

    Points whose polar angle falls inside [theta0, theta1] (mod 2 pi) see the
    arc face; all others see the nearest radial face.
    """
    rho = np.linalg.norm(q, axis=1)
    width = theta1 - theta0
    phi = np.arctan2(q[:, 1], q[:, 0])
    rel = np.mod(phi - theta0, 2.0 * math.pi)
    inside_wedge = rel <= width
    d = np.empty(len(q))
    d[inside_wedge] = np.maximum(rho[inside_wedge] - r0, 0.0)
    out = ~inside_wedge
    if np.any(out):
        e0 = r0 * np.array([math.cos(theta0), math.sin(theta0)])
        e1 = r0 * np.array([math.cos(theta1), math.sin(theta1)])
        d[out] = np.minimum(_segment_distance(q[out], e0),
                            _segment_distance(q[out], e1))
    return d


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusSchedule:
    """Time law for a ball radius.

    kinds: ``harmonic_shrink`` r0/(t+1) and ``approach`` r0*(1 - 1/(t+1)),
    both for t > -1; ``oscillating`` r0*(1 + |sin(omega t)|).  A ball of
    fixed radius is a ``StaticSet``.
    """

    kind: str
    r0: float
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in ("harmonic_shrink", "approach", "oscillating"):
            raise ValueError(f"unknown radius schedule {self.kind!r}")
        if self.r0 < 0:
            raise ValueError(f"radius r0 must be nonnegative, got {self.r0:g}")

    def radius(self, t: float) -> float:
        if self.kind == "harmonic_shrink":
            return self.r0 / (t + 1.0)
        if self.kind == "approach":
            return self.r0 * (1.0 - 1.0 / (t + 1.0))
        return self.r0 * (1.0 + abs(math.sin(self.omega * t)))

    def radius_range(self, ta: float, tb: float) -> tuple:
        """Exact (infimum, supremum) of the radius over [ta, tb]."""
        if ta <= -1.0 and self.kind != "oscillating":
            raise ValueError(f"{self.kind} radius needs t > -1, got {ta:g}")
        lo, hi = sorted((self.radius(ta), self.radius(tb)))
        if self.kind == "oscillating" and self.omega != 0.0:
            # |sin(omega t)| is 0 at multiples of pi/omega and 1 at odd
            # multiples of pi/(2 omega); monotone in between, so elsewhere
            # the extremes sit at the endpoints
            half = math.pi / abs(self.omega)
            if math.floor(tb / half) >= math.ceil(ta / half):
                lo = self.r0
            if math.floor(tb / half - 0.5) >= math.ceil(ta / half - 0.5):
                hi = 2.0 * self.r0
        return lo, hi


@dataclass(frozen=True)
class PathSchedule:
    """Curve gamma(t) carrying the centre of a translating ball."""

    kind: str  # "circle" | "line"
    point: tuple = ()
    center: tuple = ()
    radius: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    velocity: tuple = ()

    def __post_init__(self):
        if self.kind not in ("circle", "line"):
            raise ValueError(f"unknown path schedule {self.kind!r}")
        if self.kind == "line" and len(self.point) != len(self.velocity):
            raise ValueError("line path: point and velocity dimensions differ")
        if self.kind == "circle" and len(self.center) != 2:
            raise ValueError(f"a circle path is 2-d, not {len(self.center)}-d")

    def position(self, t: float) -> np.ndarray:
        if self.kind == "circle":
            a = self.omega * t + self.phase
            return np.array(self.center) + self.radius * np.array(
                [math.cos(a), math.sin(a)])
        return np.array(self.point) + t * np.array(self.velocity)

    def max_speed(self) -> float:
        if self.kind == "circle":
            return abs(self.omega) * self.radius
        return float(np.linalg.norm(self.velocity))


# ---------------------------------------------------------------------------
# Moving set variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticSet:
    base: SetShape

    def snapshot(self, t: float) -> SetShape:
        return self.base


@dataclass(frozen=True)
class RadiusBall:
    center: tuple
    schedule: RadiusSchedule

    def snapshot(self, t: float) -> SetShape:
        return SetShape.ball(self.center, max(self.schedule.radius(t), 0.0))


@dataclass(frozen=True)
class RotatingSector:
    """Sector of fixed radius spinning clockwise at angular speed omega."""

    center: tuple
    r0: float
    theta0: float
    theta1: float
    omega: float

    def snapshot(self, t: float) -> SetShape:
        return SetShape.sector(self.center, self.r0,
                               self.theta0 - self.omega * t,
                               self.theta1 - self.omega * t)


@dataclass(frozen=True)
class JumpingSets:
    """K(t) = k0 on (n*period, n*period + t1], k1 on the rest of each period;
    each phase is a ball (a point is the ball of radius 0) or empty."""

    k0: SetShape
    k1: SetShape
    period: float
    t1: float

    def __post_init__(self):
        for name, phase in (("k0", self.k0), ("k1", self.k1)):
            if phase.kind not in ("ball", "empty"):
                raise ValueError(f"jumping phase {name} is a {phase.kind}; a "
                                 "phase is a ball, a point or empty")
        if len({p.dim for p in (self.k0, self.k1) if not p.is_empty}) > 1:
            raise ValueError("jumping phases k0 and k1 differ in dimension")
        if not 0.0 < self.t1 < self.period:
            raise ValueError("jump time t1 must lie in (0, period)")

    def snapshot(self, t: float) -> SetShape:
        s = math.fmod(t, self.period)
        if s < 0:
            s += self.period
        return self.k0 if 0.0 < s <= self.t1 else self.k1

    def phases(self, ta: float, tb: float) -> list:
        """The distinct phases of K(t) from ta until tb: the phase at ta,
        then every phase that begins before tb."""
        phases = [self.snapshot(ta)]
        for shape, offset in ((self.k0, 0.0), (self.k1, self.t1)):
            n = math.ceil((ta - offset) / self.period)
            if offset + n * self.period < tb and shape not in phases:
                phases.append(shape)
        return phases


@dataclass(frozen=True)
class TranslatingSet:
    """Ball of fixed radius along a path: K(t) = B(gamma(t), radius)."""

    radius: float
    curve: PathSchedule

    def snapshot(self, t: float) -> SetShape:
        return SetShape.ball(self.curve.position(t), self.radius)


MovingSet = StaticSet | RadiusBall | RotatingSector | JumpingSets | TranslatingSet


# ---------------------------------------------------------------------------
# Logistic coefficient
# ---------------------------------------------------------------------------


NU_MAX = 1.0    # the limit of n at infinite distance, and n on an empty K(t)
D_RAMP = 0.05   # the distance over which n rises to 1 - 1/e of NU_MAX


def evaluate_n(spec, t: float, x):
    """Logistic coefficient n(t, x) at a point or an (M, d) batch of points,
    as an (M,) array; zero exactly on K(t)."""
    shape = spec.snapshot(t)
    if shape.is_empty:
        return np.full(len(_as_points(x)), NU_MAX)
    return NU_MAX * (1.0 - np.exp(-shape.distance(x) / D_RAMP))


# ---------------------------------------------------------------------------
# Time envelopes of the moving set
# ---------------------------------------------------------------------------


def _sample_step(ta: float, tb: float) -> float:
    """Nominal spacing of the snapshots sampled on [ta, tb]: 0.01, clamped
    so that the interval holds between 50 and 400 steps."""
    span = tb - ta
    return max(min(0.01, span / 50.0), span / 400.0)


def _sample_times(ta: float, tb: float) -> np.ndarray:
    n = max(int(math.ceil((tb - ta) / _sample_step(ta, tb))), 1)
    return np.linspace(ta, tb, n + 1)


def union_over_interval(spec, ta: float, tb: float) -> SetShape:
    """Union of snapshots sampled on [ta, tb] at the nominal spacing, in
    time order."""
    if not ta < tb:
        raise ValueError("need ta < tb")
    return SetShape.union(spec.snapshot(t) for t in _sample_times(ta, tb))


def k_sup(spec, tau0: float, horizon: float) -> SetShape:
    """Finite-horizon surrogate of the closed union of K(t) over t >= tau0.

    Exact closed forms for every variant except translating sets, whose
    snapshots are sampled.  A sector that sweeps a full turn is the disc,
    and a jumping pair whose two balls are nested is the outer ball.
    """
    if not horizon > tau0:
        raise ValueError("horizon must exceed tau0")
    if isinstance(spec, StaticSet):
        return spec.base
    if isinstance(spec, RadiusBall):
        return SetShape.ball(
            spec.center, max(spec.schedule.radius_range(tau0, horizon)[1], 0.0))
    if isinstance(spec, RotatingSector):
        # edges move as theta - omega*t; the union spans their extremes
        ends = (spec.omega * tau0, spec.omega * horizon)
        return SetShape.sector(spec.center, spec.r0, spec.theta0 - max(ends),
                               spec.theta1 - min(ends))
    if isinstance(spec, JumpingSets):
        phases = spec.phases(tau0, horizon)
        if len(phases) == 2 and not any(p.is_empty for p in phases):
            for outer, inner in (phases, phases[::-1]):
                if ball_inside(outer, inner):
                    return outer
        return SetShape.union(phases)
    return union_over_interval(spec, tau0, horizon)


def k_inf(spec, tau0: float, horizon: float) -> SetShape:
    """Finite-horizon surrogate of the intersection of K(t) over t >= tau0.

    Exact or conservative closed forms for every variant.  An overlapping
    jumping pair's is the largest ball inside both phases, and a translating
    ball's is the ball about the mean of its sampled centers, shrunk by
    their spread so that it lies in every snapshot.
    """
    if not horizon > tau0:
        raise ValueError("horizon must exceed tau0")
    if isinstance(spec, StaticSet):
        return spec.base
    if isinstance(spec, RadiusBall):
        return SetShape.ball(
            spec.center, max(spec.schedule.radius_range(tau0, horizon)[0], 0.0))
    if isinstance(spec, RotatingSector):
        width = spec.theta1 - spec.theta0
        if width >= 2.0 * math.pi:
            return SetShape.ball(spec.center, spec.r0)
        swept = abs(spec.omega) * (horizon - tau0)
        if width - swept <= 0.0:
            return SetShape.point(spec.center)
        # Edges move as theta - omega*t, so the intersection keeps the lower
        # edge at its largest value: tau0 for omega > 0, horizon for omega < 0.
        lo = spec.theta0 - spec.omega * (tau0 if spec.omega > 0 else horizon)
        return SetShape.sector(spec.center, spec.r0, lo, lo + (width - swept))
    if isinstance(spec, JumpingSets):
        a, b = spec.k0, spec.k1
        if a.is_empty or b.is_empty or shape_gap(a, b) > 0.0:
            return SetShape.empty()
        for outer, inner in ((a, b), (b, a)):
            if ball_inside(outer, inner):
                return inner
        # the ball inscribed in the lens, 2 * rho thick between the centres
        ca, cb = np.array(a.center), np.array(b.center)
        d = float(np.linalg.norm(cb - ca))
        rho = 0.5 * (a.radius + b.radius - d)
        return SetShape.ball(ca + (a.radius - rho) / d * (cb - ca), rho)
    # the one variant left: a translating ball
    times = _sample_times(tau0, horizon)
    centers = np.array([spec.curve.position(t) for t in times])
    mid = centers.mean(axis=0)
    reach = float(np.max(np.linalg.norm(centers - mid, axis=1)))
    # Sampled centers can miss excursions between samples by at most
    # half a step at the path's top speed; shrink by that margin so the
    # result stays inside every snapshot.
    reach += 0.5 * _sample_step(tau0, horizon) * spec.curve.max_speed()
    r_eff = spec.radius - reach
    if r_eff <= 0.0:
        return SetShape.empty()
    return SetShape.ball(mid, r_eff)


def ball_inside(outer: SetShape, inner: SetShape) -> bool:
    """Whether the ball inner lies in the ball outer (to 1e-12)."""
    d = float(np.linalg.norm(np.array(outer.center) - np.array(inner.center)))
    return d + inner.radius <= outer.radius + 1e-12


def shape_gap(a: SetShape, b: SetShape) -> float:
    """Distance between two balls, max(|c_a - c_b| - r_a - r_b, 0)."""
    if a.kind != "ball" or b.kind != "ball":
        raise ValueError(f"gap between a {a.kind} and a {b.kind}: balls only")
    d = float(np.linalg.norm(np.array(a.center) - np.array(b.center)))
    return max(d - a.radius - b.radius, 0.0)


def _arc_points(center, radius: float, theta0: float, theta1: float,
                domain: DomainSpec) -> np.ndarray:
    """The points of the arc of the circle (center, radius) over angles
    [theta0, theta1] where the margin to the domain's boundary is least: its
    ends and the angles in between where it reaches farthest, towards a wall
    (k pi/2) in a rectangle and away from the centre in a disc."""
    if domain.kind == "rectangle":
        far = 0.5 * math.pi * np.arange(4)
    else:
        v = np.array(center) - np.array(domain.center)
        far = np.array([math.atan2(v[1], v[0])])
    on_arc = np.mod(far - theta0, 2.0 * math.pi) <= theta1 - theta0
    angles = np.concatenate(([theta0, theta1], far[on_arc]))
    return np.array(center) + radius * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)


def _inside(s: SetShape, domain: DomainSpec) -> bool:
    """Whether a ball or a sector lies strictly inside the domain, exactly:
    a ball when its centre is farther than its radius from the boundary, a
    sector, the domain being convex, when its centre and _arc_points are."""
    if s.kind == "ball":
        return domain.interior_margin(s.center)[0] > s.radius
    arc = _arc_points(s.center, s.radius, s.theta0, s.theta1, domain)
    return bool(np.all(domain.contains(np.vstack([s.center, arc]))))


def validate_inside_domain(spec, domain: DomainSpec, t0: float,
                           t_end: float) -> None:
    """Reject configurations whose K(t) leaves the domain at some time in
    [t0, t_end]: every part of K_sup over that interval must have the
    domain's dimension and lie strictly inside, tested exactly.  The domain
    is convex, so a translating ball is tested, without K_sup, at the ends
    of its path and, on a circle, at its centres' _arc_points.  A jumping
    pair is tested phase by phase: its K_sup, when the balls are nested, is
    the outer ball, which holds the inner one only to 1e-12."""
    if isinstance(spec, RotatingSector) and domain.dim != 2:
        raise ValueError(f"moving set is 2-d in a {domain.dim}-d domain")
    if isinstance(spec, TranslatingSet) and spec.curve.kind == "circle":
        c = spec.curve
        ends = sorted(c.omega * t + c.phase for t in (t0, t_end))
        parts = [SetShape.ball(p, spec.radius)
                 for p in _arc_points(c.center, c.radius, *ends, domain)]
    elif isinstance(spec, TranslatingSet):
        parts = [spec.snapshot(t0), spec.snapshot(t_end)]
    elif isinstance(spec, JumpingSets):
        parts = spec.phases(t0, t_end)
    else:
        swept = k_sup(spec, t0, t_end)
        parts = swept.parts if swept.kind == "union" else (swept,)
    for part in parts:
        if part.is_empty:
            continue
        if part.dim != domain.dim:
            raise ValueError(f"moving set is {part.dim}-d in a "
                             f"{domain.dim}-d domain")
        if not _inside(part, domain):
            raise ValueError(
                f"moving set leaves the domain in [{t0:g}, {t_end:g}]; K(t) "
                "must stay strictly inside the habitat")
