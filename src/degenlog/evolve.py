"""Semi-implicit time stepping for the degenerate logistic equation.

One step solves

    (I + dt (-Lap_h) + dt diag(n(t_{k+1}, x) u_k^{rho-1})) u_{k+1}
        = (1 + dt lam) u_k,

with the logistic exponent rho = RHO = 2: diffusion implicit, the logistic
power lagged so the reaction enters as a nonnegative diagonal, and the linear
growth explicit in the right-hand-side multiplier.  The system matrix is an
M-matrix, so the scheme preserves nonnegativity and nodewise comparison (in
initial data, in the coefficient n, and under domain inclusion) — the
structural properties the continuous comparison arguments rest on — at
first-order accuracy in dt.

The state is the lattice vector of u: the grid function raveled in C order,
zero off the mask; MaskedOperator, the grid's time-step system, takes and
returns only lattice vectors, and a snapshot is that vector reshaped to the
lattice.  Nothing here is packed (the mask's values alone, as the eigen
solves' `grid.dirichlet_matrix` takes them), though on a rectangle the two
orders coincide.  step() takes n(t_{k+1}, .) at every lattice point as an
array; run() re-evaluates it only when K(t) moves, that is on steps where
the snapshot K(t_{k+1}) differs from the previous step's, so a static set
costs one coefficient evaluation per run.

From the third step on, run() starts each solve from the quadratic
extrapolation max(3u_k - 3u_{k-1} + u_{k-2}, 0) of the last three states
instead of from u_k.  This leaves the scheme as it is: the system and its
right-hand side are the same, only the iterate the conjugate gradients start
from differs, and every solve still stops at relative residual solve_tol.
Near a smooth trajectory the extrapolation is much closer to u_{k+1}, so
the solves take fewer iterations.  The solve first rescales that start to
its Galerkin multiple (MaskedOperator.solve_spd), which corrects most of
what is left on a decaying run, where the extrapolation is off mainly in
scale.  A run keeps one dt, so the operator writes dt A into K once and
each step assembles only the diagonal.

run() allocates its vectors once: the states u_k, u_{k-1}, u_{k-2} and the
next solution take turns in a ring of four lattice buffers, and the start,
the reaction c and the right-hand side have one buffer each, which step()
and the solve overwrite in place.  A snapshot is a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import MovingSet, evaluate_n
from .grid import Grid, MaskedOperator, SolveFailure

__all__ = [
    "RHO",
    "EquationParams",
    "SchemeConfig",
    "Trajectory",
    "check_outputs",
    "step",
    "run",
]

RHO = 2.0    # the logistic exponent rho


@dataclass(frozen=True)
class EquationParams:
    """Growth rate and the logistic coefficient n(t, x).

    The coefficient is geometry.evaluate_n of the moving set; a None moving
    set means n is identically zero (purely linear equation).
    """

    lam: float
    moving_set: MovingSet | None = None

    def n_values(self, t: float, points: np.ndarray) -> np.ndarray:
        """n(t, ·) at points, finite and nonnegative."""
        if self.moving_set is None:
            return np.zeros(len(points))
        return _checked_n(evaluate_n(self.moving_set, t, points))


def _checked_n(vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise ValueError("logistic coefficient n must be finite")
    if np.any(vals < 0):
        raise ValueError("logistic coefficient n must be nonnegative")
    return vals


@dataclass(frozen=True)
class SchemeConfig:
    """Step size, inner solve tolerance and the sup-norm abort threshold."""

    dt: float = 2e-3
    solve_tol: float = 1e-10
    growth_cap: float = 1e5

    def validate(self, lam: float) -> None:
        if not np.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt * max(lam, 0.0) >= 0.5:
            raise ValueError("dt * max(lam, 0) must stay below 0.5")
        if 1.0 + self.dt * lam <= 0.0:
            raise ValueError("1 + dt*lam must be positive")
        if not self.solve_tol > 0:      # NaN too
            raise ValueError("solve_tol must be positive")
        if not self.growth_cap > 0:
            raise ValueError("growth_cap must be positive")


@dataclass
class Trajectory:
    """Recorded norms and snapshots of one run."""

    times: list = field(default_factory=list)
    sup_norms: list = field(default_factory=list)
    l2_norms: list = field(default_factory=list)
    masses: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # (t, lattice array)
    unserved_snapshots: tuple = ()   # requested times a cap hit cut off
    cap_hit: float | None = None
    growth_cap: float = 0.0
    cell_volume: float = 1.0      # lattice cell volume weighting the norms
    cg_iterations: int = 0        # CG iterations over all the run's solves
    cg_max_iterations: int = 0    # the most CG iterations one solve took
    worst_residual_ratio: float = 0.0   # worst final residual / its target
    steps: int = 0                # time steps taken
    clipped_entries: int = 0      # solution entries clipped from below 0
    most_negative_clip: float = 0.0     # the most negative value clipped

    def record(self, t: float, u: np.ndarray) -> None:
        """Append the norms of u at time t (a lattice vector, zero off the
        mask, so its norms are those of u on the mask)."""
        self.times.append(t)
        self.sup_norms.append(float(np.max(np.abs(u))))
        self.l2_norms.append(float(np.sqrt(np.sum(u ** 2) * self.cell_volume)))
        self.masses.append(float(np.sum(u) * self.cell_volume))


def step(u: np.ndarray, n_next: np.ndarray, params: EquationParams,
         cfg: SchemeConfig, op: MaskedOperator,
         x0: np.ndarray | None = None, out: tuple | None = None,
         tr: Trajectory | None = None) -> np.ndarray:
    """Advance the nonnegative lattice vector u, zero off grid.mask, from t to
    t + dt, where n_next holds n(t + dt, ·) at grid.points().

    x0 is the iterate the solve starts from (default u).  It changes only
    how many iterations the solve takes: the solution meets solve_tol from
    any start.  out, if given, is three lattice vectors that the step
    overwrites: the new state, which it returns, then the reaction c and
    the right-hand side of its system; none may be u or x0.  Solver
    roundoff below zero is clipped, and tr, if given, counts the entries
    clipped and keeps the most negative; an entry below
    -4 solve_tol ||rhs||, more than the solve's own error, raises
    SolveFailure."""
    sol, c, rhs = np.empty((3, u.size)) if out is None else out
    np.multiply(n_next, cfg.dt, out=c)    # c = dt n u^(RHO - 1)
    c *= u
    np.multiply(u, 1.0 + cfg.dt * params.lam, out=rhs)
    op.solve_spd(rhs, cfg.dt, c, tol=cfg.solve_tol,
                 x0=u if x0 is None else x0, out=sol)
    lowest = sol.min()
    if not lowest > 0:    # else the clip would leave every bit as it is
        if lowest < 0:
            # K's eigenvalues are >= 1 and the exact solution is >= 0, so
            # a solve within 4 tol ||rhs|| of rhs is that close to it
            bound = 4.0 * cfg.solve_tol * math.sqrt(rhs.dot(rhs))
            if lowest < -bound:
                raise SolveFailure(f"solution entry {lowest:.3e} lies below "
                                   f"the solve's error bound -{bound:.3e}")
            if tr is not None:
                tr.clipped_entries += int(np.count_nonzero(sol < 0))
                tr.most_negative_clip = min(tr.most_negative_clip,
                                            float(lowest))
        np.maximum(sol, 0.0, out=sol)
    return sol


def check_outputs(t0: float, t_end: float, sample_every: int,
                  snapshot_times) -> None:
    """Raise ValueError unless records come every sample_every >= 1 steps
    and every snapshot time lies in [t0, t_end]."""
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    outside = [ts for ts in snapshot_times if not t0 <= ts <= t_end]
    if outside:
        raise ValueError(f"snapshot times {outside} lie outside "
                         f"[t0, t_end] = [{t0:g}, {t_end:g}]")


def run(grid: Grid, params: EquationParams, cfg: SchemeConfig, u0: np.ndarray,
        t0: float, t_end: float, sample_every: int = 1,
        snapshot_times=()) -> Trajectory:
    """Iterate step over [t0, t_end], recording norms and snapshots; each
    requested snapshot time is served by the state nearest to it.

    u0 is a lattice array of shape grid.shape, nonnegative and zero off the
    grid's mask.  Aborts early (after recording) once the sup-norm exceeds
    the growth cap; the trajectory keeps the cap-hit time and the snapshot
    times it cut off.  From the third step on, each solve starts from the
    quadratic extrapolation max(3u_k - 3u_{k-1} + u_{k-2}, 0) of the last
    three states (see the module docstring).  The trajectory's
    cg_iterations counts the iterations the solves took, cg_max_iterations
    the most of one solve, and worst_residual_ratio the largest final
    residual of a solve over its target solve_tol ||rhs||; steps counts the
    steps taken, clipped_entries the solution entries the steps clipped
    from below zero, and most_negative_clip the most negative of them (0.0
    if none).
    """
    cfg.validate(params.lam)
    if t_end < t0:
        raise ValueError("t_end must not precede t0")
    check_outputs(t0, t_end, sample_every, snapshot_times)
    if u0.shape != grid.shape:
        raise ValueError(f"initial data has shape {u0.shape}, not the "
                         f"grid's lattice shape {grid.shape}")
    if np.any(u0 < 0):
        raise ValueError("initial data must be nonnegative")
    if np.any(u0[~grid.mask] != 0):
        raise ValueError("initial data must vanish off the domain's mask")
    op, points = MaskedOperator(grid), grid.points()
    ring = list(np.empty((4, u0.size)))      # u, u1, u2 and the next state
    start, c, rhs = np.empty((3, u0.size))
    t, u = t0, ring[0]
    u[:] = u0.ravel()
    tr = Trajectory(growth_cap=cfg.growth_cap, cell_volume=grid.cell_volume)
    tr.record(t, u)
    pending_snaps = sorted(float(ts) for ts in snapshot_times)
    while pending_snaps and abs(pending_snaps[0] - t0) <= 0.5 * cfg.dt:
        tr.snapshots.append((t, u0.copy()))
        pending_snaps.pop(0)
    n_steps = int(round((t_end - t0) / cfg.dt))
    spec, shape, n_next = params.moving_set, None, None
    u1 = u2 = x0 = None       # the two states before u, and the start
    for k in range(1, n_steps + 1):
        snap = None if spec is None else spec.snapshot(t + cfg.dt)
        if n_next is None or snap != shape:
            shape, n_next = snap, params.n_values(t + cfg.dt, points)
        if u2 is not None:    # max(3 (u - u1) + u2, 0)
            np.subtract(u, u1, out=start)
            start *= 3.0
            start += u2
            x0 = np.maximum(start, 0.0, out=start)
        u2, u1, u = u1, u, step(u, n_next, params, cfg, op, x0,
                                (ring[k % 4], c, rhs), tr)
        t += cfg.dt
        tr.steps = k
        while pending_snaps and t >= pending_snaps[0] - 0.5 * cfg.dt:
            tr.snapshots.append((t, u.reshape(grid.shape).copy()))
            pending_snaps.pop(0)
        if k % sample_every == 0 or k == n_steps:
            tr.record(t, u)
            if tr.sup_norms[-1] > cfg.growth_cap:
                tr.cap_hit = t
                break
    tr.unserved_snapshots = tuple(pending_snaps)
    tr.cg_iterations = op.iterations
    tr.cg_max_iterations = op.max_iterations
    tr.worst_residual_ratio = op.worst_residual_ratio
    return tr
