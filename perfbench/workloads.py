"""The four benchmark workloads: seeded inputs, the operations of one pass,
and the checks that every output of every operation must pass.

Seed 0 feeds the registry values exactly and runs the operations in listed
order.  Any other seed shuffles the order of the operations of each pass and,
on trichotomy-based inputs only, moves the growth rate lambda by at most
+-5%.  That keeps lambda on the same side of every threshold (lambda_1 of the
square ~ 4.93, lambda_0 of the ball of radius 0.45 ~ 28.6, against lambda =
2.47, 16.7 and 42.8), so the pinned verdicts and predictions still hold.

Every call into the package goes through a module attribute (never a name
imported into this file), so the tracer's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from degenlog import cli, grid as gridmod, scenarios, spectral
from degenlog.grid import SolveFailure
from degenlog.spectral import EigenFailure

GOLDEN_PATH = Path(__file__).with_name("golden.json")

LAMBDA_JITTER = 0.05

# Tolerances against the values pinned in golden.json.  Eigenvalues come out
# of solves at residual 1e-10; simulated sup-norms accumulate one solve error
# per step over up to 5000 steps.
RTOL_SPECTRAL = 1e-8
RTOL_SIMULATED = 1e-5

TRICHOTOMY = ("trichotomy-low", "trichotomy-mid", "trichotomy-high")

# (input key, registry label, --set overrides): what a user builds with
# `degenlog run trichotomy-mid --set ...`.
OFF_REGISTRY = (
    ("trichotomy-mid@disc64", "trichotomy-mid",
     ("domain.kind=disc", "domain.center=1,1", "domain.radius=1",
      "domain.resolution=64")),
    ("trichotomy-mid@square16", "trichotomy-mid", ("domain.resolution=16",)),
)

# (input key, domain, shape or None, quantity, closed form, closed-form rtol):
# the README's spectral commands at n = 128.  The closed-form tolerances
# cover the O(h^2) discretization error, larger on the staircase disc.
J01 = 2.404825557695773
J11 = 3.831705970207512
SPECTRAL_N = 128
SPECTRAL_INPUTS = (
    ("square.lambda1", "rect:0,0,1,1", None, "lambda1", 2 * math.pi ** 2, 1e-3),
    ("square.lambda2", "rect:0,0,1,1", None, "lambda2", 5 * math.pi ** 2, 1e-3),
    ("disc.lambda1", "disc:0,0,1", None, "lambda1", J01 ** 2, 2e-2),
    ("disc.lambda2", "disc:0,0,1", None, "lambda2", J11 ** 2, 2e-2),
    ("square.lambda0.ball0.3", "rect:0,0,1,1", "ball:0.5,0.5,0.3", "lambda0",
     J01 ** 2 / 0.09, 5e-2),
)

# Failures of the program that count against the run instead of aborting it.
PROGRAM_FAILURES = (SolveFailure, EigenFailure)


class Mismatch(Exception):
    """An output disagrees with its pinned or closed-form value."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class ScenarioInput:
    key: str
    scenario: scenarios.Scenario
    grid: gridmod.Grid
    perturbed: bool          # lambda moved off the registry value


@dataclass
class SpectralInput:
    key: str
    grid: gridmod.Grid
    shape: object            # SetShape for lambda0, else None
    quantity: str            # "lambda1" | "lambda2" | "lambda0"
    closed_form: float
    closed_rtol: float


def _jitter(s: scenarios.Scenario, rng: random.Random) -> scenarios.Scenario:
    lam = s.params.lam * (1.0 + rng.uniform(-LAMBDA_JITTER, LAMBDA_JITTER))
    return dataclasses.replace(
        s, params=dataclasses.replace(s.params, lam=lam))


def _scenario_input(key, s, rng, seed) -> ScenarioInput:
    perturb = seed != 0 and s.label.startswith("trichotomy-")
    if perturb:
        s = _jitter(s, rng)
    return ScenarioInput(key, s, scenarios.scenario_grid(s), perturb)


def make_inputs(workload: str, seed: int) -> list:
    """Inputs of a workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    reg = scenarios.registry()
    if workload == "static-ball":
        return [_scenario_input(k, reg[k], rng, seed) for k in TRICHOTOMY]
    if workload == "predict-registry":
        return [_scenario_input(k, reg[k], rng, seed)
                for k in scenarios.REGISTRY_LABELS]
    if workload == "off-registry":
        return [_scenario_input(k, cli.resolve_scenario(label, list(sets)),
                                rng, seed)
                for k, label, sets in OFF_REGISTRY]
    if workload == "spectral-fine":
        grids = {}
        out = []
        for key, dom, shape, qty, closed, rtol in SPECTRAL_INPUTS:
            if dom not in grids:
                grids[dom] = gridmod.build_grid(cli.parse_domain(dom),
                                                SPECTRAL_N)
            out.append(SpectralInput(
                key, grids[dom], cli.parse_shape(shape) if shape else None,
                qty, closed, rtol))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def describe_inputs(inputs) -> list:
    """Per-input record: unknowns n, mask shape, nnz of the system matrix and
    the bytes one sparse matrix-vector product moves (computed from nnz)."""
    out = []
    for inp in inputs:
        g = inp.grid
        op = gridmod.MaskedOperator(g)
        m = op.matrix
        val, idx = m.data.itemsize, m.indices.itemsize
        rec = {"key": inp.key, "n": op.n, "nnz": int(m.nnz),
               "mask": "disc" if g.domain.kind == "disc" else "square",
               "h": g.h,
               "spmv_bytes_computed": int(m.nnz * (val + idx)
                                          + (op.n + 1) * idx
                                          + 2 * op.n * val)}
        if isinstance(inp, ScenarioInput):
            rec["lam"] = inp.scenario.params.lam
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One call into the package, timed and checked as a unit."""

    kind: str                # "predict" | "simulate" | "crosscheck" | "eig"
    key: str
    call: object             # () -> time steps taken (0 unless simulating);
                             # raises Mismatch or a program failure


@dataclass
class _ScenarioState:
    checks: list | None = None
    trajectory: object = None


def plain(v):
    """JSON-ready copy of check details (tuples to lists, numpy scalars to
    Python numbers)."""
    if isinstance(v, (tuple, list)):
        return [plain(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    return v


def predict_summary(checks) -> dict:
    fired = sorted({c.predicted for c in checks if c.hypotheses_hold})
    return {"fired": fired,
            "checks": [[c.name, bool(c.hypotheses_hold), c.predicted,
                        plain(c.details)] for c in checks]}


def steps_taken(tr, dt: float) -> int:
    return int(round((tr.times[-1] - tr.times[0]) / dt))


def simulate_summary(tr, dt: float) -> dict:
    return {"records": len(tr.times), "steps": steps_taken(tr, dt),
            "cap_hit": tr.cap_hit, "final_sup": float(tr.sup_norms[-1])}


def crosscheck_summary(rep) -> dict:
    return {"status": rep.status, "verdict": rep.verdict.kind,
            "predicted": rep.predicted,
            "bound_estimate": rep.verdict.bound_estimate,
            "cap_hit_time": rep.verdict.cap_hit_time}


def spectral_value(inp: SpectralInput) -> float:
    g = inp.grid
    if inp.quantity == "lambda1":
        return spectral.principal_eigenvalue(g, g.mask)
    if inp.quantity == "lambda2":
        return spectral.second_eigenvalue(g, g.mask)
    return spectral.lambda0_of_set(g, inp.shape).value


def _same(a, b, rtol, skip=()) -> bool:
    """Structural equality with a relative tolerance on floats; detail keys
    in `skip` (those that depend on a moved lambda) are not compared."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        if (len(a) == 2 and isinstance(a[0], str) and a[0] in skip
                and a[0] == b[0]):
            return True
        return all(_same(x, y, rtol, skip) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None \
            or isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    return False


def _require(ok: bool, what: str, got, want) -> None:
    if not ok:
        raise Mismatch(f"{what}: got {got!r}, pinned {want!r}")


class Checker:
    """Compares outputs with golden.json (pinned from the unmodified
    package at seed 0) and with closed forms."""

    def __init__(self, golden: dict):
        self.golden = golden

    @staticmethod
    def load() -> "Checker":
        with open(GOLDEN_PATH) as fh:
            return Checker(json.load(fh))

    def predict(self, inp: ScenarioInput, checks) -> None:
        got = predict_summary(checks)
        want = self.golden["predict"][inp.key]
        _require(got["fired"] == want["fired"], f"{inp.key} fired prediction",
                 got["fired"], want["fired"])
        skip = ("lam", "tau") if inp.perturbed else ()
        _require(_same(got["checks"], want["checks"], RTOL_SPECTRAL, skip),
                 f"{inp.key} criteria", got["checks"], want["checks"])

    def simulate(self, inp: ScenarioInput, tr) -> None:
        s = inp.scenario
        got = simulate_summary(tr, s.scheme.dt)
        n_steps = int(round((s.t_end - s.t0) / s.scheme.dt))
        if tr.cap_hit is None:
            _require(got["steps"] == n_steps, f"{inp.key} steps",
                     got["steps"], n_steps)
        if inp.perturbed:
            return
        want = self.golden["simulate"][inp.key]
        for k in ("records", "steps"):
            _require(got[k] == want[k], f"{inp.key} {k}", got[k], want[k])
        _require(_same(got["final_sup"], want["final_sup"], RTOL_SIMULATED),
                 f"{inp.key} final sup-norm", got["final_sup"],
                 want["final_sup"])

    def crosscheck(self, inp: ScenarioInput, rep) -> None:
        got = crosscheck_summary(rep)
        want = self.golden["crosscheck"][inp.key]
        _require(got["status"] == inp.scenario.expected_status,
                 f"{inp.key} status vs expected_status", got["status"],
                 inp.scenario.expected_status)
        for k in ("status", "verdict", "predicted"):
            _require(got[k] == want[k], f"{inp.key} {k}", got[k], want[k])
        if inp.perturbed:
            return
        _require(_same(got["bound_estimate"], want["bound_estimate"],
                       RTOL_SIMULATED), f"{inp.key} bound estimate",
                 got["bound_estimate"], want["bound_estimate"])
        a, b = got["cap_hit_time"], want["cap_hit_time"]
        _require((a is None) == (b is None) and
                 (a is None or abs(a - b) <= 1.5 * inp.scenario.scheme.dt),
                 f"{inp.key} cap-hit time", a, b)

    def spectral(self, inp: SpectralInput, value: float) -> None:
        _require(math.isclose(value, inp.closed_form, rel_tol=inp.closed_rtol),
                 f"{inp.key} vs closed form (rtol {inp.closed_rtol:g})",
                 value, inp.closed_form)
        want = self.golden["spectral"][inp.key]
        _require(math.isclose(value, want, rel_tol=RTOL_SPECTRAL),
                 f"{inp.key} vs pinned value", value, want)


def _scenario_ops(inp: ScenarioInput, checker: Checker, rng,
                  with_simulate: bool) -> list:
    st = _ScenarioState()
    s, g = inp.scenario, inp.grid

    def do_predict():
        st.checks = scenarios.predict(s, g)
        checker.predict(inp, st.checks)
        return 0

    def do_simulate():
        st.trajectory = scenarios.run_scenario(s, g)
        checker.simulate(inp, st.trajectory)
        return steps_taken(st.trajectory, s.scheme.dt)

    def do_crosscheck():
        if st.checks is None or st.trajectory is None:
            raise Mismatch(f"{inp.key}: no cross-check, an earlier operation "
                           "of this input failed")
        rep = scenarios.cross_check(s, trajectory=st.trajectory, grid=g,
                                    checks=st.checks)
        checker.crosscheck(inp, rep)
        return 0

    if not with_simulate:
        return [Op("predict", inp.key, do_predict)]
    first = [Op("predict", inp.key, do_predict),
             Op("simulate", inp.key, do_simulate)]
    if rng is not None and rng.random() < 0.5:
        first.reverse()
    return first + [Op("crosscheck", inp.key, do_crosscheck)]


def _spectral_op(inp: SpectralInput, checker: Checker) -> Op:
    def do_eig():
        checker.spectral(inp, spectral_value(inp))
        return 0
    return Op("eig", inp.key, do_eig)


def make_pass(workload: str, inputs: list, checker: Checker,
              rng: random.Random | None) -> list:
    """Operations of one pass; rng None (seed 0) keeps the listed order."""
    order = list(inputs)
    if rng is not None:
        rng.shuffle(order)
    if workload == "spectral-fine":
        return [_spectral_op(inp, checker) for inp in order]
    simulate = workload != "predict-registry"
    ops = []
    for inp in order:
        ops.extend(_scenario_ops(inp, checker, rng, simulate))
    return ops


def warm_up(workload: str) -> None:
    """First call of each layer the workload uses, on a 16-cell input, so
    lazy imports and first-call costs land in set-up and not in a pass."""
    if workload == "spectral-fine":
        g = gridmod.build_grid(cli.parse_domain("rect:0,0,1,1"), 16)
        spectral.principal_eigenvalue(g, g.mask)
        spectral.second_eigenvalue(g, g.mask)
        spectral.lambda0_of_set(g, cli.parse_shape("ball:0.5,0.5,0.3"))
        return
    s = cli.resolve_scenario("trichotomy-mid", ["domain.resolution=16"])
    g = scenarios.scenario_grid(s)
    checks = scenarios.predict(s, g)
    if workload == "predict-registry":
        return
    short = dataclasses.replace(
        s, t_end=s.t0 + 50 * s.scheme.dt,
        outputs=dataclasses.replace(s.outputs, sample_every=1))
    tr = scenarios.run_scenario(short, g)
    scenarios.cross_check(short, trajectory=tr, grid=g, checks=checks)
