"""Closed-loop benchmark of degenlog.

    python3 perfbench/run.py --workload static-ball --seed 0 --seconds 20 \
        --trace 0

One process, one client: each operation starts when the previous one has
returned, and passes (every operation of the workload once, in seed order)
repeat while the next one fits in --seconds of operations.  Every output is
checked against golden.json and closed forms; the last line of standard
output is the result object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (pass time normalized by
the host's current speed, peak memory, set-up time); with --trace 1,
untraced and traced passes alternate and the metrics are the per-layer
ones.  Run from the repository root; the package is imported from src/
next to this directory.  See README.md in this directory.
"""

import os
import time

_T0 = time.perf_counter()

# One BLAS thread, pinned before numpy loads: the machine has two cores and
# the benchmark runs a single process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Set-up is measured once in this process and again in this many fresh
# interpreters; setup_s is the median.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120

WORKLOADS = ("static-ball", "predict-registry", "off-registry",
             "spectral-fine")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import degenlog from this checkout's src/, and nowhere else."""
    pkg = SRC / "degenlog"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {pkg}")
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(HERE)]
    import degenlog
    if Path(degenlog.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported degenlog from "
                         f"{degenlog.__file__}, expected {pkg}")


def set_up(workload: str, seed: int, trace: bool = False):
    """Import, registry, grids and operators of every input, warm-up.
    With trace, the part after the imports is traced; its spans are
    returned last."""
    import_package()
    import tracing
    import workloads as wl
    tracer = tracing.Tracer()
    with tracer if trace else contextlib.nullcontext():
        inputs = wl.make_inputs(workload, seed)
        described = wl.describe_inputs(inputs)
        wl.warm_up(workload)
    return wl, inputs, described, wl.Checker.load(), tracer.spans


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running this same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def environment(described) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "inputs": described,
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class HostSpeed:
    """Times of two fixed reference kernels that run no degenlog code, on a
    63x63 lattice (the registry's system size).  "solver" multiplies a
    vector by the 5-point Laplacian and updates it, the kind of work the
    time stepper and the eigen solvers do.  "geometry" computes distances
    and angles of the lattice points to a moving center, the kind of work
    the criteria do.

    On a shared machine the speed of this host drifts by tens of percent
    over seconds to minutes.  An operation's time divided by the mean time
    of the kernel like it, over the samples from just before it to just
    after it, does not drift with the host.  The kernels are sampled after
    EVERY_S seconds or more of operations.  While `periodic` is active, a
    timer signal every EVERY_S seconds also samples them in the middle of
    an operation that has run for EVERY_S or more, and `op_seconds` leaves
    the time spent sampling out of the operation's time.  Samples
    only between operations left a multi-second operation with two short
    samples at its ends, a noisier estimate of the host's speed than the
    operation itself; samples in the middle of short operations made their
    figures noisier than no normalization at all."""

    ITERATIONS = 150
    REPEATS = 3
    EVERY_S = 1.0
    KERNEL_OF = {"predict": "geometry", "simulate": "solver",
                 "crosscheck": "solver", "eig": "solver"}

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        m = 63
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        eye = sp.identity(m)
        self._np = np
        self._a = (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()
        self._x0 = np.linspace(1.0, 2.0, m * m)
        self._px, self._py = (g.ravel() for g in np.meshgrid(
            np.linspace(0.0, 2.0, m), np.linspace(0.0, 2.0, m)))
        self.samples = []
        self._pauses = []        # (start, end) of every sample
        self._pending = []       # finished operations waiting for a sample
        self._since = 0.0        # seconds of operations since the last one
        self._op_start = None    # start of the running operation
        self._busy = False
        self.sample()

    def _solver(self) -> float:
        np, x = self._np, self._x0.copy()
        t = time.perf_counter()
        for _ in range(self.ITERATIONS):
            y = self._a @ x
            x = y / np.linalg.norm(y) + 0.5 * x
        return time.perf_counter() - t

    def _geometry(self) -> float:
        np, d = self._np, self._x0.copy()
        t = time.perf_counter()
        for i in range(self.ITERATIONS):
            c = 1.0 + 0.5 * np.cos(0.01 * i)
            dx, dy = self._px - c, self._py - c
            d = np.minimum(d, np.maximum(np.hypot(dx, dy) - 0.3, 0.0)
                           + np.abs(np.arctan2(dy, dx)))
        return time.perf_counter() - t

    def sample(self) -> None:
        """Time both kernels, then give every finished operation waiting
        for a sample its rec["ref"]."""
        if self._busy:           # a timer signal inside a sample
            return
        self._busy = True
        start = time.perf_counter()
        reps = range(self.REPEATS)
        self.samples.append(
            {"solver": statistics.median(self._solver() for _ in reps),
             "geometry": statistics.median(self._geometry() for _ in reps)})
        pending, self._pending = self._pending, []
        for rec in pending:
            k = self.KERNEL_OF[rec["kind"]]
            rec["ref"] = statistics.fmean(
                s[k] for s in self.samples[rec.pop("first"):])
        self._pauses.append((start, time.perf_counter()))
        self._since = 0.0
        self._busy = False

    def _tick(self, *_) -> None:
        start = self._op_start
        if start is not None and \
                time.perf_counter() - start >= self.EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def periodic(self):
        """While inside, sample every EVERY_S seconds in the middle of an
        operation that has run that long."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def mark(self) -> tuple:
        """State at the start of an operation, for op_seconds and done."""
        mark = len(self.samples) - 1, len(self._pauses), time.perf_counter()
        self._op_start = mark[2]
        return mark

    def op_seconds(self, mark: tuple, end: float) -> float:
        """Seconds from the mark to end, less the samples taken between.
        A sample runs whole between two bytecodes of the operation, so it
        lies either inside [start, end] or outside it."""
        _, pauses, start = mark
        return end - start - sum(b - a for a, b in self._pauses[pauses:]
                                 if a >= start and b <= end)

    def done(self, rec: dict, mark: tuple) -> None:
        """Queue a finished operation; the next sample gives it a ref.
        Sample once EVERY_S seconds of operations have run."""
        self._op_start = None
        rec["first"] = mark[0]
        self._pending.append(rec)
        self._since += rec["s"]
        if self._since >= self.EVERY_S:
            self.sample()

    def summary(self) -> dict:
        """Median kernel time in ms, per kernel, with the sample count."""
        return {k: {"median_ms": 1e3 * statistics.median(
                    s[k] for s in self.samples), "n": len(self.samples)}
                for k in ("solver", "geometry")}


def run_pass(wl, ops, host: HostSpeed, tracer=None) -> dict:
    recs = []
    for op in ops:
        err = None
        steps = 0
        mark = host.mark()
        try:
            if tracer is None:
                steps = op.call()
            else:
                with tracer.span(f"op.{op.kind}"):
                    steps = op.call()
        except wl.Mismatch as e:
            err = f"{op.kind} {op.key}: {e}"
        except wl.PROGRAM_FAILURES as e:
            err = f"{op.kind} {op.key}: {type(e).__name__}: {e}"
        end = time.perf_counter()
        recs.append({"kind": op.kind, "key": op.key, "steps": steps,
                     "s": host.op_seconds(mark, end), "error": err})
        host.done(recs[-1], mark)
    return {"ops": recs, "traced": tracer is not None}


def pass_wall(p) -> float:
    """Wall time of a pass: its operations, without the kernel samples."""
    return sum(o["s"] for o in p["ops"])


def pass_norm(p) -> float:
    """Wall time of a pass in units of the reference kernel time."""
    return sum(o["s"] / o["ref"] for o in p["ops"])


def measure(args, wl, inputs, checker) -> tuple:
    """Whole passes within --seconds of operations (at least one); with
    tracing, untraced and traced passes alternate and there is at least one
    of each."""
    import tracing
    rng = None if args.seed == 0 else random.Random(f"order-{args.seed}")
    host = HostSpeed()
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        ops = wl.make_pass(args.workload, inputs, checker, rng)
        if traced:
            # No timer samples inside spans: they would count as layer time.
            with tracing.Tracer() as tr:
                p = run_pass(wl, ops, host, tr)
            p["spans"] = tr.spans
        else:
            tracing.check_untraced()
            with host.periodic():
                p = run_pass(wl, ops, host)
            tracing.check_untraced()
        passes.append(p)
        walls = [pass_wall(q) for q in passes]
        # Stop before a pass that would end after --seconds, judged by the
        # longest pass so far, once there is a pass (one of each with
        # tracing).
        if (len(passes) >= (2 if args.trace else 1)
                and sum(walls) + max(walls) > args.seconds):
            host.sample()
            return passes, host.summary()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def summary(values) -> dict:
    """Median, and the highest listed percentile with at least ten samples
    beyond it (none below twenty samples), with the sample count."""
    out = {"median": statistics.median(values) if values else None,
           "n": len(values), "p_high": None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            out["p_high"] = [q, percentile(values, q)]
            break
    return out


def end_to_end(passes, setup_samples) -> tuple:
    """Every end-to-end figure as name -> (unit, sample summary), then the
    per-call summaries and the step rate of each input."""
    ops = [o for p in passes for o in p["ops"]]
    failed = sum(o["error"] is not None for o in ops)

    def per_pass_sum(kind):
        if not any(o["kind"] == kind for o in ops):
            return None
        return [sum(o["s"] for o in p["ops"] if o["kind"] == kind)
                for p in passes]

    def per_call(kind):
        return [o["s"] for o in ops if o["kind"] == kind]

    sims = [o for o in ops if o["kind"] == "simulate" and o["error"] is None]
    rate = (sum(o["steps"] for o in sims) / sum(o["s"] for o in sims)
            if sims else None)
    by_input = {}
    for o in sims:
        steps, secs = by_input.get(o["key"], (0, 0.0))
        by_input[o["key"]] = (steps + o["steps"], secs + o["s"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": ("s", summary(setup_samples)),
        "wall_s": ("s", summary([pass_wall(p) for p in passes])),
        "wall_norm": ("ref", summary([pass_norm(p) for p in passes])),
        "predict_s": ("s", summary(per_pass_sum("predict") or [])),
        "simulate_s": ("s", summary(per_pass_sum("simulate") or [])),
        "steps_per_s": ("1/s", {"median": rate, "n": sum(
            o["steps"] for o in sims), "p_high": None}),
        "failed_frac": ("frac", {"median": failed / len(ops), "n": len(ops),
                                 "p_high": None}),
        "peak_rss_mb": ("MB", {"median": rss_mb, "n": 1, "p_high": None}),
    }
    per_call_detail = {k: summary(per_call(k)) for k in
                       ("predict", "simulate", "crosscheck", "eig")
                       if per_call(k)}
    steps_detail = {k: {"steps": s, "steps_per_s": s / t}
                    for k, (s, t) in by_input.items()}
    return out, per_call_detail, steps_detail


# Per-layer metrics: (name, unit, span, statistic).  Statistics per pass:
# "calls" and "total_*" are per-pass totals; "p50"/"p90"/"self_p50" pool every
# call of the span.
PER_LAYER = (
    ("grid.solve_spd.calls", "count", "grid.solve_spd", "calls"),
    ("grid.solve_spd.ms_p50", "ms", "grid.solve_spd", "p50"),
    ("grid.solve_spd.ms_p90", "ms", "grid.solve_spd", "p90"),
    ("evolve.step.calls", "count", "evolve.step", "calls"),
    ("evolve.step.ms_p50", "ms", "evolve.step", "p50"),
    ("evolve.step.self_ms_p50", "ms", "evolve.step", "self_p50"),
    ("evolve.n_values.ms_p50", "ms", "evolve.n_values", "p50"),
    ("grid.mask_within_distance.calls", "count", "grid.mask_within_distance",
     "calls"),
    ("grid.mask_within_distance.ms_p50", "ms", "grid.mask_within_distance",
     "p50"),
    ("geometry.k_sup.ms", "ms", "geometry.k_sup", "total_ms"),
    ("geometry.k_inf.ms", "ms", "geometry.k_inf", "total_ms"),
    ("geometry.union_over_interval.ms", "ms", "geometry.union_over_interval",
     "total_ms"),
    ("spectral.principal_eigenpair.calls", "count",
     "spectral.principal_eigenpair", "calls"),
    ("spectral.principal_eigenpair.ms_p50", "ms",
     "spectral.principal_eigenpair", "p50"),
    ("spectral.second_eigenvalue.calls", "count", "spectral.second_eigenvalue",
     "calls"),
    ("spectral.second_eigenvalue.ms_p50", "ms", "spectral.second_eigenvalue",
     "p50"),
    ("spectral.lambda0_of_set.calls", "count", "spectral.lambda0_of_set",
     "calls"),
    ("spectral.lambda0_of_set.self_ms", "ms", "spectral.lambda0_of_set",
     "total_self_ms"),
    ("grid.MaskedOperator.ms", "ms", "grid.MaskedOperator", "total_ms"),
    ("scenarios.predict.s", "s", "scenarios.predict", "total_s"),
    ("scenarios.run_scenario.s", "s", "scenarios.run_scenario", "total_s"),
    ("scenarios.classify.ms", "ms", "scenarios.classify", "p50"),
    ("oracles.tau_unbounded.calls", "count", "oracles.tau_unbounded", "calls"),
)

# (metric, span, ancestor): share of the ancestor's time spent in the span.
SHARES = (
    ("grid.mask_within_distance.share_of_predict", "grid.mask_within_distance",
     "scenarios.predict"),
    ("grid.solve_spd.share_of_simulate", "grid.solve_spd",
     "scenarios.run_scenario"),
)


def per_layer(passes, setup_spans) -> dict:
    import tracing
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    spans = []
    for p in traced:
        base = len(spans)
        spans += [[name, start, end, parent + base if parent >= 0 else -1]
                  for name, start, end, parent in p["spans"]]
    stats = tracing.by_name(spans)
    k = len(traced)
    out = {}
    for metric, unit, span, stat in PER_LAYER:
        durs, selfs = stats.get(span, ([], []))
        value = {
            "calls": len(durs) / k,
            "p50": percentile(durs, 50) * 1e3,
            "p90": percentile(durs, 90) * 1e3,
            "self_p50": percentile(selfs, 50) * 1e3,
            "total_ms": sum(durs) * 1e3 / k,
            "total_self_ms": sum(selfs) * 1e3 / k,
            "total_s": sum(durs) / k,
        }[stat]
        out[metric] = (unit, value)
    # grid.build_grid runs in set-up only: every input's grid is built there.
    out["grid.build_grid.ms"] = (
        "ms", sum(tracing.by_name(setup_spans)["grid.build_grid"][0]) * 1e3)
    for metric, span, ancestor in SHARES:
        inside, total = tracing.time_within(spans, span, ancestor)
        out[metric] = ("frac", inside / total if total > 0 else 0.0)
    out["trace.overhead_s"] = (
        "s", statistics.median(map(pass_wall, traced))
        - statistics.median(map(pass_wall, plain)))
    return out


def attribution(workload: str, layer: dict) -> list:
    """Whether the traced run supports the expected attribution."""
    claims = {
        "predict-registry": ("grid.mask_within_distance.share_of_predict",
                             "most of predict_s is grid.mask_within_distance"),
        "static-ball": ("grid.solve_spd.share_of_simulate",
                        "most of simulate_s is grid.solve_spd"),
    }
    if workload not in claims:
        return []
    metric, text = claims[workload]
    share = layer[metric][1]
    verdict = "holds" if share > 0.5 else "DOES NOT HOLD"
    return [f"{text}: {verdict} (share {share:.3f})"]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return "n/a" if v is None else repr(v)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    wl, inputs, described, checker, setup_spans = set_up(
        args.workload, args.seed, trace=bool(args.trace))
    setup_samples = [time.perf_counter() - _T0]
    if not args.trace:
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]

    passes, host = measure(args, wl, inputs, checker)

    ops = [o for p in passes for o in p["ops"]]
    errors = [o["error"] for o in ops if o["error"] is not None]
    e2e, per_call, steps = end_to_end(
        [p for p in passes if not p["traced"]], setup_samples)
    for rec in described:
        if rec["key"] in steps:
            steps[rec["key"]]["n"] = rec["n"]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "passes": len(passes), "loop": "closed, 1 client",
              "pass_wall_s": [pass_wall(p) for p in passes],
              "pass_wall_norm": [pass_norm(p) for p in passes],
              "end_to_end": {k: {"unit": u, **v} for k, (u, v) in e2e.items()},
              "per_call_s": per_call, "steps_by_input": steps,
              "host_kernels": host,
              "errors": [e[:500] for e in errors[:20]],
              "environment": environment(described)}
    lines = [f"{k:<40} {_fmt(v['median']):>24} {u:<6} n={v['n']}"
             + (f" p{v['p_high'][0]:g}={v['p_high'][1]:.6g}"
                if v["p_high"] else "")
             for k, (u, v) in e2e.items()]

    if args.trace:
        layer = per_layer(passes, setup_spans)
        report["per_layer"] = {k: {"unit": u, "value": v}
                               for k, (u, v) in layer.items()}
        report["attribution"] = attribution(args.workload, layer)
        lines += [f"{k:<40} {_fmt(v):>24} {u}" for k, (u, v) in layer.items()]
        lines += report["attribution"]
        TRACE_DIR.mkdir(exist_ok=True)
        with open(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                  "w") as fh:
            json.dump({"setup": setup_spans,
                       "passes": [p["spans"] for p in passes
                                  if p["traced"]]}, fh)
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in layer.items()}
    else:
        metrics = {k: {"value": e2e[k][1]["median"], "unit": e2e[k][0]}
                   for k in ("setup_s", "wall_norm", "peak_rss_mb")}

    for line in lines + errors[:20]:
        print(line)
    print(json.dumps({"report": report}))
    result = {"correct": not errors, "attempted": len(ops),
              "failed": len(errors), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
