"""Command-line front end: scenario files, runs, spectral queries, suites.

Scenario files are flat INI with sections [domain], [equation], [kset],
[time], [initial], [output], [predict]; every key maps 1:1 to a scenario
field, a key the scenario does not use is an error, and the canonical
emission round-trips.
All outputs (CSV trajectories, PGM snapshots, suite reports) are
deterministic byte streams: no timestamps, fixed formatting, fixed ordering.
"""

from __future__ import annotations

import argparse
import configparser
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from .evolve import EquationParams, SchemeConfig, Trajectory
from .geometry import (DomainSpec, JumpingSets, PathSchedule, RadiusBall,
                       RadiusSchedule, RotatingSector, SetShape, StaticSet,
                       TranslatingSet)
from .grid import build_grid, mask_from_shape, write_pgm
from .properties import suite_properties
from .scenarios import (MIN_RECORDS, CrossCheckReport, InitialData,
                        OutputPlan, PredictPlan, Scenario, classify,
                        cross_check, predict, registry, run_scenario)
from .spectral import lambda0_of_set, principal_eigenvalue, second_eigenvalue

__all__ = ["main"]


class CliError(Exception):
    """User-facing error naming the violated invariant or file location."""


# ---------------------------------------------------------------------------
# Shape / domain mini-language (used by eig, lambda0 and scenario files)
# ---------------------------------------------------------------------------


def _finite(text: str) -> float:
    v = float(text)
    if not np.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _floats(text: str) -> tuple:
    try:
        return tuple(_finite(v) for v in text.split(",") if v.strip() != "")
    except ValueError as e:
        raise ValueError(f"expected comma-separated finite numbers, "
                         f"got {text!r}") from e


def parse_shape(text: str) -> SetShape:
    """ball:cx,cy,r | sector:cx,cy,r,theta0,theta1 | point:x,y | empty"""
    text = text.strip()
    if text == "empty":
        return SetShape.empty()
    if ":" not in text:
        raise ValueError(f"malformed shape {text!r} (expected kind:numbers)")
    kind, _, rest = text.partition(":")
    vals = _floats(rest)
    try:
        if kind == "ball":
            if len(vals) < 2:
                raise ValueError("ball needs center coordinates and a radius")
            return SetShape.ball(vals[:-1], vals[-1])
        if kind == "point":
            return SetShape.point(vals)
        if kind == "sector":
            if len(vals) != 5:
                raise ValueError(f"sector needs 5 numbers, got {len(vals)}")
            return SetShape.sector(vals[:2], vals[2], vals[3], vals[4])
    except ValueError as e:
        raise ValueError(f"invalid shape {text!r}: {e}") from e
    raise ValueError(f"unknown shape kind {kind!r}")


def _num(v: float) -> str:
    """Shortest exact decimal form (repr) for deterministic output."""
    return repr(float(v))


def _nums(vs) -> str:
    return ",".join(_num(v) for v in vs)


def format_shape(s: SetShape) -> str:
    """The file form of a jumping phase: a ball or empty."""
    if s.is_empty:
        return "empty"
    if s.kind == "ball":
        return f"ball:{_nums(s.center)},{_num(s.radius)}"
    raise CliError(f"shape kind {s.kind!r} has no file representation")


def parse_domain(text: str) -> DomainSpec:
    """rect:lox,loy,hix,hiy | rect:a,b | disc:cx,cy,r"""
    kind, _, rest = text.strip().partition(":")
    vals = _floats(rest)
    try:
        if kind == "rect":
            half = len(vals) // 2
            return DomainSpec.rectangle(vals[:half], vals[half:])
        if kind == "disc":
            if len(vals) != 3:
                raise ValueError(f"disc needs 3 numbers, got {len(vals)}")
            return DomainSpec.disc(vals[:2], vals[2])
    except ValueError as e:
        raise ValueError(f"invalid domain {text!r}: {e}") from e
    raise ValueError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# Scenario file format
# ---------------------------------------------------------------------------

_F = (_finite, _num)
_FS = (_floats, _nums)
_I = (int, str)
_S = (str, str)
_SHAPE = (parse_shape, format_shape)

#: key -> (parse, format), alike in every section that reads the key
_KEYS = {
    "kind": _S, "lo": _FS, "hi": _FS, "center": _FS, "radius": _F,
    "resolution": _I, "lam": _F, "schedule": _S, "omega": _F, "theta0": _F,
    "theta1": _F, "k0": _SHAPE, "k1": _SHAPE, "period": _F, "t1": _F,
    "path": _S, "point": _FS, "velocity": _FS, "path_center": _FS,
    "path_radius": _F, "phase": _F, "t0": _F, "t_end": _F, "dt": _F,
    "value": _F, "height": _F, "sample_every": _I, "growth_cap": _F,
    "solve_tol": _F, "snapshot_times": _FS, "tau0_list": _FS, "gamma": _F,
    "carry_window": _F,
}
#: the sections, in emission order
_SECTIONS = ("domain", "equation", "kset", "time", "initial", "output",
             "predict")


class _Section(dict):
    """Typed values of one section, parsed from its strings (keys outside
    `_KEYS` are left to the unused-key rule); a malformed value and reading
    an absent key are user errors that name the key."""

    def __init__(self, name: str, strings: dict):
        self.name = name
        for key, v in strings.items():
            if key in _KEYS:
                try:
                    self[key] = _KEYS[key][0](v)
                except ValueError as e:
                    raise ValueError(f"[{name}] {key}: {e}") from e

    def __missing__(self, key):
        raise ValueError(f"missing required key {key!r} in [{self.name}]")

    def given(self, *keys) -> dict:
        """The keys present, so that an absent one takes the dataclass
        default."""
        return {key: self[key] for key in keys if key in self}


def config_to_scenario(cfg: dict, label: str,
                       expected_status: str = "CONSISTENT",
                       checked: dict | None = None) -> Scenario:
    """Build a scenario from a section->key->string mapping, and refuse
    every key of checked (default: all of cfg) that the scenario does not
    use, i.e. that its emission leaves out; snapshot_times counts as used."""
    try:
        d, eq, k, tm, i, o, pr = (_Section(sec, cfg.get(sec, {}))
                                  for sec in _SECTIONS)
        dkind = d.get("kind", "rectangle")
        if dkind == "rectangle":
            domain = DomainSpec.rectangle(d["lo"], d["hi"])
        elif dkind == "disc":
            domain = DomainSpec.disc(d["center"], d["radius"])
        else:
            raise ValueError(f"unknown domain kind {dkind!r}")
        moving = _kset_from_section(k)
        params = EquationParams(lam=eq["lam"], moving_set=moving)
        scheme = SchemeConfig(**tm.given("dt"),
                              **o.given("solve_tol", "growth_cap"))

        if i.get("kind") == "bump":
            initial = InitialData.bump(i["center"], i["radius"],
                                       i.get("height", 1.0))
        else:   # a constant uses no centre, but Scenario checks one's size
            initial = InitialData(i.get("kind", "constant"),
                                  i.get("value", 1.0), **i.given("center"))

        outputs = OutputPlan(**o.given("sample_every", "snapshot_times"))
        s = Scenario(label=label, domain=domain,
                     resolution=d.get("resolution", 64), params=params,
                     scheme=scheme, t0=tm.get("t0", 0.0), t_end=tm["t_end"],
                     initial=initial, outputs=outputs,
                     predict_plan=PredictPlan(**pr.given(
                         "tau0_list", "gamma", "carry_window")),
                     expected_status=expected_status)
    except ValueError as e:
        raise CliError(f"{label}: invalid scenario: {e}") from e
    used = scenario_to_config(s)
    used["output"]["snapshot_times"] = ""    # used also when empty
    unused = [f"[{sec}] {key}"
              for sec, keys in (cfg if checked is None else checked).items()
              for key in keys if key not in used.get(sec, {})]
    if unused:
        raise CliError(f"{label}: the scenario does not use "
                       + ", ".join(unused))
    return s


def _kset_from_section(k: _Section):
    kind = k.get("kind", "none")
    if kind == "none":
        return None
    if kind == "static-ball":
        return StaticSet(SetShape.ball(k["center"], k["radius"]))
    if kind == "radius-ball":
        return RadiusBall(k["center"], RadiusSchedule(
            k["schedule"], k["radius"], **k.given("omega")))
    if kind == "rotating-sector":
        return RotatingSector(k["center"], k["radius"], k.get("theta0", 0.0),
                              k["theta1"], k["omega"])
    if kind == "jumping":
        return JumpingSets(k["k0"], k["k1"], period=k["period"], t1=k["t1"])
    if kind == "translating-ball":
        path = k["path"]
        if path == "line":
            curve = PathSchedule(kind="line", point=k["point"],
                                 velocity=k["velocity"])
        elif path == "circle":
            curve = PathSchedule(kind="circle", center=k["path_center"],
                                 radius=k["path_radius"], omega=k["omega"],
                                 **k.given("phase"))
        else:
            raise ValueError(f"unknown path kind {path!r}")
        return TranslatingSet(k["radius"], curve)
    raise ValueError(f"unknown kset kind {kind!r}")


def scenario_to_config(s: Scenario) -> dict:
    """Canonical section->key->string mapping (inverse of config_to_scenario)."""
    d = s.domain
    if d.kind == "rectangle":
        domain = {"kind": "rectangle", "lo": d.lo, "hi": d.hi}
    else:
        domain = {"kind": "disc", "center": d.center, "radius": d.radius}
    domain["resolution"] = s.resolution
    equation = {"lam": s.params.lam}
    kset = _kset_to_values(s.params.moving_set)
    init = s.initial
    if init.kind == "constant":
        initial = {"kind": "constant", "value": init.value}
    else:
        initial = {"kind": "bump", "center": init.center,
                   "radius": init.radius, "height": init.value}
    output = {"sample_every": s.outputs.sample_every,
              "growth_cap": s.scheme.growth_cap,
              "solve_tol": s.scheme.solve_tol}
    if s.outputs.snapshot_times:
        output["snapshot_times"] = s.outputs.snapshot_times
    plan = {key: v for key, v in vars(s.predict_plan).items()
            if v is not None}
    if not isinstance(s.params.moving_set, TranslatingSet):
        plan.pop("carry_window", None)   # read for a translating set only
    values = {"domain": domain, "equation": equation, "kset": kset,
              "time": {"t0": s.t0, "t_end": s.t_end, "dt": s.scheme.dt},
              "initial": initial, "output": output, "predict": plan}
    return {sec: {key: _KEYS[key][1](v) for key, v in body.items()}
            for sec, body in values.items()}


def _kset_to_values(spec) -> dict:
    if spec is None:
        return {"kind": "none"}
    if isinstance(spec, StaticSet):
        if spec.base.kind != "ball":
            raise CliError("only ball static sets have a file form")
        return {"kind": "static-ball", "center": spec.base.center,
                "radius": spec.base.radius}
    if isinstance(spec, RadiusBall):
        sch = spec.schedule
        omega = {"omega": sch.omega} if sch.kind == "oscillating" else {}
        return {"kind": "radius-ball", "center": spec.center,
                "radius": sch.r0, "schedule": sch.kind, **omega}
    if isinstance(spec, RotatingSector):
        return {"kind": "rotating-sector", "center": spec.center,
                "radius": spec.r0, "theta0": spec.theta0,
                "theta1": spec.theta1, "omega": spec.omega}
    if isinstance(spec, JumpingSets):
        return {"kind": "jumping", "k0": spec.k0, "k1": spec.k1,
                "period": spec.period, "t1": spec.t1}
    if isinstance(spec, TranslatingSet):
        out = {"kind": "translating-ball", "radius": spec.radius}
        c = spec.curve
        if c.kind == "line":
            out.update(path="line", point=c.point, velocity=c.velocity)
        else:
            out.update(path="circle", path_center=c.center,
                       path_radius=c.radius, omega=c.omega, phase=c.phase)
        return out
    raise CliError(f"moving set {type(spec).__name__} has no file form")


def emit_scenario_ini(s: Scenario) -> str:
    cfg = scenario_to_config(s)
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in cfg[section].items())
        lines.append("")
    return "\n".join(lines)


def parse_scenario_file(path, overrides=None) -> Scenario:
    """Scenario file, with --set overrides applied before decoding."""
    path = Path(path)
    if not path.is_file():
        raise CliError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as e:
        raise CliError(f"{path}: syntax error: {e}") from e
    cfg = _apply_overrides({sec: dict(parser.items(sec))
                            for sec in parser.sections()}, overrides)
    return config_to_scenario(cfg, path.stem)


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides or ():
        if "=" not in item:
            raise CliError(f"override {item!r} must look like section.key=value")
        key, _, value = item.partition("=")
        if "." not in key:
            raise CliError(f"override key {key!r} must look like section.key")
        section, _, name = key.partition(".")
        cfg.setdefault(section, {})[name] = value
    return cfg


def resolve_scenario(ref: str, overrides=None) -> Scenario:
    """Registry label or scenario file path, with --set overrides applied."""
    reg = registry()
    if ref in reg:
        base = reg[ref]
        # only the --set keys are checked, so that one may switch a kind
        cfg = _apply_overrides(scenario_to_config(base), overrides)
        return config_to_scenario(cfg, base.label, base.expected_status,
                                  checked=_apply_overrides({}, overrides))
    if Path(ref).is_file():
        return parse_scenario_file(ref, overrides)
    raise CliError(f"unknown scenario label or missing file: {ref!r} "
                   f"(labels: {', '.join(reg)})")


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------


def emit_trajectory_csv(tr: Trajectory, path) -> None:
    lines = ["t,sup_norm,l2_norm,mass,cap_hit"]
    for t, sn, l2, m in zip(tr.times, tr.sup_norms, tr.l2_norms, tr.masses):
        hit = "1" if tr.cap_hit is not None and t >= tr.cap_hit else ""
        lines.append(f"{_num(t)},{_num(sn)},{_num(l2)},{_num(m)},{hit}")
    Path(path).write_text("\n".join(lines) + "\n")


def emit_snapshots(tr: Trajectory, out_dir: Path) -> None:
    display_max = max((float(np.max(np.abs(a))) for _, a in tr.snapshots),
                      default=0.0)
    if display_max <= 0.0:
        display_max = 1.0
    for i, (t, a) in enumerate(tr.snapshots):
        write_pgm(a, out_dir / f"snapshot_{i:03d}.pgm", display_max)
        with open(out_dir / f"snapshot_{i:03d}.pgm.txt", "a") as fh:
            fh.write(f"t = {_num(t)}\n")


def checks_table(checks) -> str:
    lines = [f"{'check':32s} {'fires':6s} {'predicts':9s} details",
             "-" * 78]
    for c in checks:
        det = "; ".join(f"{k}={_fmt_detail(v)}" for k, v in c.details)
        lines.append(f"{c.name:32s} {str(c.hypotheses_hold).lower():6s} "
                     f"{c.predicted:9s} {det}")
    return "\n".join(lines)


def _fmt_detail(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt_detail(x) for x in v) + ")"
    return str(v)


def crosscheck_text(rep: CrossCheckReport) -> str:
    head = (f"scenario {rep.label}: predicted={rep.predicted} "
            f"verdict={rep.verdict.kind} status={rep.status}")
    return "\n".join([head, f"  evidence: {rep.verdict.evidence}",
                      checks_table(rep.checks)])


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def scenario_row(s: Scenario, rep: CrossCheckReport) -> tuple:
    """One row of the suite's scenarios section."""
    return (s.label, rep.predicted, rep.verdict.kind, rep.status,
            s.expected_status, rep.verdict.evidence)


def _crosscheck_label(label: str) -> tuple:
    s = registry()[label]
    return scenario_row(s, cross_check(s))


def suite_scenarios(jobs: int = 1):
    """Cross-check every registry scenario; rows in registry order."""
    labels = list(registry())
    if jobs > 1:
        with multiprocessing.Pool(min(jobs, len(labels))) as pool:
            return pool.map(_crosscheck_label, labels)
    return [_crosscheck_label(lb) for lb in labels]


def suite_report(name: str, jobs: int):
    """(text report, csv report, exit code) for a suite."""
    scenario_rows = suite_scenarios(jobs) if name != "properties" else None
    property_rows = suite_properties() if name != "paper-examples" else None
    return render_suite(name, scenario_rows, property_rows)


def render_suite(name: str, scenario_rows, property_rows):
    """(text report, csv report, exit code) from computed rows; a section
    whose rows are None is left out.  The exit code is 1 when a scenario
    reads VIOLATION or a property fails."""
    text = [f"suite: {name}", ""]
    csv = ["suite,row,status,detail"]
    code = 0
    if scenario_rows is not None:
        text += [f"{'label':22s} {'predicted':9s} {'verdict':12s} "
                 f"{'status':11s} expected", "-" * 72]
        for label, predicted, verdict, status, expected, _ in scenario_rows:
            text.append(f"{label:22s} {predicted:9s} {verdict:12s} "
                        f"{status:11s} {expected}")
            csv.append(f"scenarios,{label},{status},"
                       f"predicted={predicted};verdict={verdict};"
                       f"expected={expected}")
            if status == "VIOLATION":
                code = 1
        text.append("")
    if property_rows is not None:
        text += [f"{'check':32s} {'result':7s} detail", "-" * 72]
        for cname, ok, detail in property_rows:
            result = "PASS" if ok else "FAIL"
            text.append(f"{cname:32s} {result:7s} {detail}")
            csv.append(f"properties,{cname},{result},{detail}")
            if not ok:
                code = 1
        text.append("")
    return "\n".join(text), "\n".join(csv) + "\n", code


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _require_records(tr: Trajectory) -> None:
    """classify() reads a verdict off at least MIN_RECORDS records."""
    if len(tr.times) < MIN_RECORDS:
        raise CliError(f"the run wrote {len(tr.times)} records (last at "
                       f"t={tr.times[-1]:g}); a verdict needs at least "
                       f"{MIN_RECORDS}")


def _cmd_run(args) -> int:
    s = resolve_scenario(args.scenario, args.set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tr = run_scenario(s)
    emit_trajectory_csv(tr, out / "trajectory.csv")
    emit_snapshots(tr, out)
    (out / "scenario.ini").write_text(emit_scenario_ini(s))
    _require_records(tr)
    verdict = classify(tr)
    unserved = _nums(tr.unserved_snapshots)
    note = f"unserved_snapshots = {unserved}" if unserved else ""
    (out / "verdict.txt").write_text(
        f"label = {s.label}\nverdict = {verdict.kind}\n"
        f"evidence = {verdict.evidence}\n" + (note and note + "\n"))
    print(f"{s.label}: {verdict.kind} ({len(tr.times)} records) -> {out}"
          + (note and "; " + note))
    return 0


def _cmd_predict(args) -> int:
    s = resolve_scenario(args.scenario, args.set)
    print(checks_table(predict(s)))
    return 0


def _cmd_crosscheck(args) -> int:
    s = resolve_scenario(args.scenario, args.set)
    tr = run_scenario(s)
    _require_records(tr)
    rep = cross_check(s, tr)
    print(crosscheck_text(rep))
    return 1 if rep.status == "VIOLATION" else 0


def _cmd_eig(args) -> int:
    try:
        grid = build_grid(parse_domain(args.domain), args.n)
        mask = grid.mask if args.shape is None else \
            mask_from_shape(grid, parse_shape(args.shape))
        print(f"lambda1 = {_num(principal_eigenvalue(grid, mask))}")
        if args.second:
            print(f"lambda2 = {_num(second_eigenvalue(grid, mask))}")
    except ValueError as e:
        raise CliError(str(e)) from e
    return 0


def _cmd_lambda0(args) -> int:
    try:
        est = lambda0_of_set(build_grid(parse_domain(args.domain), args.n),
                             parse_shape(args.shape))
    except ValueError as e:
        raise CliError(str(e)) from e
    for d, v in zip(est.deltas, est.values):
        print(f"delta = {d:.8g}  lambda1 = {_num(v)}")
    print(f"verdict = {est.verdict}")
    print(f"lambda0 = {_num(est.value) if est.is_finite else 'inf'}")
    return 0


def _cmd_suite(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    text, csv, code = suite_report(args.name, args.jobs)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text + "\n")
        (out / "report.csv").write_text(csv)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenlog",
        description="Simulation laboratory for the degenerate logistic "
                    "equation with a moving vanishing set.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_args(p):
        p.add_argument("scenario", help="registry label or scenario file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a scenario file key")

    p = sub.add_parser("run", help="simulate and write CSV/PGM outputs")
    scenario_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("predict", help="evaluate the criteria on a scenario")
    scenario_args(p)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("crosscheck",
                       help="confront prediction with simulation")
    scenario_args(p)
    p.set_defaults(fn=_cmd_crosscheck)

    p = sub.add_parser("eig", help="principal Dirichlet eigenvalue")
    p.add_argument("--domain", required=True,
                   help="rect:lox,loy,hix,hiy | rect:a,b | disc:cx,cy,r")
    p.add_argument("--shape", help="ball:... | sector:... | point:... "
                                   "(defaults to the whole domain)")
    p.add_argument("--n", type=int, default=128, help="cells per axis")
    p.add_argument("--second", action="store_true",
                   help="also print the second eigenvalue")
    p.set_defaults(fn=_cmd_eig)

    p = sub.add_parser("lambda0",
                       help="characteristic value of a compact set")
    p.add_argument("--domain", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--n", type=int, default=128)
    p.set_defaults(fn=_cmd_lambda0)

    p = sub.add_parser("suite", help="run an acceptance suite")
    p.add_argument("name", choices=("paper-examples", "properties", "all"))
    p.add_argument("--out", help="directory for report.txt / report.csv")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel scenario workers")
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.

    0 on success, 1 on a failed check (a VIOLATION, a failing property), 2
    on a user error, and 141 (128 + SIGPIPE, as a shell reports a writer
    killed by a closed pipe) when the reader of standard output closes it
    early: the rest of the output goes to os.devnull and no traceback is
    printed.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # a closed reader shows up here when standard output is buffered
        sys.stdout.flush()
        return code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        # so that it cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
