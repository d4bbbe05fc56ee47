"""Command-line surface: mini-language parsing, scenario files, outputs."""

import hashlib
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import degenlog
from degenlog import cli
from degenlog.cli import (CliError, config_to_scenario, emit_scenario_ini,
                          emit_trajectory_csv, format_shape, main,
                          parse_domain, parse_scenario_file, parse_shape,
                          resolve_scenario, scenario_to_config)
from degenlog.evolve import EquationParams, SchemeConfig, Trajectory
from degenlog.geometry import SetShape, StaticSet
from degenlog.scenarios import OutputPlan, predict, registry, scenario_grid

TINY_INI = """\
[domain]
kind = rectangle
lo = 0,0
hi = 1,1
resolution = 16

[equation]
lam = 2.0

[kset]
kind = static-ball
center = 0.5,0.5
radius = 0.2

[time]
t0 = 0.0
t_end = 0.3
dt = 0.002

[initial]
kind = constant
value = 1.0

[output]
sample_every = 2
growth_cap = 100.0
"""

# a ball of radius 0.3 carried along a line of the 1-d domain [0, 2]
LINE_1D_INI = """\
[domain]
lo = 0
hi = 2
resolution = 32

[equation]
lam = 5.0

[kset]
kind = translating-ball
radius = 0.3
path = line
point = 0.6
velocity = 0.05

[time]
t_end = 4.0
"""

# a sector of rotating-slow turning 1e-5 radians over [0, 10], whose arc
# passes theta = 0 at x = 1.5 + radius; with --set kset.radius=...
GRAZING_SECTOR = ["--set", "kset.center=1.5,1.0", "--set", "kset.theta0=-0.5",
                  "--set", "kset.theta1=0.501", "--set", "kset.omega=0.000001",
                  "--set", "domain.resolution=16"]

# files that test_scenario_refused writes into its working directory
SCENARIO_FILES = {
    # a circle path is 2-d, and so is its centre
    "circle1d.ini": LINE_1D_INI.replace(
        "path = line\npoint = 0.6\nvelocity = 0.05",
        "path = circle\npath_center = 1.0\npath_radius = 0.2\nomega = 1.0"),
    # a sector is 2-d, whatever the dimension of its centre
    "sector1d.ini": LINE_1D_INI.replace(
        "translating-ball\nradius = 0.3\npath = line\npoint = 0.6\n"
        "velocity = 0.05",
        "rotating-sector\ncenter = 1.0\nradius = 0.3\ntheta1 = 1.0\n"
        "omega = 1.0"),
    # the translating ball once took its centre offset from [kset] center
    "old-translating.ini": TINY_INI.replace(
        "kind = static-ball\ncenter = 0.5,0.5\nradius = 0.2",
        "kind = translating-ball\ncenter = 0.0,0.0\nradius = 0.2\n"
        "path = line\npoint = 0.5,0.5\nvelocity = 0.1,0.0"),
    # the shape of n(t, x) off K(t) is fixed, not a scenario input
    "ramp.ini": TINY_INI.replace("lam = 2.0", "lam = 2.0\nd_ramp = 0.1"),
    # the logistic exponent is fixed, not a scenario input
    "rho.ini": TINY_INI.replace("lam = 2.0", "lam = 2.0\nrho = 3"),
    # a section that no scenario reads
    "bar.ini": TINY_INI + "\n[bar]\nx = 1\n",
}


REGISTRY_INI_SHA256 = {
    "trichotomy-low":
        "4477e47016e464304e3426d0a365d270834b9303ec843bb7d8de6cc88dec5f4d",
    "trichotomy-mid":
        "4d7581c5f16779888a9d3914b3068bedf238788e30fca9eefe2df477e583ed81",
    "trichotomy-high":
        "bdde5b7c3252a2a6146934991be9f761e51d6a284b6f74835a19970f6918a88f",
    "shrink-case1":
        "7247050689a0b7cf318067a19cb3cc7aef35b7cd0721cc99f4330dce0719a553",
    "shrink-case2":
        "afb352aabd424f7e4cabe1786ed185cce4d1f9db8e1e4fec6c60907b2aeaf7b9",
    "shrink-case3":
        "3332335d4135a96076a4746dc5bcd6973312a92b664f9711ef4ce83031e5aeee",
    "rotating-slow":
        "d544c6691d95fe79c4e001546ee374d4b482e1ab613b2471ccd4cb8f5654bae9",
    "rotating-fast":
        "4d7caa20c5770166b800b6c835862c01c4495e92431136e4e663e513cc7fd563",
    "jumping-disjoint":
        "0fd844e71470e612e18a0bfb0af79fa1803ab03c38b28d4cda8b8105b6e316f4",
    "jumping-control":
        "88ee029d9d553d7d33d1aa3905067efcd04450fa75d6b9fea2cdb19c5fba3144",
    "translating-slow":
        "b5aa160965af44773937fc44a421068d5b671e91eb2f4df5f6b9a1f3de589d53",
    "carried-growth":
        "512426019b2b0fe92467d1c7543c342eb38a10cf2dcff31226627cce551f8400",
    "intermittent":
        "f476271a452ececeaf6658fb8f4f63b1f20cbd3d83d6c98e7ab820a7331aca98",
    "alternating-nested":
        "20b3feac8e2f128fa7f10d09f9d4de91c22c7bb7e0567c5e421f09d4d95bbc18",
}


class TestShapeLanguage:
    def test_ball_roundtrip(self):
        s = parse_shape("ball:0.5,0.5,0.2")
        assert s.kind == "ball" and s.radius == 0.2
        assert parse_shape(format_shape(s)) == s

    def test_sector_and_point_and_empty(self):
        sec = parse_shape("sector:0,0,1,0,1.5")
        assert sec == SetShape.sector((0.0, 0.0), 1.0, 0.0, 1.5)
        # format_shape writes jumping phases, which are balls or empty
        with pytest.raises(CliError, match="no file representation"):
            format_shape(sec)
        pt = parse_shape("point:0.3,0.4")
        assert pt.kind == "ball" and pt.radius == 0.0
        assert parse_shape(format_shape(pt)) == pt
        assert parse_shape("empty").is_empty

    def test_malformed(self):
        for bad in ("ball", "ball:a,b,c", "blob:1,2,3", "ball:0.5",
                    "ball:0.5,0.5,nan", "point:inf,0",
                    "sector:1,1,0.5,0,1,42"):
            with pytest.raises(ValueError):
                parse_shape(bad)


class TestDomainLanguage:
    def test_rect_interval_disc(self):
        assert parse_domain("rect:0,0,2,1").kind == "rectangle"
        assert parse_domain("rect:0,3").dim == 1
        d = parse_domain("disc:0,0,1.5")
        assert d.kind == "disc" and d.radius == 1.5

    def test_malformed(self):
        for bad in ("rect:0,0,2", "disc:0,0", "torus:1,2,3", "interval:0,3",
                    "disc:0,0,1,9"):
            with pytest.raises(ValueError):
                parse_domain(bad)


class TestScenarioFiles:
    def test_parse_tiny_file(self, tmp_path):
        p = tmp_path / "tiny.ini"
        p.write_text(TINY_INI)
        s = parse_scenario_file(p)
        assert s.label == "tiny"
        assert s.params.lam == 2.0
        assert s.resolution == 16
        assert s.outputs.sample_every == 2

    def test_absent_keys_take_dataclass_defaults(self):
        s = config_to_scenario({
            "domain": {"kind": "rectangle", "lo": "0,0", "hi": "1,1"},
            "equation": {"lam": "2.0"},
            "kset": {"kind": "static-ball", "center": "0.5,0.5",
                     "radius": "0.2"},
            "time": {"t_end": "0.3"}}, "defaults")
        assert s.params == EquationParams(lam=2.0,
                                          moving_set=s.params.moving_set)
        assert s.scheme == SchemeConfig()
        assert s.outputs == OutputPlan()
        assert (s.scheme.dt, s.scheme.growth_cap,
                s.outputs.sample_every) == (0.002, 1e5, 10)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(TINY_INI.replace("[time]\n", "[time]\nspeed = 3\n"))
        with pytest.raises(CliError, match="speed"):
            parse_scenario_file(p)

    def test_unknown_key_named_in_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(TINY_INI.replace("t_end = 0.3", "t_end = 0.3\nwarp = 1"))
        with pytest.raises(CliError, match="warp"):
            parse_scenario_file(p)
        # the one-value nu_kind key is gone
        p.write_text(TINY_INI.replace("lam = 2.0", "lam = 2.0\nnu_kind = "
                                      "saturating"))
        with pytest.raises(CliError,
                           match=r"does not use \[equation\] nu_kind"):
            parse_scenario_file(p)

    def test_decoder_refuses_unused_key(self):
        # a direct call checks every key, not only those of a --set
        cfg = scenario_to_config(registry()["trichotomy-mid"])
        cfg["kset"]["omega"] = "5.0"
        with pytest.raises(CliError, match=r"does not use \[kset\] omega"):
            config_to_scenario(cfg, "trichotomy-mid")

    def test_missing_file(self):
        with pytest.raises(CliError, match="not found"):
            parse_scenario_file("/no/such/file.ini")

    def test_registry_scenarios_roundtrip(self):
        for label, s in registry().items():
            cfg = scenario_to_config(s)
            s2 = config_to_scenario(cfg, label, s.expected_status)
            assert s2 == s, label
            assert emit_scenario_ini(s2) == emit_scenario_ini(s), label

    def test_registry_emission_digests(self):
        # the emitted file format of every registry scenario must not drift
        digests = {label: hashlib.sha256(
            emit_scenario_ini(s).encode()).hexdigest()
            for label, s in registry().items()}
        assert digests == REGISTRY_INI_SHA256

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        p = tmp_path / "example.ini"
        p.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        s = parse_scenario_file(p)
        assert s.params.moving_set == StaticSet(SetShape.ball((0.5, 0.5), 0.2))
        assert s.outputs.snapshot_times == (0.0, 0.3)

    def test_emitted_ini_is_canonical(self, tmp_path):
        p = tmp_path / "tiny.ini"
        p.write_text(TINY_INI)
        s = parse_scenario_file(p)
        text = emit_scenario_ini(s)
        p2 = tmp_path / "tiny2.ini"
        p2.write_text(text)
        assert emit_scenario_ini(parse_scenario_file(p2)) == text


class TestResolveScenario:
    def test_registry_label(self):
        s = resolve_scenario("trichotomy-low")
        assert s.label == "trichotomy-low"

    def test_unknown_ref(self):
        with pytest.raises(CliError, match="unknown scenario"):
            resolve_scenario("no-such-label")

    def test_overrides(self):
        s = resolve_scenario("trichotomy-low", ["equation.lam=3.5",
                                               "time.t_end=1.0"])
        assert s.params.lam == 3.5
        assert s.t_end == 1.0

    def test_malformed_override(self):
        with pytest.raises(CliError):
            resolve_scenario("trichotomy-low", ["lam=3.5"])

    @pytest.mark.parametrize("overrides, field, kind", [
        (["domain.kind=disc", "domain.center=1,1", "domain.radius=1"],
         "domain", "disc"),
        (["initial.kind=bump", "initial.center=1,1", "initial.radius=0.3"],
         "initial", "bump")])
    def test_kind_switch_leaves_label_keys(self, overrides, field, kind):
        # the label's rectangle corners and constant value go unused, but
        # they are the label's own keys, not the user's
        s = resolve_scenario("trichotomy-mid", overrides)
        assert getattr(s, field).kind == kind

    def test_empty_snapshot_times_is_used(self, tmp_path):
        s = resolve_scenario("trichotomy-mid", ["output.snapshot_times="])
        assert s.outputs.snapshot_times == ()
        p = tmp_path / "tiny.ini"
        p.write_text(TINY_INI + "snapshot_times =\n")
        assert parse_scenario_file(p).outputs.snapshot_times == ()

    def test_file_override_fills_missing_key(self, tmp_path):
        p = tmp_path / "nolam.ini"
        p.write_text(TINY_INI.replace("lam = 2.0\n", ""))
        with pytest.raises(CliError, match="missing required key 'lam'"):
            resolve_scenario(str(p))
        s = resolve_scenario(str(p), ["equation.lam=3.0"])
        assert s.label == "nolam" and s.params.lam == 3.0


class TestTrajectoryCsv:
    def test_header_and_cap_column(self, tmp_path):
        tr = Trajectory(times=[0.0, 0.5, 1.0], sup_norms=[1.0, 2.0, 11.0],
                        l2_norms=[1.0, 1.5, 2.0], masses=[0.5, 0.6, 0.7],
                        cap_hit=1.0, growth_cap=10.0)
        path = tmp_path / "tr.csv"
        emit_trajectory_csv(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,sup_norm,l2_norm,mass,cap_hit"
        assert lines[1].endswith(",")        # empty cap flag before the hit
        assert lines[2].endswith(",")
        assert lines[3].endswith(",1")       # flagged from the hit onward

    def test_roundtrip_full_precision(self, tmp_path):
        vals = [1.0 / 3.0, math.pi, 2.0 / 7.0]
        tr = Trajectory(times=vals, sup_norms=vals, l2_norms=vals,
                        masses=vals, cap_hit=None, growth_cap=10.0)
        path = tmp_path / "tr.csv"
        emit_trajectory_csv(tr, path)
        rows = [line.split(",") for line in
                path.read_text().splitlines()[1:]]
        for row, t in zip(rows, vals):
            assert float(row[0]) == t        # repr round-trips exactly


class TestCommands:
    # snapshot and sidecar sha256s, pinned before grid.Field was deleted
    SNAPSHOT_SHA256 = {
        "snapshot_000.pgm":
            "e76fab1fa6b7a776d2b0edf7ab4cae66e4393cfed690bc7fdde3e0ba4f07dfcd",
        "snapshot_000.pgm.txt":
            "fa79ba114ed18bd019e5c6c5a72af84254c74a63605aac6742c71f63d012b970",
        "snapshot_001.pgm":
            "7df3395cc46651262768428bd6020251a46d4792f233ac3ee546adc522b0a9f1",
        "snapshot_001.pgm.txt":
            "ea9a3e6b5ab0569853f999a8f10ac7e5116ff702d924bad5ab60c25e06ff6609",
    }

    def test_eig_square(self, capsys):
        assert main(["eig", "--domain", "rect:0,0,1,1", "--n", "32",
                     "--second"]) == 0
        out = capsys.readouterr().out
        lines = dict(line.split(" = ") for line in out.splitlines())
        assert float(lines["lambda1"]) == pytest.approx(2 * math.pi ** 2,
                                                        rel=0.01)
        assert float(lines["lambda2"]) == pytest.approx(5 * math.pi ** 2,
                                                        rel=0.02)

    @pytest.mark.parametrize("n", ["16", "64"])
    def test_lambda0_point_infinite(self, n, capsys):
        # at n = 16 the ladder stops at lambda1 = 256 and extrapolates under
        # the cap; a point is infinite whatever its ladder reads
        assert main(["lambda0", "--domain", "rect:0,0,1,1",
                     "--shape", "point:0.5,0.5", "--n", n]) == 0
        out = capsys.readouterr().out
        assert out.count("delta = ") == 3
        assert "verdict = infinite" in out
        assert "lambda0 = inf" in out

    def test_run_writes_outputs(self, tmp_path, capsys):
        p = tmp_path / "tiny.ini"
        p.write_text(TINY_INI + "snapshot_times = 0.0,0.3\n")
        out_dir = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out_dir)]) == 0
        csv = (out_dir / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,sup_norm,l2_norm,mass,cap_hit"
        assert len(csv) == 1 + 76            # header + t0 + 150 steps / 2
        assert (out_dir / "scenario.ini").is_file()
        assert "verdict" in (out_dir / "verdict.txt").read_text()
        snap = out_dir / "snapshot_000.pgm"
        assert snap.read_bytes().startswith(b"P5\n")
        sidecar = (out_dir / "snapshot_000.pgm.txt").read_text()
        assert "display_max" in sidecar and "t = 0.0" in sidecar
        for name, digest in self.SNAPSHOT_SHA256.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() \
                == digest, name

    @pytest.mark.parametrize("override", [
        "output.snapshot_times=-1,99", "output.sample_every=0",
        "equation.lam=nan", "time.dt=nan", "time.t_end=inf",
        "output.growth_cap=nan", "kset.center=1.0",
        "kset.k0=ball:0.5,0.35", "kset.center=1.9,1.0", "initial.center=1.0",
        "kset.kind=radius-ball", "kset.kind=foo", "initial.kind=gauss",
        "domain.kind=annulus", "predict.gamma=1", "predict.carry_window=0",
        "predict.tau0_list=0.5,99", "predict.gamma=nan",
        "predict.tau0_list=", "kset.center=abc", "kset.k0=ball:a,b"])
    def test_run_rejects_bad_outputs(self, override, tmp_path, capsys):
        assert main(["run", "trichotomy-mid", "--set", "time.t_end=0.2",
                     "--set", override, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        # a static ball reads no k0, so a well-formed one is an unused key
        refusal = ("the scenario does not use [kset] k0"
                   if override == "kset.k0=ball:0.5,0.35"
                   else "invalid scenario:")
        assert f"error: trichotomy-mid: {refusal}" in err

    @pytest.mark.parametrize("argv, error", [
        (["predict", "trichotomy-mid", "--set", "kset.center=1.9,1.0"],
         "trichotomy-mid: invalid scenario: moving set leaves the domain"),
        (["run", "trichotomy-mid", "--set", "initial.kind=bump",
          "--set", "initial.center=0.01,0.01", "--set", "initial.radius=0.005",
          "--out", "out"],
         "trichotomy-mid: invalid scenario: initial data must not vanish"),
        (["predict", "shrink-case3", "--set", "kset.radius=0.6",
          "--set", "kset.omega=8.377580409572781"],
         "shrink-case3: invalid scenario: moving set leaves the domain"),
        (["predict", "rotating-slow", "--set", "kset.center=0.45,1.0",
          "--set", "kset.omega=20.106192982974676"],
         "rotating-slow: invalid scenario: moving set leaves the domain"),
        (["predict", "shrink-case2", "--set", "time.t0=-1"],
         "shrink-case2: invalid scenario: harmonic_shrink radius needs "
         "t > -1"),
        (["predict", "trichotomy-mid", "--set", "domain.resolution=4"],
         "trichotomy-mid: invalid scenario: need at least 8 cells per axis"),
        (["crosscheck", "trichotomy-mid", "--set", "domain.resolution=4"],
         "trichotomy-mid: invalid scenario: need at least 8 cells per axis"),
        (["predict", "shrink-case1", "--set", "kset.radius=-0.45"],
         "shrink-case1: invalid scenario: radius r0 must be nonnegative"),
        (["predict", "trichotomy-mid", "--set", "domain.resolution=16",
          "--set", "kset.omega=5"],
         "trichotomy-mid: the scenario does not use [kset] omega"),
        (["predict", "carried-growth", "--set", "kset.path_radius=0.3"],
         "carried-growth: the scenario does not use [kset] path_radius"),
        (["predict", "trichotomy-mid", "--set", "initial.height=2"],
         "trichotomy-mid: the scenario does not use [initial] height"),
        (["predict", "trichotomy-mid", "--set", "domain.radius=1"],
         "trichotomy-mid: the scenario does not use [domain] radius"),
        (["predict", "trichotomy-mid", "--set", "kset.kind=none",
          "--set", "equation.nu_max=2"],
         "trichotomy-mid: the scenario does not use [equation] nu_max"),
        (["predict", "old-translating.ini"],
         "old-translating: the scenario does not use [kset] center"),
        (["predict", "circle1d.ini"],
         "circle1d: invalid scenario: a circle path is 2-d, not 1-d"),
        (["predict", "sector1d.ini"],
         "sector1d: invalid scenario: moving set is 2-d in a 1-d domain"),
        (["predict", "ramp.ini"],
         "ramp: the scenario does not use [equation] d_ramp"),
        (["predict", "trichotomy-mid", "--set", "time.t_end=0.3011"],
         "trichotomy-mid: invalid scenario: t_end - t0 = 0.3011 is not a "
         "whole number of steps dt = 0.002"),
        (["predict", "rho.ini"],
         "rho: the scenario does not use [equation] rho"),
        (["predict", "bar.ini"], "bar: the scenario does not use [bar] x"),
        # an approach schedule reads no omega
        (["predict", "shrink-case1", "--set", "kset.omega=5"],
         "shrink-case1: the scenario does not use [kset] omega"),
        # only a translating set reads the carry window
        (["predict", "trichotomy-mid", "--set", "predict.carry_window=3"],
         "trichotomy-mid: the scenario does not use [predict] carry_window"),
        # the arc reaches x = 2.000005 between its ends, at theta = 0
        (["predict", "rotating-slow"] + GRAZING_SECTOR + [
            "--set", "kset.radius=0.500005"],
         "rotating-slow: invalid scenario: moving set leaves the domain"),
        (["predict", "jumping-disjoint", "--set",
          "kset.k0=sector:0.5,0.5,0.3,0,1"],
         "jumping-disjoint: invalid scenario: jumping phase k0 is a sector"),
        # a malformed value names its key, used by the scenario or not
        (["predict", "trichotomy-mid", "--set", "equation.center=abc"],
         "trichotomy-mid: invalid scenario: [equation] center: expected "
         "comma-separated finite numbers, got 'abc'"),
        (["predict", "trichotomy-mid", "--set", "domain.resolution=1.5"],
         "trichotomy-mid: invalid scenario: [domain] resolution: invalid "
         "literal for int()"),
        # phases of the wrong dimension are the scenario's to refuse
        (["predict", "jumping-disjoint", "--set", "kset.k0=ball:0.5,0.35",
          "--set", "kset.k1=ball:1.5,0.2"],
         "jumping-disjoint: invalid scenario: moving set is 1-d in a 2-d "
         "domain")])
    def test_scenario_refused(self, argv, error, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in SCENARIO_FILES.items():
            (tmp_path / name).write_text(text)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and error in captured.err

    @pytest.mark.parametrize("argv, error", [
        (["eig", "--domain", "rect:0,0,1,1", "--n", "4"], "8 cells"),
        (["eig", "--domain", "rect:0,0,1,1", "--n", "16",
          "--shape", "ball:5,5,0.1"], "nonempty mask"),
        (["lambda0", "--domain", "rect:0,0,1,1", "--n", "16",
          "--shape", "empty"], "empty set"),
        (["eig", "--domain", "rect:0,0,1,1", "--n", "16",
          "--shape", "ball:0.5,0.3"], "1-d ball")])
    def test_spectral_bad_input(self, argv, error, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and error in err

    def test_run_too_few_records(self, tmp_path, capsys):
        assert main(["run", "trichotomy-mid", "--set", "time.t_end=0.2",
                     "--out", str(tmp_path)]) == 2
        assert "error: the run wrote 11 records (last at t=0.2); a verdict " \
            "needs at least 50" in capsys.readouterr().err
        assert (tmp_path / "trajectory.csv").is_file()
        assert not (tmp_path / "verdict.txt").exists()

    def test_crosscheck_too_few_records(self, capsys):
        # the growth cap stops the run after 5 records
        assert main(["crosscheck", "trichotomy-high",
                     "--set", "output.sample_every=50"]) == 2
        assert "error: the run wrote 5 records (last at t=0.4); a verdict " \
            "needs at least 50" in capsys.readouterr().err

    def test_predict_prints_table(self, capsys):
        assert main(["predict", "trichotomy-low"]) == 0
        out = capsys.readouterr().out
        assert "check" in out and "predicts" in out

    def test_predict_sector_just_inside(self, capsys):
        # the twin of the grazing sector refused above, 5e-6 inside
        assert main(["predict", "rotating-slow"] + GRAZING_SECTOR + [
            "--set", "kset.radius=0.499995"]) == 0
        assert "envelope-bounded" in capsys.readouterr().out

    @pytest.mark.parametrize("label", ["carried-growth", "shrink-case1",
                                       "alternating-nested"])
    def test_predict_emitted_file_matches_label(self, label, tmp_path,
                                                capsys):
        # the [predict] keys carry the label's carry window, tau0 list and
        # gamma into the file that `run` writes
        p = tmp_path / f"{label}.ini"
        p.write_text(emit_scenario_ini(registry()[label]))
        tables = []
        for ref in (label, str(p)):
            assert main(["predict", ref]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[1] == tables[0]

    def test_predict_translating_ball_in_1d(self, tmp_path):
        p = tmp_path / "line1d.ini"
        p.write_text(LINE_1D_INI)
        s = parse_scenario_file(p)
        assert s.params.moving_set.snapshot(2.0) == SetShape.ball((0.7,), 0.3)
        names = [c.name for c in predict(s, scenario_grid(s))]
        label = registry()["translating-slow"]
        assert names == [c.name for c in predict(label, scenario_grid(label))]

    def test_run_names_unserved_snapshots(self, tmp_path, capsys):
        # the growth cap stops the run at t = 0.296, before two of the three
        # requested snapshots
        assert main(["run", "trichotomy-high", "--set", "domain.resolution=16",
                     "--set", "output.snapshot_times=0,1,3",
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            f"trichotomy-high: grow_up (75 records) -> {tmp_path}; "
            "unserved_snapshots = 1.0,3.0\n")
        verdict = (tmp_path / "verdict.txt").read_text()
        assert verdict.endswith("\nunserved_snapshots = 1.0,3.0\n")
        assert sorted(p.name for p in tmp_path.glob("*.pgm")) == \
            ["snapshot_000.pgm"]

    def test_predict_single_node_sanctuary(self, capsys):
        assert main(["predict", "trichotomy-mid",
                     "--set", "kset.radius=0.02"]) == 0
        out = capsys.readouterr().out
        assert "growth rate below the set's principal eigenvalue" in out

    @pytest.mark.parametrize("sets, check", [
        # the carried-growth set E covers no node
        (["trichotomy-mid", "--set", "kset.radius=0.005",
          "--set", "kset.center=1.01,1.01"], "carried-growth"),
        # the nested small ball covers no node
        (["alternating-nested", "--set", "domain.resolution=32",
          "--set", "kset.k1=ball:1.031,1.031,0.04"],
         "alternating-nested-growth")])
    def test_predict_set_without_nodes(self, sets, check, capsys):
        assert main(["predict"] + sets) == 0
        row = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith(check + " ")]
        assert row and "reason=set covers no lattice node" in row[0]

    def test_predict_refuses_unreachable_solve_tol(self, capsys):
        assert main(["predict", "trichotomy-mid",
                     "--set", "output.solve_tol=0"]) == 2
        assert "error: trichotomy-mid: invalid scenario: solve_tol must be " \
            "positive" in capsys.readouterr().err

    def test_cli_error_exit_code(self, tmp_path, capsys):
        assert main(["run", "no-such-label", "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_below_one(self, capsys):
        assert main(["suite", "properties", "--jobs", "0"]) == 2
        assert "error: --jobs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs, processes", [(3, 3), (64, 14)])
    def test_jobs_capped_at_labels(self, jobs, processes, monkeypatch):
        started = []

        class Pool:     # records its size and starts no process
            def __init__(self, n):
                started.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, labels):
                return []

        monkeypatch.setattr(cli.multiprocessing, "Pool", Pool)
        assert cli.suite_scenarios(jobs) == []
        assert started == [processes]

    def test_failing_property_exits_1(self, properties, tmp_path,
                                      monkeypatch, capsys):
        name = "linear-sup-norm-bound"
        rows = [(n, ok and n != name, d) for n, ok, d in properties]
        monkeypatch.setattr(cli, "suite_properties", lambda: rows)
        assert main(["suite", "properties", "--out", str(tmp_path)]) == 1
        text = (tmp_path / "report.txt").read_text()
        assert f"{name:32s} FAIL " in text
        assert text.count("FAIL") == 1
        csv = (tmp_path / "report.csv").read_text().splitlines()
        assert [line for line in csv if ",FAIL," in line] == \
            [f"properties,{n},FAIL,{d}" for n, _, d in rows if n == name]


def _child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(degenlog.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **extra,
            "PYTHONPATH": src if not path else src + os.pathsep + path}


class TestProcess:
    def test_closed_reader_exits_quietly(self):
        # lambda2 of the 191 x 191 square takes about 0.15 s, so the reader
        # has closed before the second line is written, unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "degenlog.cli", "eig",
             "--domain", "rect:0,0,1,1", "--n", "192", "--second"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_child_env(PYTHONUNBUFFERED="1"))
        try:
            assert proc.stdout.readline().startswith(b"lambda1 = ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""   # no traceback

    def test_import_skips_ndimage_and_spatial(self):
        code = ("import sys, degenlog.cli; print(sorted(m for m in "
                "('scipy.ndimage', 'scipy.spatial') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout == "[]\n"


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(degenlog.__path__)))
def test_exports_resolve(name):
    module = importlib.import_module(f"degenlog.{name}")
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []
