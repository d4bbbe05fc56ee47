"""Command-line surface: mini-language parsing, scenario files, outputs."""

import hashlib
import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import degenlog
from degenlog import cli
from degenlog.cli import (CliError, config_to_scenario, emit_scenario_ini,
                          emit_trajectory_csv, format_shape, main,
                          parse_domain, parse_scenario_file, parse_shape,
                          resolve_scenario, scenario_to_config)
from degenlog.evolve import Trajectory
from degenlog.geometry import SetShape, StaticSet
from degenlog.scenarios import registry

TINY_INI = """\
[domain]
kind = rectangle
lo = 0,0
hi = 1,1
resolution = 16

[equation]
lam = 2.0
rho = 2.0
nu_kind = saturating
nu_max = 1.0
d_ramp = 0.05
n_empty = 1.0

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


REGISTRY_INI_SHA256 = {
    "trichotomy-low":
        "99f708e4cc7302856929d5fb07c2ceb36f6aead8e7aded71a83c10949bccfc33",
    "trichotomy-mid":
        "39d16d158018ce22d9409999feb7c6926dc94dbcb2a41adb74e1b81e1703d2ac",
    "trichotomy-high":
        "138ca1bed8e1835871abaf1ae99ef3019eacfe15be0522599bbc9edee4298113",
    "shrink-case1":
        "af94c0200a20308210edb080850403492702e30812a9f076a0d2a72f5e793e55",
    "shrink-case2":
        "c703b0476b848898fb6803018c7eddae5550b73119bca3816327fdcb0b2c6a8a",
    "shrink-case3":
        "1f7d93e9b46171c66d2185b8942dc36a92f326f31993a00adb250d7e5a125266",
    "rotating-slow":
        "b7314185531d968726a013800eb7a46c500de345d9fec9d55ba1707d814a037e",
    "rotating-fast":
        "fa1baf391f7463bd3af65f9c909b204823c125f434ddff77cc418ed947ddbbcd",
    "jumping-disjoint":
        "c12faf3d6c421aef29d71b211f35ff04cc6204d090e5f2acea45cd0b3d7b69bd",
    "jumping-control":
        "3e75a7c880e7aac9f9064f8618b63e4749165275cf0be187c23c9ee722416399",
    "translating-slow":
        "77a40987326d2b328493eba9be5aa411eedff96e20858fa37a022a3009ccce64",
    "carried-growth":
        "39eb4fbebe70a9d49372fa0673dde7eaacbff29407eadf330cb2a7c86f3528b6",
    "intermittent":
        "e9df74d6bb5f00b1a78fcfa301df33a712a07534a6be4a0cf4d478b9e493381c",
    "alternating-nested":
        "eefa30ce840e098b488828c5918d7d223365e870d80a37e0ee7d9b1c7b8107f0",
}


class TestShapeLanguage:
    def test_ball_roundtrip(self):
        s = parse_shape("ball:0.5,0.5,0.2")
        assert s.kind == "ball" and s.radius == 0.2
        assert parse_shape(format_shape(s)) == s

    def test_sector_and_point_and_empty(self):
        sec = parse_shape("sector:0,0,1,0,1.5")
        assert sec.kind == "sector"
        assert parse_shape(format_shape(sec)) == sec
        pt = parse_shape("point:0.3,0.4")
        assert pt.kind == "ball" and pt.radius == 0.0
        assert parse_shape(format_shape(pt)) == pt
        assert parse_shape("empty").is_empty

    def test_malformed(self):
        for bad in ("ball", "ball:a,b,c", "blob:1,2,3", "ball:0.5",
                    "ball:0.5,0.5,nan", "point:inf,0"):
            with pytest.raises(CliError):
                parse_shape(bad)


class TestDomainLanguage:
    def test_rect_interval_disc(self):
        assert parse_domain("rect:0,0,2,1").kind == "rectangle"
        assert parse_domain("rect:0,3").dim == 1
        d = parse_domain("disc:0,0,1.5")
        assert d.kind == "disc" and d.radius == 1.5

    def test_malformed(self):
        for bad in ("rect:0,0,2", "disc:0,0", "torus:1,2,3", "interval:0,3"):
            with pytest.raises(CliError):
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

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(TINY_INI + "\n[time]\nspeed = 3\n")
        with pytest.raises((CliError, Exception)):
            parse_scenario_file(p)

    def test_unknown_key_named_in_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(TINY_INI.replace("t_end = 0.3", "t_end = 0.3\nwarp = 1"))
        with pytest.raises(CliError, match="warp"):
            parse_scenario_file(p)

    def test_missing_file(self):
        with pytest.raises(CliError, match="not found"):
            parse_scenario_file("/no/such/file.ini")

    def test_registry_scenarios_roundtrip(self):
        for label, s in registry().items():
            cfg = scenario_to_config(s)
            s2 = config_to_scenario(cfg, label, s.expected_status, s.hints)
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

    def test_lambda0_point_infinite(self, capsys):
        assert main(["lambda0", "--domain", "rect:0,0,1,1",
                     "--shape", "point:0.5,0.5", "--n", "64",
                     "--cap", "1e4"]) == 0
        out = capsys.readouterr().out
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
        "domain.kind=annulus"])
    def test_run_rejects_bad_outputs(self, override, tmp_path, capsys):
        assert main(["run", "trichotomy-mid", "--set", "time.t_end=0.2",
                     "--set", override, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: trichotomy-mid: invalid scenario:" in err

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
         "t > -1")])
    def test_scenario_refused(self, argv, error, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.chdir(tmp_path)
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
          "--shape", "ball:0.5,0.3"], "1-d ball"),
        (["lambda0", "--domain", "rect:0,0,1,1", "--n", "16",
          "--shape", "point:0.5,0.5", "--cap", "nan"], "finite and positive"),
        (["lambda0", "--domain", "rect:0,0,1,1", "--n", "16",
          "--shape", "point:0.5,0.5", "--cap", "-1"], "finite and positive"),
        (["lambda0", "--domain", "rect:0,0,1,1", "--n", "16",
          "--shape", "point:0.5,0.5", "--cap", "inf"], "finite and positive")])
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

    def test_predict_single_node_sanctuary(self, capsys):
        assert main(["predict", "trichotomy-mid",
                     "--set", "kset.radius=0.02"]) == 0
        out = capsys.readouterr().out
        assert "growth rate below the set's principal eigenvalue" in out

    def test_cli_error_exit_code(self, tmp_path, capsys):
        assert main(["run", "no-such-label", "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_below_one(self, capsys):
        assert main(["suite", "properties", "--jobs", "0"]) == 2
        assert "error: --jobs must be at least 1" in capsys.readouterr().err

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


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(degenlog.__path__)))
def test_exports_resolve(name):
    module = importlib.import_module(f"degenlog.{name}")
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []
