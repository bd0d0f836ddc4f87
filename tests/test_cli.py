import os
import subprocess
import sys

import numpy as np
import pytest

import cascade_at as ca
from cascade_at import doppler
from cascade_at.cli import run
from cascade_at.msublevel import weights

CLI = [sys.executable, "-m", "cascade_at"]


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.setdefault("CASCADE_AT_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + args, capture_output=True, text=True,
                          env=env, cwd=cwd)


def small_scan(path, tmp, extra_scan=()):
    """Preset scenario shrunk to a fast grid."""
    dump = run_cli(["preset", "case-a"])
    assert dump.returncode == 0
    text = dump.stdout
    text = text.replace("delta1_start = -1500.0", "delta1_start = -300.0")
    text = text.replace("delta1_stop = 1500.0", "delta1_stop = 300.0")
    text = text.replace("delta1_step = 5.0", "delta1_step = 20.0")
    lines = text.splitlines()
    for repl in extra_scan:
        key = repl.split("=")[0].strip()
        lines = [repl if l.split("=")[0].strip() == key else l for l in lines]
    p = tmp / path
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestSpectrumCommand:
    def test_csv_structure(self, tmp_path):
        scen = small_scan("a.ini", tmp_path)
        out = tmp_path / "spec.csv"
        res = run_cli(["spectrum", "--scenario", scen, "--engine", "perturbative",
                       "--observable", "both", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cascade-at v1 spectrum ")
        assert lines[1] == "delta1_mhz,I2,I3"
        assert len(lines) == 2 + 31          # 31 grid points
        first = lines[2].split(",")
        assert float(first[0]) == -300.0
        assert float(first[2]) > 0

    def test_normalize_peak(self, tmp_path):
        scen = small_scan("a.ini", tmp_path)
        out = tmp_path / "n.csv"
        res = run_cli(["spectrum", "--scenario", scen, "--engine", "perturbative",
                       "--observable", "I3", "--normalize", "peak",
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
        rows = np.loadtxt(str(out), delimiter=",", skiprows=2)
        assert rows[:, 1].max() == pytest.approx(1.0, abs=1e-9)

    def test_preset_flag_runs(self, tmp_path):
        out = tmp_path / "b.csv"
        res = run_cli(["spectrum", "--preset", "case-b", "--engine", "analytic",
                       "--observable", "I3", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        rows = np.loadtxt(str(out), delimiter=",", skiprows=2)
        assert rows.shape == (601, 2)

    def test_msum_flag(self, tmp_path):
        scen = small_scan("a.ini", tmp_path)
        o1, o2 = tmp_path / "off.csv", tmp_path / "on.csv"
        for out, flag in ((o1, "off"), (o2, "on")):
            res = run_cli(["spectrum", "--scenario", scen, "--engine",
                           "perturbative", "--observable", "I3",
                           "--msum", flag, "--out", str(out)])
            assert res.returncode == 0, res.stderr
        off = np.loadtxt(str(o1), delimiter=",", skiprows=2)
        on = np.loadtxt(str(o2), delimiter=",", skiprows=2)
        assert on[:, 1].sum() > 2 * off[:, 1].sum()   # 39 components add up

    def test_one_analytic_call_per_m_weight(self, tmp_path, monkeypatch):
        calls = []
        original = doppler.average_analytic_I3

        def counting(scheme, drive, dopp, grid):
            calls.append(len(grid))
            return original(scheme, drive, dopp, grid)

        monkeypatch.setattr(doppler, "average_analytic_I3", counting)
        out = tmp_path / "a.csv"
        assert run(["spectrum", "--preset", "case-a", "--engine", "analytic",
                    "--observable", "I3", "--msum", "on", "--out", str(out)]) == 0
        scheme, _, _ = ca.preset("case_a")
        assert calls == [601] * len(weights(scheme.j2, scheme.j3).folded())


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        scen = small_scan("a.ini", tmp_path)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            res = run_cli(["spectrum", "--scenario", scen, "--engine", "full",
                           "--observable", "both", "--out", str(out)])
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_thread_count_invariant(self, tmp_path):
        scen = small_scan("a.ini", tmp_path)
        blobs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}.csv"
            res = run_cli(["spectrum", "--scenario", scen, "--engine", "full",
                           "--observable", "both", "--out", str(out)],
                          env_extra={"CASCADE_AT_THREADS": threads})
            assert res.returncode == 0, res.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_preset_roundtrip(self, tmp_path):
        # dumping the preset and reloading it reproduces the built-in result
        scen = tmp_path / "dump.ini"
        assert run_cli(["preset", "case-a", "--out", str(scen)]).returncode == 0
        direct = tmp_path / "direct.csv"
        loaded = tmp_path / "loaded.csv"
        args = ["--engine", "analytic", "--observable", "I3"]
        r1 = run_cli(["spectrum", "--preset", "case-a"] + args + ["--out", str(direct)])
        r2 = run_cli(["spectrum", "--scenario", str(scen)] + args + ["--out", str(loaded)])
        assert r1.returncode == 0 and r2.returncode == 0
        # identical data rows (the fingerprint line reflects input source)
        assert direct.read_text().splitlines()[1:] == \
            loaded.read_text().splitlines()[1:]


class TestThresholdCommands:
    def test_threshold_csv(self, tmp_path):
        scen = small_scan("a.ini", tmp_path,
                          ["x_start = -0.9", "x_stop = -0.3", "x_step = 0.3"])
        out = tmp_path / "thr.csv"
        res = run_cli(["threshold", "--scenario", scen, "--out", str(out)])
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[1] == "x,omega2_t_mhz,converged,region_two"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 3
        assert all(r[2] == "1" and r[3] == "1" for r in rows)
        assert all(float(r[1]) > 0 for r in rows)

    def test_surface_csv(self, tmp_path):
        scen = small_scan("a.ini", tmp_path,
                          ["x_start = -0.5", "x_stop = -0.5", "x_step = 1.0",
                           "dnu_start = 600.0", "dnu_stop = 1800.0",
                           "dnu_step = 600.0"])
        out = tmp_path / "surf.csv"
        res = run_cli(["surface", "--scenario", scen, "--out", str(out)])
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[1] == "x,dnu_mhz,omega2_t_mhz,converged"
        vals = [float(l.split(",")[2]) for l in lines[2:]]
        assert len(vals) == 3
        assert max(vals) / min(vals) - 1 < 0.02      # region II flatness


class TestErrorPaths:
    def test_missing_scenario_exits_2(self, tmp_path):
        res = run_cli(["spectrum", "--scenario", str(tmp_path / "missing.toml")])
        assert res.returncode == 2
        assert "not found" in res.stderr

    def test_unknown_key_rejected(self, tmp_path):
        scen = small_scan("a.ini", tmp_path)
        text = open(scen).read().replace("rabi_1 = ", "rabbi_1 = ")
        open(scen, "w").write(text)
        res = run_cli(["spectrum", "--scenario", scen])
        assert res.returncode == 2
        assert "rabbi_1" in res.stderr

    def test_unknown_section_rejected(self, tmp_path):
        scen = small_scan("a.ini", tmp_path)
        with open(scen, "a") as fh:
            fh.write("\n[lasers]\npower = 3\n")
        res = run_cli(["spectrum", "--scenario", scen])
        assert res.returncode == 2

    def test_no_input_exits_2(self):
        res = run_cli(["spectrum"])
        assert res.returncode == 2

    def test_bad_flag_exits_2(self):
        res = run_cli(["spectrum", "--preset", "case-a", "--engine", "magic"])
        assert res.returncode == 2

    @pytest.mark.parametrize("command,line", [
        ("threshold", "engine = bogus"),
        ("surface", "engine = bogus"),
        ("spectrum", "msum = yes"),
        ("spectrum", "quad_order = 0"),
    ])
    def test_bad_scan_setting_exits_2(self, tmp_path, command, line):
        scen = small_scan("a.ini", tmp_path)
        with open(scen, "a") as fh:          # [scan] is the last section
            fh.write(line + "\n")
        res = run_cli([command, "--scenario", scen])
        assert res.returncode == 2, res.stdout[:200] + res.stderr
        assert res.stderr.startswith("error: ")

    def test_run_callable_matches_subprocess(self, capsys):
        # the in-process entry point returns the same exit codes
        assert run(["spectrum", "--scenario", "/nonexistent.ini"]) == 2


class TestSelftest:
    def test_selftest_passes(self):
        res = run_cli(["selftest"])
        assert res.returncode == 0, res.stdout + res.stderr
        assert "selftest: OK" in res.stdout
        assert "max relative error" in res.stdout
