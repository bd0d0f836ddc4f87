import argparse
import hashlib
import subprocess
import sys

import numpy as np
import pytest

import cascade_at as ca
from cascade_at import cli, doppler
from cascade_at.cli import _compute_spectrum, _emit_csv, _grid, _preset_scenario, run
from cascade_at.msublevel import m_summed, weights
from conftest import subprocess_env

CLI = [sys.executable, "-m", "cascade_at"]


def run_cli(args, env_extra=None):
    return subprocess.run(CLI + args, capture_output=True, text=True,
                          env=subprocess_env(env_extra))


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
        res = run_cli(["spectrum", "--scenario", scen, "--engine", "analytic",
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
        res = run_cli(["spectrum", "--scenario", scen, "--engine", "analytic",
                       "--observable", "I3", "--normalize", "peak",
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
        rows = np.loadtxt(str(out), delimiter=",", skiprows=2)
        assert rows[:, 1].max() == pytest.approx(1.0, abs=1e-9)

    def test_doppler_free_geometry(self, tmp_path):
        # equal wavenumbers, counter-propagating (x = -1) make D linear in
        # u; the analytic engine averages it numerically instead of exiting 3
        k21 = ca.preset("case_a")[0].wavenumber_21
        scen = small_scan("free.ini", tmp_path, (f"wavenumber_32 = {k21!r}",))
        out = tmp_path / "free.csv"
        res = run_cli(["spectrum", "--scenario", scen, "--engine", "analytic",
                       "--observable", "both", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        rows = np.loadtxt(str(out), delimiter=",", skiprows=2)
        assert rows.shape == (31, 3) and np.all(rows[:, 1:] > 0)

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
                           "analytic", "--observable", "I3",
                           "--msum", flag, "--out", str(out)])
            assert res.returncode == 0, res.stderr
        off = np.loadtxt(str(o1), delimiter=",", skiprows=2)
        on = np.loadtxt(str(o2), delimiter=",", skiprows=2)
        assert on[:, 1].sum() > 2 * off[:, 1].sum()   # 39 components add up

    def test_m_sum_in_bounded_pole_blocks(self, tmp_path, monkeypatch):
        # the M-summed spectrum is one row average over the folded weights:
        # every weight's 601 grid points reach the partial fractions, in
        # calls of at most one block
        calls = []
        builder = doppler._weak_probe_poles

        def counting(scheme, drive, grid, *args):
            calls.append(len(grid))
            return builder(scheme, drive, grid, *args)

        monkeypatch.setattr(doppler, "_weak_probe_poles", counting)
        out = tmp_path / "a.csv"
        assert run(["spectrum", "--preset", "case-a", "--engine", "analytic",
                    "--observable", "I3", "--msum", "on", "--out", str(out)]) == 0
        scheme, _, _ = ca.preset("case_a")
        assert sum(calls) == 601 * len(weights(scheme.j2, scheme.j3).folded())
        assert max(calls) <= doppler._WEAK_PROBE_BLOCK < sum(calls)

    @pytest.mark.parametrize("engine", ["analytic", "full", "perturbative"])
    def test_m_sum_equals_m_summed(self, engine):
        # the weights as a row axis give the bits of one call per weight
        sc = _preset_scenario("case-b")
        sc.scan.update(delta1_start=-600.0, delta1_stop=600.0, delta1_step=40.0)
        wts = weights(sc.scheme.j2, sc.scheme.j3)
        grid, cols = _compute_spectrum(sc, engine, "both", wts)
        ref = m_summed(lambda drv: doppler.intensities(engine, sc.scheme, drv, sc.dopp,
                                                       grid), wts, sc.drive)
        assert np.array_equal(np.array([cols["I2"], cols["I3"]]), ref)


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
        # the full engine's batched solve and eig go through LAPACK; the
        # CSV must not depend on how many threads the BLAS library uses
        scen = small_scan("a.ini", tmp_path)
        blobs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}.csv"
            env = {name: threads for name in ("OMP_NUM_THREADS",
                                              "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
            res = run_cli(["spectrum", "--scenario", scen, "--engine", "full",
                           "--observable", "both", "--out", str(out)],
                          env_extra=env)
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


class TestByteIdentity:
    # SHA-256 of the default case-a threshold curve and surface, measured
    # with numpy 2.4.6 and scipy 1.17.1.  Any change of arithmetic that moves
    # a printed digit of a threshold changes them.
    EXPECTED = {
        "threshold": "5655bbc4d5d7adf5d5ad0d69d28849a08934654e447a7c56f5f67d747788a46d",
        "surface": "833e46c43e1e373799de53eda948364003533d86e4825348ffc6b81c011d0b44",
    }

    @pytest.mark.parametrize("command", ["threshold", "surface"])
    def test_default_csv_sha256(self, tmp_path, command):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--preset", "case-a", "--engine", "analytic",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.EXPECTED[command]

    # SHA-256 of the other analytic thresholds whose exact curvature a
    # change of the weak-probe kernel could move: case b, and case a with
    # the M sum on, measured with the same numpy and scipy
    THRESHOLDS = {
        "threshold --preset case-b":
            "b3644fbeb28c906bd6fb3b3307ee4a64cc96ea680992269a795f99e81f036336",
        "surface --preset case-b":
            "b37a04fa73a8b1ab6b9fe341516bb57b592488f43cc8ffd0d0ce5cbe0aaba564",
        "threshold --preset case-a --msum on":
            "f4dbed8564cafcbdf5cbd826647d8be87b13e38f5b558392204cacab59fe2a1a",
        "surface --preset case-a --msum on":
            "ed2bf6d78c4f335fd24dc3f4504724c454e358a445dc79d4c10d8a88e6569429",
    }

    @pytest.mark.parametrize("command", list(THRESHOLDS))
    def test_analytic_threshold_sha256(self, tmp_path, command):
        out = tmp_path / "threshold.csv"
        assert run(command.split() + ["--engine", "analytic", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.THRESHOLDS[command]

    # SHA-256 of the analytic engine's partial fractions, I2 and I3 of the
    # case-a preset with the M sum on and off, measured with the same numpy
    # and scipy
    ANALYTIC = {
        "on": "c97f8eaa9a20db16910e252f9e720da14f5f7d3c3311f14502eb8d680a3ec5dd",
        "off": "6dce5636e15759bfe5110acd8fc28abe5d936b52048dc639c63345aacd3e3bde",
    }

    @pytest.mark.parametrize("msum", ["on", "off"])
    def test_analytic_spectrum_sha256(self, tmp_path, msum):
        out = tmp_path / "analytic.csv"
        assert run(["spectrum", "--preset", "case-a", "--engine", "analytic",
                    "--observable", "both", "--msum", msum, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.ANALYTIC[msum]

    # SHA-256 of full-engine thresholds with the M sum on, measured with the
    # same numpy and scipy: acceptance criterion 4 (case b at its preset x)
    # and the case-a surface on a 10 x 4 grid (x_step 0.4, dnu_step 1600).
    # The single-M full CSVs are not pinned: their last digits are rounding
    # noise of the stencil curvature.
    FULL = {
        "threshold": "9bcbac80273bc64ff724a17bfa53aee90286adf7f60f055e87a4e61825cfea50",
        "surface": "61fc8b674b2def09239827a4559f7f74d9967eb143ebb8b85f37d8cda87ff089",
    }

    @pytest.mark.parametrize("command", list(FULL))
    def test_full_msum_sha256(self, tmp_path, command):
        if command == "threshold":
            source = ["--preset", "case-b"]
        else:
            text = cli._dump_scenario(_preset_scenario("case-a"))
            assert "x_step = 0.1\n" in text and "dnu_step = 400.0\n" in text
            scen = tmp_path / "a.ini"
            scen.write_text(text.replace("x_step = 0.1\n", "x_step = 0.4\n")
                            .replace("dnu_step = 400.0\n", "dnu_step = 1600.0\n"))
            source = ["--scenario", str(scen)]
        out = tmp_path / f"{command}.csv"
        assert run([command, *source, "--engine", "full", "--msum", "on",
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.FULL[command]

    # omega_T of `threshold --preset case-a --engine full`, as printed with
    # numpy 2.4.6 and scipy 1.17.1.  The CSV is not pinned by SHA-256: the
    # stencil curvature near the root is rounding noise, and the Newton
    # pairs' last estimate follows it continuously.  Adding +-1e-19 to every
    # curvature moves 19 of these 40 printed values, by at most 2.8e-8
    # relative (the Illinois steps moved 8, by up to 4.0e-7).  rtol 1e-5
    # still sees any change of the full-engine averages
    FULL_THRESHOLD = [
        765.900676, 747.591396, 725.769801, 698.578624, 665.703629, 623.666632,
        568.081321, 491.558199, 379.662165, 197.045467, 13.9185186, 10.848836,
        9.97787102, 9.69335943, 9.7153413, 9.97240926, 10.4795843, 11.3434171,
        12.9228874, 17.2005934, 2553.82011, 2054.52528, 1839.5225, 1701.37595,
        1601.27996, 1525.37183, 1465.50665, 1417.10449, 1377.23379, 1343.89624,
        1315.66644, 1291.49541, 1270.59462, 1252.36123, 1236.32803, 1222.12841,
        1209.6859, 1198.2854, 1188.00951, 1178.70358,
    ]

    def test_full_single_m_threshold(self, tmp_path):
        out = tmp_path / "threshold.csv"
        assert run(["threshold", "--preset", "case-a", "--engine", "full",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(str(out), delimiter=",", skiprows=2)
        np.testing.assert_array_equal(rows[:, 0], np.round(np.arange(-1.95, 2.0, 0.1), 2))
        np.testing.assert_allclose(rows[:, 1], self.FULL_THRESHOLD, rtol=1e-5)
        assert np.all(rows[:, 2] == 1)


class TestGrid:
    @staticmethod
    def grid(start, stop, step):
        return _grid({"d_start": start, "d_stop": stop, "d_step": step}, "d")

    def test_never_passes_stop(self):
        # a fractional step count of 0.5 or more adds no point beyond stop
        np.testing.assert_allclose(self.grid(0.0, 1.0, 0.4), [0.0, 0.4, 0.8])
        np.testing.assert_allclose(self.grid(0.0, 1.0, 0.3), [0.0, 0.3, 0.6, 0.9])

    def test_whole_step_count_keeps_stop(self):
        # (1.2 - 0) / 0.4 = 2.9999999999999996 is three steps
        np.testing.assert_allclose(self.grid(0.0, 1.2, 0.4), [0.0, 0.4, 0.8, 1.2])
        assert np.array_equal(self.grid(2.0, 2.0, 1.0), [2.0])
        sc = _preset_scenario("case-a")
        assert [len(_grid(sc.scan, p)) for p in ("delta1", "x", "dnu")] == [601, 40, 13]


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

    def test_surface_from_zero_width(self, tmp_path):
        # a zero-width column is searched as threshold does at fwhm = 0
        scen = small_scan("a.ini", tmp_path,
                          ["x_start = -0.5", "x_stop = 0.5", "x_step = 1.0",
                           "dnu_start = 0.0", "dnu_stop = 1100.0", "dnu_step = 1100.0"])
        out = tmp_path / "surf.csv"
        assert run(["surface", "--scenario", scen, "--out", str(out)]) == 0
        rows = np.loadtxt(str(out), delimiter=",", skiprows=2)
        assert rows[:, 1].tolist() == [0.0, 1100.0, 0.0, 1100.0]
        assert rows[:, 3].all()

    def test_narrow_doppler_width_matches_zero_width(self, tmp_path):
        # roots of D beyond the Faddeeva function's domain and resonant
        # curvatures beyond its derivatives' accuracy take the numeric sum
        # and the stencil: a width of 0.001 MHz gives the zero-width curve
        dump = run_cli(["preset", "case-a"]).stdout
        curves = []
        for fwhm in ("0.001", "0.0"):
            scen = tmp_path / f"w{fwhm}.ini"
            scen.write_text(dump.replace("temperature = 625.0", f"fwhm = {fwhm}"))
            out = tmp_path / f"w{fwhm}.csv"
            assert run(["threshold", "--scenario", str(scen), "--out", str(out)]) == 0
            curves.append(np.loadtxt(str(out), delimiter=",", skiprows=2))
        narrow, zero = curves
        assert np.array_equal(narrow[:, [0, 2, 3]], zero[:, [0, 2, 3]])
        assert zero[:, 2].all()
        np.testing.assert_allclose(narrow[:, 1], zero[:, 1], rtol=1e-6)


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

    def test_default_section_rejected_by_name(self, tmp_path):
        # configparser would copy [DEFAULT]'s keys into every section, so
        # the error named a section the file never gave the key in
        scen = small_scan("a.ini", tmp_path)
        text = open(scen).read()
        open(scen, "w").write("[DEFAULT]\nj2 = 1\n\n" + text)
        res = run_cli(["spectrum", "--scenario", scen])
        assert res.returncode == 2
        assert res.stderr.strip() == "error: unknown scenario section [DEFAULT]"

    def test_no_input_exits_2(self):
        res = run_cli(["spectrum"])
        assert res.returncode == 2

    @pytest.mark.parametrize("command", ["spectrum", "threshold", "surface"])
    def test_scenario_and_preset_exit_2(self, tmp_path, capsys, command):
        scen = small_scan("a.ini", tmp_path)
        assert run([command, "--scenario", scen, "--preset", "case-a"]) == 2
        assert "not allowed with argument --scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [
        ("levels", "lifetime_2"), ("levels", "wavenumber_21"), ("fields", "rabi_1"),
    ])
    def test_missing_required_key_named(self, tmp_path, capsys, section, key):
        scen = small_scan("a.ini", tmp_path)
        lines = open(scen).read().splitlines()
        open(scen, "w").write("\n".join(line for line in lines
                                        if not line.startswith(key + " ")))
        assert run(["spectrum", "--scenario", scen]) == 2
        assert capsys.readouterr().err == (
            f"error: scenario is missing a required key: [{section}] {key}\n")

    def test_bad_flag_exits_2(self):
        res = run_cli(["spectrum", "--preset", "case-a", "--engine", "magic"])
        assert res.returncode == 2

    def test_bad_observable_exits_2(self, capsys):
        # the library computes I2 and I3 together, so the flag's choices are
        # the only check of the observable
        assert run(["spectrum", "--preset", "case-a", "--observable", "I4"]) == 2
        assert "argument --observable: invalid choice: 'I4'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "threshold", "surface"])
    def test_probe_detuning_exits_2(self, tmp_path, capsys, command):
        # no command reads [fields] detuning_1, so a nonzero value would be
        # ignored without a word; 0.0, as every preset writes it, is accepted
        scen = small_scan("a.ini", tmp_path, ["detuning_1 = 50.0"])
        assert "detuning_1 = 50.0" in open(scen).read().splitlines()
        assert run([command, "--scenario", scen]) == 2
        assert capsys.readouterr().err == (
            "error: [fields] detuning_1 must be 0: spectrum scans Delta_1 over "
            "[scan] delta1_start, delta1_stop and delta1_step\n")

    @pytest.mark.parametrize("args", [
        "spectrum --engine perturbative",
        "threshold --engine perturbative",
        "surface --engine perturbative",
        "spectrum --quad-order 200",
    ])
    def test_numeric_engine_and_order_are_not_flags(self, capsys, args):
        # the numeric weak-probe average is a library oracle only
        assert run(args.split() + ["--preset", "case-a"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "threshold", "surface"])
    def test_closed_system_exits_2(self, tmp_path, command):
        # no transit and no decay out of the cascade: no unique steady state
        scen = small_scan("a.ini", tmp_path, ["transit_rate = 0.0", "branch_2_to_1 = 1.0",
                                              "branch_3_to_2 = 1.0"])
        res = run_cli([command, "--scenario", scen, "--engine", "full"])
        assert res.returncode == 2, res.stdout[:200] + res.stderr
        assert res.stderr == "error: steady state needs transit_rate > 0\n"

    @pytest.mark.parametrize("command,line", [
        ("threshold", "engine = bogus"),
        ("surface", "engine = bogus"),
        ("spectrum", "msum = yes"),
        ("spectrum", "engine = perturbative"),
        ("spectrum", "quad_order = 200"),
        ("spectrum", "quad_order = 0"),
        ("spectrum --engine analytic", "quad_order = 0"),
        ("spectrum --engine full", "quad_order = 0"),
        ("spectrum", "engine = full"),
        ("spectrum", "msum = on"),
    ])
    def test_bad_scan_setting_exits_2(self, tmp_path, command, line):
        # the engine and the M sum are flags only, and the numeric order is
        # fixed: none of them is a [scan] key
        scen = small_scan("a.ini", tmp_path)
        with open(scen, "a") as fh:          # [scan] is the last section
            fh.write(line + "\n")
        res = run_cli(command.split() + ["--scenario", scen])
        assert res.returncode == 2, res.stdout[:200] + res.stderr
        key = line.split()[0]
        assert res.stderr == f"error: unknown key {key!r} in section [scan]\n"

    @pytest.mark.parametrize("command,lines,message", [
        ("spectrum", ["delta1_step = 1e-09"], "delta1 grid has 6e+11 points"),
        ("threshold", ["x_step = 1e-09"], "x grid has 3.9e+09 points"),
        ("surface", ["x_step = 0.001", "dnu_step = 0.01"], "surface has 1872483901 cells"),
    ], ids=["spectrum", "threshold", "surface"])
    def test_oversized_grid_exits_2(self, tmp_path, capsys, command, lines, message):
        # refused before the grid is allocated: with the spectrum's step a
        # numpy allocation of terabytes failed with a traceback
        scen = small_scan("a.ini", tmp_path, lines)
        assert run([command, "--scenario", scen]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "above the limit of 1000000" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,old,new", [
        ("threshold", "x_start = ", "x_start = nan"),
        ("spectrum", "delta1_step = ", "delta1_step = nan"),
        ("spectrum", "temperature = ", "fwhm = nan"),
        ("spectrum", "rabi_2 = ", "rabi_2 = nan"),
        ("threshold", "lifetime_2 = ", "lifetime_2 = inf"),
    ], ids=["x_start-nan", "delta1_step-nan", "fwhm-nan", "rabi_2-nan", "lifetime_2-inf"])
    def test_non_finite_value_exits_2(self, tmp_path, command, old, new):
        scen = small_scan("a.ini", tmp_path)
        lines = open(scen).read().splitlines()
        assert sum(line.startswith(old) for line in lines) == 1
        text = "\n".join(new if line.startswith(old) else line for line in lines)
        open(scen, "w").write(text + "\n")
        res = run_cli([command, "--scenario", scen])
        assert res.returncode == 2, res.stdout[:200] + res.stderr
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
        assert "must be finite" in res.stderr

    @pytest.mark.parametrize("engine", ["analytic", "full"])
    @pytest.mark.parametrize("line", ["mass = 1e-300", "rabi_1 = 1e200", "rabi_2 = 1e200"])
    def test_extreme_finite_value_is_one_error_line(self, tmp_path, engine, line):
        # m c^2 underflowed to 0, and (rabi_1 / 2) ** 2 overflowed, with a
        # traceback; the other cases warned of an overflow before exiting 3
        scen = small_scan("a.ini", tmp_path, [line])
        assert line in open(scen).read().splitlines()
        res = run_cli(["spectrum", "--scenario", scen, "--engine", engine])
        assert res.returncode in (2, 3), res.stdout[:200] + res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr

    def test_msum_without_rotational_levels_exits_2(self, tmp_path):
        # the rotational quantum numbers default to 0, and the coupling
        # transition J = 0 -> J = 0 has no allowed M component
        scen = small_scan("a.ini", tmp_path)
        lines = [line for line in open(scen).read().splitlines()
                 if not line.startswith(("j1 = ", "j2 = ", "j3 = "))]
        open(scen, "w").write("\n".join(lines) + "\n")
        res = run_cli(["spectrum", "--scenario", scen, "--msum", "on"])
        assert res.returncode == 2, res.stdout[:200] + res.stderr
        assert res.stderr.startswith("error: ") and "J = 0 -> J = 0" in res.stderr

    @pytest.mark.parametrize("command", [
        "spectrum --preset case-a --engine analytic --observable I3",
        "threshold --preset case-a --engine analytic",
        "surface --preset case-a --engine analytic",
        "preset case-a",
    ], ids=lambda c: c.split()[0])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out.csv"
        assert run(command.split() + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output file")

    @pytest.mark.parametrize("command, module, name", [
        ("spectrum", doppler, "intensities"),
        ("threshold", cli.threshold, "threshold_curve"),
        ("surface", cli.threshold, "threshold_surface"),
    ])
    def test_numerical_failure_exits_3(self, capsys, monkeypatch, command, module, name):
        def failing(*args, **kwargs):
            raise ca.NumericalError("solver failed")

        monkeypatch.setattr(module, name, failing)
        assert run([command, "--preset", "case-a"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: solver failed\n"
        assert captured.out == ""

    def test_run_callable_matches_subprocess(self, capsys):
        # the in-process entry point returns the same exit codes
        assert run(["spectrum", "--scenario", "/nonexistent.ini"]) == 2

    @pytest.mark.parametrize("line,message", [
        ("rabi_2 = 400%", "bad value for fields.rabi_2"),
        ("x_step = %(x)s", "bad value for scan.x_step"),
    ], ids=["rabi_2-percent", "x_step-interpolation"])
    def test_percent_is_literal(self, tmp_path, capsys, line, message):
        # a scenario has no interpolation: '%' is an ordinary character
        scen = small_scan("a.ini", tmp_path, [line])     # replaces the key's line
        assert line in open(scen).read().splitlines()
        assert run(["threshold", "--scenario", scen]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_directory_scenario_exits_2(self, tmp_path, capsys):
        assert run(["spectrum", "--scenario", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read scenario {tmp_path}")


class TestParser:
    def test_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        out = tmp_path / "a.ini"
        assert run(["preset", "case-a", "--out", str(out)]) == 0
        assert run(["preset", "case-b", "--out", str(out)]) == 0
        assert len(built) == 6               # the parser and its five subcommands
        # the shared parser carries nothing from one parse to the next
        assert run(["spectrum", "--preset", "case-a", "--engine", "magic"]) == 2
        parser = cli._build_parser()
        assert parser.parse_args(["threshold", "--preset", "case-a",
                                  "--engine", "full"]).engine == "full"
        assert parser.parse_args(["threshold", "--preset", "case-a"]).engine == "analytic"
        assert run(["preset", "case-a", "--out", str(out)]) == 0
        assert len(built) == 6


class TestPresetDump:
    # SHA-256 of `cascade-at preset <case>`: the scenario file every CSV
    # fingerprint hashes, written from the model dataclasses' fields
    EXPECTED = {
        "case-a": "02c7ecd9376bd6ebccbb94f211f5e9ad0196d3a18df302cbd7db291e8a10e77e",
        "case-b": "af2d53e3971d0405a4421e78aeddf6320e16e2899ed3e026282f8e507d17daa9",
    }

    @pytest.mark.parametrize("case", list(EXPECTED))
    def test_preset_sha256(self, tmp_path, case):
        out = tmp_path / "preset.ini"
        assert run(["preset", case, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.EXPECTED[case]

    def test_dump_parses_back(self, tmp_path):
        # every dataclass field is written, and reading it back gives the
        # same scenario
        for case in self.EXPECTED:
            sc = _preset_scenario(case)
            path = tmp_path / f"{case}.ini"
            path.write_text(cli._dump_scenario(sc))
            assert cli._parse_scenario(str(path)) == sc


class TestCsvFormat:
    def test_edge_values(self, tmp_path):
        out = tmp_path / "edge.csv"
        vals = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 123456789.5, 0.1])
        flags = np.array([True, False, True, False, True, False, True])
        _emit_csv(["v", "flag", "list"], [vals, flags, list(flags)], "test", "abc", str(out))
        assert out.read_text().splitlines() == [
            "# cascade-at v1 test abc", "v,flag,list",
            "nan,1,1", "inf,0,0", "-inf,1,1", "-0,0,0",
            "4.94065646e-324,1,1", "123456790,0,0", "0.1,1,1"]


class TestSelftest:
    def test_selftest_passes(self):
        # RuntimeWarning is an error as in the test suite (pyproject.toml): an
        # overflow or a 0/0 must raise, not leave a silent inf or nan
        res = run_cli(["selftest"], env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
        assert res.returncode == 0, res.stdout + res.stderr
        assert "selftest: OK" in res.stdout
        assert "max relative error" in res.stdout
        assert "PASS  exact analytic curvature vs 5-point stencil" in res.stdout
        assert "PASS  full engine vs numeric full average, case a" in res.stdout
        assert ("PASS  full engine vs numeric full average, x = -1 (Doppler-free)"
                in res.stdout)
        assert "PASS  analytic engine vs numeric perturbative average, case a" in res.stdout

    def test_wrong_schur_coefficients_fail(self, monkeypatch, capsys):
        # the full engine takes the Schur form only at x = -1, so that check
        # alone sees coefficients off by 1e-3: the Schur form's solve for
        # (R + D)^{-1} [jq | Sigma] is the only one with 7 right-hand sides
        solve = np.linalg.solve

        def wrong(a, b):
            sol = solve(a, b)
            if b.shape[-1] == 7:
                sol[..., 0] *= 1.001
            return sol

        monkeypatch.setattr(np.linalg, "solve", wrong)
        assert run(["selftest"]) == 3
        out = capsys.readouterr().out
        assert "FAIL  full engine vs numeric full average, x = -1 (Doppler-free)" in out
        assert "PASS  full engine vs numeric full average, case a" in out
        assert "selftest: FAIL" in out

    def test_wrong_exact_curvature_fails(self, monkeypatch, capsys):
        # the exact analytic curvature is 8.6e-4 to 1.4e-2 of f(0)/h^2 at the
        # checked couplings, so scaling it by 1.5 moves it past the 1e-4
        # tolerance against the perturbative stencil
        kernel = doppler._weak_probe_curvature

        def scaled(*args):
            ok, vals = kernel(*args)
            return ok, 1.5 * vals

        monkeypatch.setattr(doppler, "_weak_probe_curvature", scaled)
        assert run(["selftest"]) == 3
        out = capsys.readouterr().out
        assert "FAIL  exact analytic curvature vs 5-point stencil" in out
        assert "PASS  analytic engine vs numeric perturbative average, case a" in out
        assert "selftest: FAIL" in out


class TestStartup:
    def test_preset_loads_no_scipy(self):
        # scipy is imported where a Gauss-Hermite rule or w is first needed
        code = ("import sys\n"
                "from cascade_at.cli import run\n"
                "assert run(['preset', 'case-a']) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=subprocess_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"
