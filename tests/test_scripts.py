"""The scripts under scripts/ run from a fresh checkout, with no install."""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import test_cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_scan_msum_effect_runs_without_install(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(SCRIPTS / "scan_msum_effect.py")],
                         cwd=str(tmp_path), env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    header = (tmp_path / "out" / "msum_effect.csv").read_text().splitlines()[0]
    assert header == ("delta1_mhz,plain_300,msum_300,plain_530,msum_530,"
                      "plain_900,msum_900")


def test_reproduce_figures_runs_without_install(tmp_path):
    # a copy of the checkout's scripts/ and src/, so out/ lands in tmp_path;
    # python3 resolves to the interpreter running the tests
    for name in ("scripts", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PATH"] = os.pathsep.join((os.path.dirname(sys.executable), env.get("PATH", "")))
    res = subprocess.run(["sh", str(tmp_path / "scripts" / "reproduce_figures.sh")],
                         cwd=str(tmp_path), env=env, capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["case_a_I3.csv", "case_b_I3.csv", "case_a_I2.csv", "case_b_I2.csv",
         "threshold_curve.csv", "threshold_surface.csv"])
    for name, command in (("threshold_curve.csv", "threshold"),
                          ("threshold_surface.csv", "surface")):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == test_cli.TestByteIdentity.EXPECTED[command]
