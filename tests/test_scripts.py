"""The scripts under scripts/ run from a fresh checkout, with no install."""
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scan_msum_effect_runs_without_install(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(SCRIPTS / "scan_msum_effect.py")],
                         cwd=str(tmp_path), env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    header = (tmp_path / "out" / "msum_effect.csv").read_text().splitlines()[0]
    assert header == ("delta1_mhz,plain_300,msum_300,plain_530,msum_530,"
                      "plain_900,msum_900")
