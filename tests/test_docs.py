"""The cookbook and the README are executable documentation: run every
fenced sh command of the cookbook and the README's python block.  Every
name of the package that the model note cites exists."""
import hashlib
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
COOKBOOK = ROOT / "docs" / "cookbook.md"
MODEL = ROOT / "docs" / "model.md"
README = ROOT / "README.md"

# SHA-256 of the four cookbook spectra, measured with numpy 2.4.6 and scipy
# 1.17.1.  Any change of arithmetic that moves a printed digit changes them.
SPECTRA_SHA256 = {
    "case_a_I3": "b002ba51cc7deda2d3d150934473c904d01e44cddec0d907b06dcf4b55e64cae",
    "case_b_I3": "8817be43214f2e2bdd9e85f541a4637b0dda35b5f20b415f6a2f1305f6d9ca76",
    "case_a_I2": "5349e57edf62bc50736cf171b5e947eaa0647f369bfc2fcfe5827af280d9b53f",
    "case_b_I2": "83a81220d924796f5728c71000aa663d8466247e33ce9c3bd3b41545b6e74d4e",
}


def cookbook_commands():
    text = COOKBOOK.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    cmds = []
    for block in blocks:
        for line in block.strip().splitlines():
            if line.strip():
                cmds.append(line.strip())
    return cmds


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cookbook")
    (d / "out").mkdir()
    return d


@pytest.fixture(scope="module")
def cookbook_run(workdir):
    """Run a cookbook command in the shared workdir, once per module, and
    return its CompletedProcess."""
    done = {}

    def run(cmd):
        if cmd not in done:
            # `cascade-at ...` -> run through the module entry point
            argv = [sys.executable, "-m", "cascade_at"] + cmd.split()[1:]
            done[cmd] = subprocess.run(argv, capture_output=True, text=True,
                                       cwd=str(workdir), env=subprocess_env(),
                                       timeout=400)
        return done[cmd]

    return run


def produce(cookbook_run, out):
    """Run the cookbook command that writes `out` (relative to the workdir)."""
    cmd, = [c for c in cookbook_commands() if c.endswith(f"--out {out}")]
    res = cookbook_run(cmd)
    assert res.returncode == 0, f"{cmd}\n{res.stderr}"


@pytest.mark.parametrize("cmd", cookbook_commands(), ids=lambda c: c[:60])
def test_cookbook_command_runs(cmd, cookbook_run):
    assert cmd.startswith("cascade-at ")
    res = cookbook_run(cmd)
    assert res.returncode == 0, f"{cmd}\n{res.stderr}"


def test_cookbook_outputs_match_claims(workdir, cookbook_run):
    for out in ("out/case_a_I3.csv", "out/case_b_I3.csv",
                "out/threshold_curve.csv"):
        produce(cookbook_run, out)
    # the two I3 spectra: case a dips at zero detuning, case b does not
    a = np.loadtxt(workdir / "out" / "case_a_I3.csv", delimiter=",", skiprows=2)
    center = np.argmin(np.abs(a[:, 0]))
    assert a[center, 1] < a[center - 1, 1] and a[center, 1] < a[center + 1, 1]
    b = np.loadtxt(workdir / "out" / "case_b_I3.csv", delimiter=",", skiprows=2)
    vals = b[:, 1]
    interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
    assert not interior.any()
    # threshold curve: region II far below the rest
    thr = np.loadtxt(workdir / "out" / "threshold_curve.csv", delimiter=",",
                     skiprows=2)
    region_ii = thr[(thr[:, 0] > -1) & (thr[:, 0] < 0), 1]
    outside = thr[(thr[:, 0] > 0) | (thr[:, 0] < -1), 1]
    assert np.nanmax(region_ii) * 5 < np.nanmin(outside)


@pytest.mark.parametrize("name", list(SPECTRA_SHA256))
def test_cookbook_spectrum_sha256(workdir, cookbook_run, name):
    out = f"out/{name}.csv"
    produce(cookbook_run, out)
    digest = hashlib.sha256((workdir / out).read_bytes()).hexdigest()
    assert digest == SPECTRA_SHA256[name]


def test_readme_quick_start():
    # the python block as written: the spectra have the shape its comment
    # gives, and the case-a threshold is its "~13 MHz"
    code, = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    names = {}
    exec(code, names)
    assert names["spec"].shape == (2, 601)
    assert 12 <= names["res"].omega_t <= 14


def test_model_note_names_resolve():
    # every `module.name` (or `cascade_at.name`) that the model note cites
    # under cascade_at resolves, so a deleted or renamed name cannot stay in
    # the note; other packages' names (`scipy.special.wofz`) are not checked.
    # A private or ALL_CAPS name is cited with its module, so that it is
    # checked too
    import cascade_at
    modules = {m.name for m in pkgutil.iter_modules(cascade_at.__path__)}
    text = MODEL.read_text()
    bare = [span for span in re.findall(r"`([^`]*)`", text)
            if re.match(r"(_\w*|[A-Z][A-Z0-9_]*)\b(?!\.)", span)]
    assert bare == []
    cited = re.findall(r"`(?:cascade_at\.)?(\w+)\.(\w+)", text)
    names = sorted({(mod, name) for mod, name in cited if mod in modules | {"cascade_at"}})
    assert ("threshold", "_search") in names and ("cascade_at", "intensities") in names
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(cascade_at if mod == "cascade_at"
                              else importlib.import_module(f"cascade_at.{mod}"), name)]
    assert missing == []
