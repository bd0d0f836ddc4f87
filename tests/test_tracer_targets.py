"""The benchmark's tracer wraps cascade_at names from outside the package;
each of them must still exist, or only traced benchmark runs would fail."""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = []
    for module, attr, *_ in tracer.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert tracer.TARGETS
    assert not missing


def test_first_computing_call_loads_every_traced_module(tmp_path):
    # the tracer patches its modules between calls and needs every one of
    # them loaded after the first call, whichever engines that call used
    modules = sorted({module for module, *_ in _tracer().TARGETS})
    script = ("import sys\n"
              "from cascade_at.cli import run\n"
              "assert run(['spectrum', '--preset', 'case-a', '--engine', 'analytic', "
              f"'--out', {str(tmp_path / 'spec.csv')!r}]) == 0\n"
              f"print([m for m in {modules!r} if m not in sys.modules])")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=subprocess_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
