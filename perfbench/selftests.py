"""Self-tests of the benchmark harness.  From the repository root:

    python3 -m pytest -q perfbench/selftests.py

The workload tests run the benchmark at its tiny size (about 40 s in all
on a 2-core machine).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def bench(workload, trace, seed=SEED):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs of every workload with the same seed."""
    return {w: [bench(w, 1) for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    result, record = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["record"]["seed"] == SEED
    assert record["record"]["thread_env"] == {
        "CASCADE_AT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def test_traced_metric_names_match_benchmark_json(traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced.values():
        for result, record in runs:
            assert result["correct"], record["failures"]
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_counts_and_outputs_repeat_for_a_fixed_seed(traced):
    counts = ("faddeeva.evals", "liouville.solves", "doppler.rule.builds",
              "threshold.curvatures")
    for (first, rec1), (second, rec2) in traced.values():
        for name in counts:
            assert first["metrics"][name] == second["metrics"][name], name
        assert rec1["sha256"] == rec2["sha256"]


def test_predicted_zeros_hold(traced):
    def metric(workload, name):
        return traced[workload][0][0]["metrics"][name]["value"]

    assert metric("spectra_full_msum", "faddeeva.evals") == 0
    assert metric("spectra_full_msum", "liouville.solves") > 0
    assert metric("spectra_full_msum", "threshold.searches") == 0
    assert metric("surface_analytic", "liouville.solves") == 0
    assert metric("surface_analytic", "msublevel.sums") == 0
    assert metric("surface_analytic", "faddeeva.evals") > 0


def _bindings():
    import cascade_at.cli  # noqa: F401

    out = {(name, key): val for name, mod in sys.modules.items()
           if name == "cascade_at" or name.startswith("cascade_at.")
           for key, val in vars(mod).items()}
    out["QuadratureRule"] = dict(vars(sys.modules["cascade_at.doppler"].QuadratureRule))
    return out


def test_tracer_restores_module_attributes():
    import cascade_at as ca

    before = _bindings()
    scheme, drive, dopp = ca.preset("case_a")
    grid = np.array([-50.0, 0.0, 50.0])
    plain = ca.average_analytic_I3(scheme, drive, dopp, grid).I3
    tracer = Tracer()
    with tracer:
        assert ca.doppler.faddeeva_w is not before[("cascade_at.doppler", "faddeeva_w")]
        assert ca.threshold.m_summed is not before[("cascade_at.threshold", "m_summed")]
        traced_vals = ca.average_analytic_I3(scheme, drive, dopp, grid).I3
        ca.QuadratureRule.gauss_hermite(16)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if k != "QuadratureRule")
    assert all(after["QuadratureRule"][k] is v for k, v in before["QuadratureRule"].items())
    np.testing.assert_array_equal(plain, traced_vals)
    spans = tracer.spans()
    names = spans["span_names"][spans["name"]]
    assert list(names).count("faddeeva.w") == 4 * len(grid)
    assert "doppler.QuadratureRule.gauss_hermite" in names


def test_refuses_outside_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
