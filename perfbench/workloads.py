"""The benchmark's workloads: seeded inputs, the calls one repetition makes,
and the checks its outputs must pass.

Only grid offsets depend on the seed, so the amount of work is the same
for every seed.  The program sees the inputs only as scenario files
(``--scenario``).  The checks reuse the acceptance suite's fixed
tolerances (criteria 2, 3, 5 and 6).
"""
from __future__ import annotations

import configparser
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# bundled scenarios each workload starts from (`cascade-at preset <case>`)
PRESETS = {"spectra_full_msum": ("case-a", "case-b"),
           "surface_analytic": ("case-a",)}


@dataclass
class Call:
    """One call of ``cascade_at.cli.run(args)``; ``out`` is its output."""

    label: str
    args: list[str]
    out: Path


@dataclass
class Workload:
    name: str
    items: int                         # work items of one repetition
    calls: list[Call]
    inputs: dict                       # seeded inputs, for the run record
    check: Callable[[dict], list]      # outputs by call label -> (name, ok, detail)


def _scenario(preset_text: str, scan: dict, path: Path) -> Path:
    cp = configparser.ConfigParser()
    cp.read_string(preset_text)
    for key, val in scan.items():
        cp["scan"][key] = repr(float(val))
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


def _section(preset_text: str, name: str) -> dict:
    cp = configparser.ConfigParser()
    cp.read_string(preset_text)
    return dict(cp[name])


def _components(preset_text: str) -> int:
    """Folded M components of the coupling transition: the weights
    |M| (j2 = j3) or sqrt(J_max^2 - M^2) over |M| <= J_min take
    J_min + 1 distinct values."""
    levels = _section(preset_text, "levels")
    return min(int(levels["j2"]), int(levels["j3"])) + 1


def _read_csv(blob: bytes, kind: str, n_rows: int) -> np.ndarray:
    lines = blob.decode().splitlines()
    if not lines or not lines[0].startswith(f"# cascade-at v1 {kind} "):
        raise ValueError(f"missing '{kind}' CSV header")
    data = np.loadtxt(io.StringIO("\n".join(lines[2:])), delimiter=",", ndmin=2)
    if data.shape[0] != n_rows or not np.all(np.isfinite(data[:, :2])):
        raise ValueError(f"expected {n_rows} finite rows, got {data.shape[0]}")
    return data


def _strict_minima(vals: np.ndarray) -> np.ndarray:
    return np.nonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:]))[0] + 1


def _guarded(name, fn):
    """Run one check; a malformed output fails it instead of the run."""
    try:
        ok, detail = fn()
    except (ValueError, KeyError, IndexError) as exc:
        return (name, False, f"unreadable output: {exc}")
    return (name, bool(ok), detail)


def spectra_full_msum(rng: random.Random, size: str, work: Path, presets: dict) -> Workload:
    """The four cookbook full-engine spectra on a seeded detuning grid:
    M-summed, peak-normalised I3 for case a (split) and case b (unsplit),
    and the I2 transparency-dip spectra of both."""
    step = 20.0
    n = 61 if size == "full" else 17
    offset = rng.randrange(20000) / 1000.0
    start = -step * (n // 2) + offset
    scan = {"delta1_start": start, "delta1_stop": start + step * (n - 1),
            "delta1_step": step}
    calls, items, detuning_2 = [], 0, {}
    for case in ("case-a", "case-b"):
        text = presets[case]
        scen = _scenario(text, scan, work / f"{case}.ini")
        detuning_2[case] = float(_section(text, "fields")["detuning_2"])
        tag = case.replace("-", "_")
        calls.append(Call(f"{tag}_I3",
                          ["spectrum", "--scenario", str(scen), "--engine", "full",
                           "--observable", "I3", "--msum", "on", "--normalize", "peak",
                           "--out", str(work / f"{tag}_I3.csv")],
                          work / f"{tag}_I3.csv"))
        calls.append(Call(f"{tag}_I2",
                          ["spectrum", "--scenario", str(scen), "--engine", "full",
                           "--observable", "I2", "--out", str(work / f"{tag}_I2.csv")],
                          work / f"{tag}_I2.csv"))
        items += n * (_components(text) + 1)

    def check(outputs):
        def split_a():
            d = _read_csv(outputs["case_a_I3"], "spectrum", n)
            near = [d[k, 0] for k in _strict_minima(d[:, 1])
                    if abs(d[k, 0]) <= step + 1e-9]
            return bool(near), f"minima within one step of 0: {near}"

        def unsplit_b():
            d = _read_csv(outputs["case_b_I3"], "spectrum", n)
            mins = list(d[_strict_minima(d[:, 1]), 0])
            return not mins, f"minima: {mins}"

        def dip(case):
            def fn():
                d = _read_csv(outputs[f"{case.replace('-', '_')}_I2"], "spectrum", n)
                two_photon = -detuning_2[case]
                near = [d[k, 0] for k in _strict_minima(d[:, 1])
                        if abs(d[k, 0] - two_photon) <= 100.0]
                return bool(near), f"dips within 100 MHz of {two_photon:g}: {near}"
            return fn

        return [_guarded("criterion 2: case-a I3 split at zero detuning", split_a),
                _guarded("criterion 2: case-b I3 unsplit", unsplit_b),
                _guarded("criterion 3: case-a I2 dip", dip("case-a")),
                _guarded("criterion 3: case-b I2 dip", dip("case-b"))]

    return Workload("spectra_full_msum", items, calls,
                    {"delta1_offset_mhz": offset, "delta1_step_mhz": step,
                     "points": n}, check)


def surface_analytic(rng: random.Random, size: str, work: Path, presets: dict) -> Workload:
    """The cookbook analytic threshold surface for case a with a seeded x
    offset below 0.03, which keeps every row out of the singular bands
    |x| < 0.02 and |x + 1| < 0.02.  The rows go to the CLI in blocks, one
    call each: the cells are independent searches, and calls of about a
    second can be timed between the machine's slow phases."""
    offset = rng.randrange(300) / 10000.0
    if size == "full":
        x0, x_step, nx, dnu_step, nd, rows = -1.95, 0.1, 40, 400.0, 13, 5
    else:
        x0, x_step, nx, dnu_step, nd, rows = -1.55, 1.0, 4, 2400.0, 3, 2
    calls = []
    for block in range(nx // rows):
        start = x0 + offset + x_step * rows * block
        scan = {"x_start": start, "x_stop": start + x_step * (rows - 1),
                "x_step": x_step, "dnu_start": 200.0,
                "dnu_stop": 200.0 + dnu_step * (nd - 1), "dnu_step": dnu_step}
        scen = _scenario(presets["case-a"], scan, work / f"surface{block}.ini")
        out = work / f"surface{block}.csv"
        calls.append(Call(f"surface{block}",
                          ["surface", "--scenario", str(scen), "--engine", "analytic",
                           "--out", str(out)], out))

    def check(outputs):
        try:
            d = np.vstack([_read_csv(outputs[c.label], "surface", rows * nd)
                           for c in calls])
        except (ValueError, KeyError) as exc:
            return [("surface output", False, f"unreadable output: {exc}")]
        x = d[::nd, 0]
        omega = d[:, 2].reshape(nx, nd)
        results = [(f"cell x={d[i, 0]:.4f} dnu={d[i, 1]:g} converged",
                    d[i, 3] == 1, "") for i in range(len(d))]
        for i in np.nonzero((x >= -0.85) & (x <= -0.15))[0]:
            spread = float(omega[i].max() / omega[i].min() - 1.0)
            results.append((f"criterion 5: row x={x[i]:.4f} flat in Doppler width",
                            spread < 0.02, f"spread {spread:.2%}"))
        for target in (0.5, -1.5):
            i = int(np.argmin(np.abs(x - target)))
            grows = bool(np.all(np.diff(omega[i]) > 0))
            results.append((f"criterion 6: row x={x[i]:.4f} grows with Doppler width",
                            grows, f"{omega[i, 0]:.1f} -> {omega[i, -1]:.1f} MHz"))
        return results

    return Workload("surface_analytic", nx * nd, calls,
                    {"x_offset": offset, "x_rows": nx, "dnu_columns": nd,
                     "rows_per_call": rows}, check)


BUILDERS = {"spectra_full_msum": spectra_full_msum,
            "surface_analytic": surface_analytic}


def build(name: str, seed: int, size: str, work: Path, presets: dict) -> Workload:
    """Workload ``name`` with inputs drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, size, work, presets)
