#!/usr/bin/env python3
"""How the magnetic-sublevel sum reshapes the upper-level spectrum.

Writes out/msum_effect.csv under the current directory, comparing the
single-component and M-summed case-b spectra at several coupling strengths.
Runs without an install: the repository's src/ goes first on the path.
"""
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cascade_at as ca

scheme, drive, dopp = ca.preset("case_b")
wts = ca.weights(scheme.j2, scheme.j3)
grid = np.linspace(-1200.0, 1200.0, 241)

rows = [grid]
header = ["delta1_mhz"]
for om2 in (300.0, 530.0, 900.0):
    drv = replace(drive, rabi_2=om2)
    plain, summed = (ca.intensities("analytic", scheme, drv, dopp, grid, msum=m)[1]
                     for m in (None, wts))
    rows += [plain / plain.max(), summed / summed.max()]
    header += [f"plain_{om2:.0f}", f"msum_{om2:.0f}"]

data = np.column_stack(rows)
Path("out").mkdir(exist_ok=True)
np.savetxt("out/msum_effect.csv", data, delimiter=",",
           header=",".join(header), comments="")
print("wrote out/msum_effect.csv")
for om2 in (300.0, 530.0, 900.0):
    k = header.index(f"msum_{om2:.0f}")
    vals = data[:, k]
    dips = np.nonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:]))[0]
    print(f"Om2 = {om2:.0f} MHz: M-summed spectrum has "
          f"{len(dips)} local minima")
