#!/bin/sh
# Regenerate the six bundled datasets: split/unsplit upper-level spectra,
# the two transparency-dip spectra, the threshold curve and the threshold
# surface.  Output lands in out/ as deterministic CSV.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="$(pwd)/src${PYTHONPATH:+:$PYTHONPATH}"   # runs without an install
export PYTHONPATH
mkdir -p out

run() { echo "+ cascade-at $*"; python3 -m cascade_at "$@"; }

run spectrum --preset case-a --engine full --observable I3 --msum on \
    --normalize peak --out out/case_a_I3.csv
run spectrum --preset case-b --engine full --observable I3 --msum on \
    --normalize peak --out out/case_b_I3.csv
run spectrum --preset case-a --engine full --observable I2 --out out/case_a_I2.csv
run spectrum --preset case-b --engine full --observable I2 --out out/case_b_I2.csv
run threshold --preset case-a --engine analytic --out out/threshold_curve.csv
run surface --preset case-a --engine analytic --out out/threshold_surface.csv

echo "done; data in out/"
