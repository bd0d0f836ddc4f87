"""Scenario-driven command line front end.

Subcommands: ``spectrum`` (probe-detuning scan), ``threshold`` (x sweep),
``surface`` (x times Doppler-width sweep), ``selftest`` (Faddeeva
conformance and smoke checks) and ``preset`` (dump a bundled scenario
file).  Output is deterministic CSV: identical inputs and flags produce
byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import doppler, faddeeva, model, msublevel, threshold
from .errors import CascadeError, ConfigError, NumericalError

_SCHEMA = {
    "levels": {
        "wavenumber_21": float, "wavenumber_32": float,
        "lifetime_2": float, "lifetime_3": float,
        "branch_2_to_1": float, "branch_3_to_2": float,
        "transit_rate": float, "j1": int, "j2": int, "j3": int, "mass": float,
    },
    "fields": {
        "rabi_1": float, "rabi_2": float,
        "detuning_1": float, "detuning_2": float, "dir_1": int, "dir_2": int,
    },
    "doppler": {"temperature": float, "fwhm": float},
    "scan": {
        "delta1_start": float, "delta1_stop": float, "delta1_step": float,
        "x_start": float, "x_stop": float, "x_step": float,
        "dnu_start": float, "dnu_stop": float, "dnu_step": float,
        "engine": str, "msum": str, "quad_order": int,
    },
}

_DEFAULT_SCAN = {
    "delta1_start": -1500.0, "delta1_stop": 1500.0, "delta1_step": 5.0,
    "x_start": -1.95, "x_stop": 1.95, "x_step": 0.1,
    "dnu_start": 200.0, "dnu_stop": 5000.0, "dnu_step": 400.0,
}


@dataclass
class Scenario:
    scheme: model.LevelScheme
    drive: model.DriveParams
    dopp: model.DopplerParams
    scan: dict


def _parse_scenario(path: str) -> Scenario:
    if not os.path.exists(path):
        raise ConfigError(f"scenario file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse scenario {path}: {exc}")

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown scenario section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def grab(section, key, default=None):
        if section in cp and key in cp[section]:
            conv = _SCHEMA[section][key]
            raw = cp[section][key]
            try:
                return conv(raw)
            except ValueError:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}")
        return default

    for section in ("levels", "fields", "doppler"):
        if section not in cp:
            raise ConfigError(f"scenario is missing section [{section}]")

    try:
        scheme = model.LevelScheme(
            wavenumber_21=grab("levels", "wavenumber_21"),
            wavenumber_32=grab("levels", "wavenumber_32"),
            lifetime_2=grab("levels", "lifetime_2"),
            lifetime_3=grab("levels", "lifetime_3"),
            branch_2_to_1=grab("levels", "branch_2_to_1", 0.3),
            branch_3_to_2=grab("levels", "branch_3_to_2", 0.3),
            transit_rate=grab("levels", "transit_rate", 1.0),
            j1=grab("levels", "j1", 0), j2=grab("levels", "j2", 0),
            j3=grab("levels", "j3", 0), mass=grab("levels", "mass", 45.98))
        drive = model.DriveParams(
            rabi_1=grab("fields", "rabi_1"), rabi_2=grab("fields", "rabi_2"),
            detuning_1=grab("fields", "detuning_1", 0.0),
            detuning_2=grab("fields", "detuning_2", 0.0),
            dir_1=grab("fields", "dir_1", 1), dir_2=grab("fields", "dir_2", -1))
        dopp = model.DopplerParams(temperature=grab("doppler", "temperature"),
                                   fwhm=grab("doppler", "fwhm"))
    except TypeError as exc:
        raise ConfigError(f"scenario is missing a required key: {exc}")

    scan = dict(_DEFAULT_SCAN)
    if "scan" in cp:
        for key in cp["scan"]:
            scan[key] = grab("scan", key)
    return Scenario(scheme=scheme, drive=drive, dopp=dopp, scan=scan)


def _preset_scenario(case: str) -> Scenario:
    scheme, drive, dopp = model.preset(case.replace("-", "_"))
    return Scenario(scheme=scheme, drive=drive, dopp=dopp, scan=dict(_DEFAULT_SCAN))


def _dump_scenario(sc: Scenario) -> str:
    lines = ["[levels]"]
    s = sc.scheme
    for key in _SCHEMA["levels"]:
        lines.append(f"{key} = {getattr(s, key)!r}")
    lines.append("")
    lines.append("[fields]")
    d = sc.drive
    for key in _SCHEMA["fields"]:
        lines.append(f"{key} = {getattr(d, key)!r}")
    lines.append("")
    lines.append("[doppler]")
    if sc.dopp.temperature is not None:
        lines.append(f"temperature = {sc.dopp.temperature!r}")
    else:
        lines.append(f"fwhm = {sc.dopp.fwhm!r}")
    lines.append("")
    lines.append("[scan]")
    for key, val in sc.scan.items():
        lines.append(f"{key} = {val!r}")
    lines.append("")
    return "\n".join(lines)


def _grid(scan: dict, prefix: str) -> np.ndarray:
    start = scan[f"{prefix}_start"]
    stop = scan[f"{prefix}_stop"]
    step = scan[f"{prefix}_step"]
    if step <= 0:
        raise ConfigError(f"{prefix}_step must be > 0")
    if stop < start:
        raise ConfigError(f"{prefix}_stop must be >= {prefix}_start")
    n = int(math.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(n)


def _fingerprint(sc: Scenario, args_repr: str) -> str:
    text = _dump_scenario(sc) + "\n" + args_repr
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fmt(val) -> str:
    if isinstance(val, (bool, np.bool_)):
        return "1" if val else "0"
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    v = float(val)
    if math.isnan(v):
        return "nan"
    return f"{v:.9g}"


def _emit_csv(header_cols, rows, subcommand: str, fingerprint: str, out: str | None) -> None:
    buf = io.StringIO()
    buf.write(f"# cascade-at v1 {subcommand} {fingerprint}\n")
    buf.write(",".join(header_cols) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    data = buf.getvalue()
    if out is None:
        sys.stdout.write(data)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(data)
        except OSError as exc:
            raise NumericalError(f"cannot write output file {out}: {exc}")


def _load_inputs(args) -> Scenario:
    if args.scenario and args.preset:
        raise ConfigError("give either --scenario or --preset, not both")
    if args.scenario:
        return _parse_scenario(args.scenario)
    if args.preset:
        return _preset_scenario(args.preset)
    raise ConfigError("one of --scenario or --preset is required")


def _settings(args, sc: Scenario, default_engine: str):
    """Engine and M-sublevel weights (None when off), each from its flag if
    given, else from the scenario's [scan] section, else the default."""
    engine = args.engine if args.engine is not None \
        else sc.scan.get("engine", default_engine)
    if engine not in threshold.ALL_ENGINES:
        raise ConfigError(f"engine must be one of {threshold.ALL_ENGINES}, "
                          f"got {engine!r}")
    msum = args.msum if args.msum is not None else sc.scan.get("msum", "off")
    if msum not in ("on", "off"):
        raise ConfigError(f"msum must be on or off, got {msum!r}")
    wts = msublevel.weights(sc.scheme.j2, sc.scheme.j3) if msum == "on" else None
    return engine, wts


def _compute_spectrum(sc: Scenario, engine, observable, quad_order, wts):
    grid = _grid(sc.scan, "delta1")

    def one(drv):
        return doppler.intensities(engine, observable, sc.scheme, drv, sc.dopp,
                                   grid, quad_order)

    stacked = one(sc.drive) if wts is None else msublevel.m_summed(one, wts, sc.drive)
    names = [name for name in ("I2", "I3") if observable in (name, "both")]
    return grid, dict(zip(names, stacked))


def _cmd_spectrum(args) -> int:
    sc = _load_inputs(args)
    engine, wts = _settings(args, sc, "full")
    quad_order = args.quad_order if args.quad_order is not None \
        else sc.scan.get("quad_order", 200)
    grid, cols = _compute_spectrum(sc, engine, args.observable, quad_order, wts)
    if args.normalize == "peak":
        for key, arr in cols.items():
            peak = arr.max()
            if peak > 0:
                cols[key] = arr / peak
    fp = _fingerprint(sc, repr(("spectrum", engine, args.observable, quad_order,
                                wts is not None, args.normalize)))
    header = ["delta1_mhz"] + list(cols)
    rows = [(grid[i], *(cols[k][i] for k in cols)) for i in range(len(grid))]
    _emit_csv(header, rows, "spectrum", fp, args.out)
    return 0


def _cmd_threshold(args) -> int:
    sc = _load_inputs(args)
    engine, wts = _settings(args, sc, "analytic")
    x_grid = _grid(sc.scan, "x")
    tmap = threshold.threshold_curve(engine, sc.scheme, x_grid, sc.dopp, msum=wts)
    fp = _fingerprint(sc, repr(("threshold", engine, wts is not None)))
    rows = [(tmap.x_grid[i], tmap.omega_t[i, 0], tmap.converged[i, 0],
             tmap.region_two[i])
            for i in range(len(tmap.x_grid))]
    _emit_csv(["x", "omega2_t_mhz", "converged", "region_two"], rows,
              "threshold", fp, args.out)
    return 0


def _cmd_surface(args) -> int:
    sc = _load_inputs(args)
    engine, wts = _settings(args, sc, "analytic")
    x_grid = _grid(sc.scan, "x")
    dnu_grid = _grid(sc.scan, "dnu")
    tmap = threshold.threshold_surface(engine, sc.scheme, x_grid, dnu_grid, msum=wts)
    fp = _fingerprint(sc, repr(("surface", engine, wts is not None)))
    rows = []
    for i in range(len(x_grid)):
        for j in range(len(dnu_grid)):
            rows.append((x_grid[i], dnu_grid[j], tmap.omega_t[i, j],
                         tmap.converged[i, j]))
    _emit_csv(["x", "dnu_mhz", "omega2_t_mhz", "converged"], rows,
              "surface", fp, args.out)
    return 0


def _cmd_preset(args) -> int:
    sc = _preset_scenario(args.case)
    text = _dump_scenario(sc)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


_SELFTEST_POINTS = (
    0.0 + 0.0j, 1.0 + 1.0j, -2.5 + 0.3j, 4.0 + 0.0j, 0.0 + 2.0j,
    5.5 + 1e-3j, 8.0 - 0.5j, -3.0 - 3.0j, 12.0 + 7.0j, 0.01 - 0.02j,
)


def _cmd_selftest(args) -> int:
    print("Faddeeva conformance (z, w(z), reference, rel err)")
    worst = 0.0
    for z in _SELFTEST_POINTS:
        val = faddeeva.w(z)
        ref = faddeeva.w_reference(z)
        rel = abs(val - ref) / abs(ref)
        worst = max(worst, rel)
        print(f"  {z!s:>18}  {val:.12g}  {ref:.12g}  {rel:.2e}")
    ok = worst <= 1e-6
    print(f"max relative error {worst:.3e} ({'OK' if ok else 'FAIL'})")

    # invariant smoke checks
    checks = []
    sa, da, _ = model.preset("case_a")
    sb, db, _ = model.preset("case_b")
    checks.append(("case_a x = -0.9219",
                   abs(model.wavenumber_ratio(sa, da) + 0.9219) < 5e-4))
    checks.append(("case_b x = -1.116",
                   abs(model.wavenumber_ratio(sb, db) + 1.1162) < 5e-4))
    checks.append(("doppler fwhm(625 K) ~ 1.16 GHz",
                   abs(model.doppler_fwhm(sa, 625.0) - 1160.0) < 20.0))
    rp = model.rates(sa)
    checks.append(("Gamma_2 = 13.05 MHz", abs(rp.Gamma_2 - 13.045) < 0.01))
    cf = doppler.root_difference_closed_form(sa, da, 100.0)
    den = doppler.pole_decomposition(sa, da, model.DopplerParams(fwhm=1100.0),
                                     delta1=100.0)
    from .lineshape import doppler_slopes
    _, beta = doppler_slopes(sa, da, model.DopplerParams(fwhm=1100.0))
    quad_mod = 1.0 / abs((den.z1 - den.z2) * beta / 2)
    checks.append(("closed-form root difference vs quadratic roots",
                   abs(abs(cf) - quad_mod) / quad_mod < 1e-6))
    for name, passed in checks:
        print(f"  {'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    print("selftest:", "OK" if ok else "FAIL")
    return 0 if ok else 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cascade-at",
        description="Doppler-broadened cascade fluorescence spectra and "
                    "Autler-Townes splitting thresholds")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, engines, default_engine_note):
        sp.add_argument("--scenario", help="scenario file (INI)")
        sp.add_argument("--preset", choices=("case-a", "case-b"),
                        help="use a bundled parameter set")
        sp.add_argument("--engine", choices=engines, default=None,
                        help=f"computation engine (default {default_engine_note})")
        sp.add_argument("--msum", choices=("on", "off"), default=None,
                        help="sum over magnetic sublevels (default off)")
        sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("spectrum", help="probe-detuning scan of I2/I3")
    add_common(sp, ("full", "perturbative", "analytic"), "full")
    sp.add_argument("--observable", choices=("I2", "I3", "both"), default="both")
    sp.add_argument("--quad-order", type=int, default=None,
                    help="velocity quadrature order (default 200)")
    sp.add_argument("--normalize", choices=("peak", "none"), default="none")
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("threshold", help="threshold Rabi frequency vs x")
    add_common(sp, ("full", "perturbative", "analytic"), "analytic")
    sp.set_defaults(func=_cmd_threshold)

    sp = sub.add_parser("surface", help="threshold over (x, Doppler width)")
    add_common(sp, ("full", "perturbative", "analytic"), "analytic")
    sp.set_defaults(func=_cmd_surface)

    sp = sub.add_parser("selftest", help="Faddeeva conformance and smoke checks")
    sp.set_defaults(func=_cmd_selftest)

    sp = sub.add_parser("preset", help="dump a bundled scenario file")
    sp.add_argument("case", choices=("case-a", "case-b"))
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_preset)
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
