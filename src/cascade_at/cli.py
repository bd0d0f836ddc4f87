"""Scenario-driven command line front end.

Subcommands: ``spectrum`` (probe-detuning scan), ``threshold`` (x sweep),
``surface`` (x times Doppler-width sweep), ``selftest`` (Faddeeva
conformance and smoke checks) and ``preset`` (dump a bundled scenario
file).  Output is deterministic CSV: identical inputs and flags produce
byte-identical files.

The argument parser is built once per process, so repeated in-process
:func:`run` calls only parse.  Scenario files are INI without
interpolation: a ``%`` in a value is a literal character.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import doppler, faddeeva, liouville, model, msublevel, threshold
from .errors import CascadeError, ConfigError

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
        "engine": str, "msum": str,
    },
}

_DEFAULT_SCAN = {
    "delta1_start": -1500.0, "delta1_stop": 1500.0, "delta1_step": 5.0,
    "x_start": -1.95, "x_stop": 1.95, "x_step": 0.1,
    "dnu_start": 200.0, "dnu_stop": 5000.0, "dnu_step": 400.0,
}

# most points of one scan grid, and most cells of one surface: far above any
# scan the model needs, and checked before a grid is allocated
_MAX_GRID_POINTS = 1_000_000

# the library's "perturbative" engine is the numeric oracle of "analytic",
# the same weak-probe average at ten times the cost; it is not a command choice
_ENGINES = ("full", "analytic")


@dataclass
class Scenario:
    scheme: model.LevelScheme
    drive: model.DriveParams
    dopp: model.DopplerParams
    scan: dict


def _parse_scenario(path: str) -> Scenario:
    # no header can name the empty section, so [DEFAULT] is read as an
    # ordinary section and rejected by name below, instead of its keys
    # turning up in every other section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse scenario {path}: {exc}")

    # raw items skip the section proxies' per-key interpolation and
    # default-section lookups; the values are the same strings
    raw = {section: dict(cp.items(section, raw=True)) for section in cp.sections()}
    for section, values in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown scenario section [{section}]")
        for key in values:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def grab(section, key, default=None):
        text = raw.get(section, {}).get(key)
        if text is None:
            return default
        conv = _SCHEMA[section][key]
        try:
            val = conv(text)
        except ValueError:
            raise ConfigError(f"bad value for {section}.{key}: {text!r}")
        if conv is float and not math.isfinite(val):
            raise ConfigError(f"{section}.{key} must be finite, got {text!r}")
        return val

    for section in ("levels", "fields", "doppler"):
        if section not in raw:
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
    for key in raw.get("scan", {}):
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
    span = (stop - start) / step
    # also refuses an infinite span, which round() cannot take
    if not span + 1 <= _MAX_GRID_POINTS:
        raise ConfigError(f"{prefix} grid has {span + 1:.7g} points, above the limit of "
                          f"{_MAX_GRID_POINTS}")
    n = round(span)
    if abs(span - n) > 1e-9 * max(n, 1):      # not a whole number of steps
        n = math.floor(span)
    return start + step * np.arange(n + 1)


def _fingerprint(sc: Scenario, args_repr: str) -> str:
    text = _dump_scenario(sc) + "\n" + args_repr
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when None.  A path
    that cannot be written is a configuration error."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}")


def _emit_csv(header_cols, columns, subcommand: str, fingerprint: str, out: str | None) -> None:
    """Write equal-length ``columns`` as CSV under a comment line and the
    header: booleans as 1/0, everything else with 9 significant digits."""
    texts = []
    for col in map(np.asarray, columns):
        if col.dtype == bool:
            texts.append(["1" if v else "0" for v in col.tolist()])
        else:
            texts.append([f"{v:.9g}" for v in col.tolist()])
    lines = [f"# cascade-at v1 {subcommand} {fingerprint}", ",".join(header_cols)]
    lines += map(",".join, zip(*texts))
    _write("\n".join(lines) + "\n", out)


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
    if engine not in _ENGINES:
        raise ConfigError(f"engine must be one of {_ENGINES}, got {engine!r}")
    msum = args.msum if args.msum is not None else sc.scan.get("msum", "off")
    if msum not in ("on", "off"):
        raise ConfigError(f"msum must be on or off, got {msum!r}")
    wts = msublevel.weights(sc.scheme.j2, sc.scheme.j3) if msum == "on" else None
    return engine, wts


def _compute_spectrum(sc: Scenario, engine, observable, wts):
    """Spectrum columns by name.  With M weights on, the folded weights'
    coupling Rabi frequencies are rows of the one row average, summed by
    ``folded_sum``."""
    grid = _grid(sc.scan, "delta1")
    weights = np.array([1.0] if wts is None else [w for w, _ in wts.folded()])
    alpha, beta = doppler.doppler_slopes(sc.scheme, sc.drive, sc.dopp)
    rows = doppler._row_average(engine, observable, sc.scheme, sc.drive, grid, alpha,
                                beta, sc.drive.rabi_2 * weights[:, None])
    stacked = (rows[:, 0] if wts is None
               else msublevel.folded_sum(rows.swapaxes(0, 1), wts))
    names = [name for name in ("I2", "I3") if observable in (name, "both")]
    return grid, dict(zip(names, stacked))


def _cmd_spectrum(args) -> int:
    sc = _load_inputs(args)
    engine, wts = _settings(args, sc, "full")
    grid, cols = _compute_spectrum(sc, engine, args.observable, wts)
    if args.normalize == "peak":
        for key, arr in cols.items():
            peak = arr.max()
            if peak > 0:
                cols[key] = arr / peak
    # 200: the Gauss-Hermite order of the numeric fallback (doppler._row_average)
    fp = _fingerprint(sc, repr(("spectrum", engine, args.observable, 200,
                                wts is not None, args.normalize)))
    _emit_csv(["delta1_mhz", *cols], [grid, *cols.values()], "spectrum", fp, args.out)
    return 0


def _cmd_threshold(args) -> int:
    sc = _load_inputs(args)
    engine, wts = _settings(args, sc, "analytic")
    x_grid = _grid(sc.scan, "x")
    tmap = threshold.threshold_curve(engine, sc.scheme, x_grid, sc.dopp, msum=wts)
    fp = _fingerprint(sc, repr(("threshold", engine, wts is not None)))
    _emit_csv(["x", "omega2_t_mhz", "converged", "region_two"],
              [tmap.x_grid, tmap.omega_t[:, 0], tmap.converged[:, 0], tmap.region_two],
              "threshold", fp, args.out)
    return 0


def _cmd_surface(args) -> int:
    sc = _load_inputs(args)
    engine, wts = _settings(args, sc, "analytic")
    x_grid = _grid(sc.scan, "x")
    dnu_grid = _grid(sc.scan, "dnu")
    cells = len(x_grid) * len(dnu_grid)
    if cells > _MAX_GRID_POINTS:
        raise ConfigError(f"surface has {cells} cells, above the limit of {_MAX_GRID_POINTS}")
    tmap = threshold.threshold_surface(engine, sc.scheme, x_grid, dnu_grid, msum=wts)
    fp = _fingerprint(sc, repr(("surface", engine, wts is not None)))
    _emit_csv(["x", "dnu_mhz", "omega2_t_mhz", "converged"],
              [np.repeat(x_grid, len(dnu_grid)), np.tile(dnu_grid, len(x_grid)),
               tmap.omega_t.ravel(), tmap.converged.ravel()],
              "surface", fp, args.out)
    return 0


def _cmd_preset(args) -> int:
    _write(_dump_scenario(_preset_scenario(args.case)), args.out)
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
    sa, da, pa = model.preset("case_a")
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
    alpha, beta = doppler.doppler_slopes(sa, da, model.DopplerParams(fwhm=1100.0))
    z1, z2 = doppler.denominator_coefficients(sa, 100.0, da.detuning_2, da.rabi_2,
                                              alpha, beta).roots()
    quad_mod = 1.0 / abs((z1 - z2) * beta / 2)
    checks.append(("closed-form root difference vs quadratic roots",
                   abs(abs(cf) - quad_mod) / quad_mod < 1e-6))
    weak = replace(da, rabi_1=rp.Gamma_2 / 20)
    grid = np.array([-600.0, -200.0, 0.0, 200.0, 600.0])
    exact = doppler.intensities("full", "I3", sa, weak, pa, grid)[0]
    numeric = doppler.average("full", "I3", sa, weak, pa,
                              doppler.QuadratureRule.gauss_hermite(200), grid).I3
    checks.append(("full-engine pole expansion vs numeric average",
                   np.max(np.abs(exact - numeric)) < 1e-6 * numeric.max()))
    close = []
    for om in (5.0, 50.0, 500.0):
        drv = replace(weak, rabi_2=om, detuning_2=0.0)
        h = max(0.5, om / 200.0)
        f = doppler.intensities("analytic", "I3", sa, drv, pa, h * threshold._STENCIL)[0]
        exact = threshold.curvature_at_zero("analytic", sa, drv, pa)
        close.append(abs(exact - threshold._second_derivative(f, h)) <= 1e-4 * f[2] / h ** 2)
    checks.append(("exact analytic curvature vs 5-point stencil", all(close)))
    alpha, beta = doppler.doppler_slopes(sa, da, pa)
    u = np.arange(-3.0, 4.0)
    lam, res, _ = liouville.velocity_poles(sa, da.rabi_1, 100.0, da.detuning_2,
                                           da.rabi_2, alpha, beta)
    poles = (res / (1 + u[:, None, None] * lam)).sum(axis=-1).real
    steady = np.transpose(liouville.populations_batch(
        sa, da, 100.0 + alpha * u, da.detuning_2 + beta * u))
    checks.append(("full-engine velocity poles vs steady state at 7 velocities",
                   np.max(np.abs(poles - steady)) <= 1e-10 * np.max(steady)))
    # every finite pole on its own, the lower member of each conjugate pair too
    ones = np.ones_like(grid)
    lam, res, _ = liouville.velocity_poles(sa, da.rabi_1, grid, da.detuning_2,
                                           da.rabi_2, alpha, beta)
    full = []
    for lam_k, res_k in zip(lam, res):
        finite = np.abs(lam_k) > doppler._ZERO_EIGENVALUE
        sign, w = doppler._signed_faddeeva(-1.0 / lam_k[finite])
        terms = res_k[:, finite] / lam_k[finite] * (sign * 1j * math.pi * w)
        full.append((res_k[:, ~finite].sum(axis=-1)
                     + terms.sum(axis=-1) / math.sqrt(math.pi)).real)
    full = np.array(full).T * [[rp.Gamma_2], [rp.Gamma_3]]
    accepted, pair = doppler._full_engine_poles("both", sa, da, grid, alpha * ones,
                                                beta * ones, da.rabi_2 * ones)
    checks.append(("full-engine pair sum vs full pole sum",
                   accepted.all() and np.all(np.abs([pair["I2"], pair["I3"]] - full)
                                             <= 1e-12 * np.abs(full))))
    for name, passed in checks:
        print(f"  {'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    print("selftest:", "OK" if ok else "FAIL")
    return 0 if ok else 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    returns a fresh namespace each time."""
    p = argparse.ArgumentParser(
        prog="cascade-at",
        description="Doppler-broadened cascade fluorescence spectra and "
                    "Autler-Townes splitting thresholds")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, default_engine):
        sp.add_argument("--scenario", help="scenario file (INI)")
        sp.add_argument("--preset", choices=("case-a", "case-b"),
                        help="use a bundled parameter set")
        sp.add_argument("--engine", choices=_ENGINES, default=None,
                        help=f"computation engine (default {default_engine})")
        sp.add_argument("--msum", choices=("on", "off"), default=None,
                        help="sum over magnetic sublevels (default off)")
        sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("spectrum", help="probe-detuning scan of I2/I3")
    add_common(sp, "full")
    sp.add_argument("--observable", choices=("I2", "I3", "both"), default="both")
    sp.add_argument("--normalize", choices=("peak", "none"), default="none")
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("threshold", help="threshold Rabi frequency vs x")
    add_common(sp, "analytic")
    sp.set_defaults(func=_cmd_threshold)

    sp = sub.add_parser("surface", help="threshold over (x, Doppler width)")
    add_common(sp, "analytic")
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
