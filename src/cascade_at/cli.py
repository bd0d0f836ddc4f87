"""Scenario-driven command line front end.

Subcommands: ``spectrum`` (probe-detuning scan), ``threshold`` (x sweep),
``surface`` (x times Doppler-width sweep), ``selftest`` (Faddeeva
conformance, preset anchors and each exact engine against its numeric
oracle) and ``preset`` (dump a bundled scenario file).  Output is
deterministic CSV: identical inputs and flags produce byte-identical files.

The argument parser is built once per process, so repeated in-process
:func:`run` calls only parse.  Each command takes exactly one of
``--scenario`` and ``--preset``; the engine and the M sum are set by
``--engine`` and ``--msum`` only.

A scenario file is INI without interpolation (a ``%`` in a value is a
literal character).  Its sections ``[levels]``, ``[fields]`` and
``[doppler]`` hold the fields of :class:`~cascade_at.model.LevelScheme`,
:class:`~cascade_at.model.DriveParams` and
:class:`~cascade_at.model.DopplerParams`: the keys, their int or float type
and the defaults of the keys that may be left out all come from the
dataclasses.  ``[scan]`` holds the grids of ``_DEFAULT_SCAN``.  ``preset``
writes every field that is set, in the same layout.

Only the commands that compute (``spectrum``, ``threshold``, ``surface``
and ``selftest``) import numpy and the engine modules, all of them at once
in :func:`_load_engines` and only after the scenario is read: ``preset``,
``--help``, a usage error and a missing or malformed scenario file end
without them.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace

from . import model
from .errors import CascadeError, ConfigError

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


# scenario section -> the Scenario attribute and model dataclass it holds;
# [scan] holds the grids of _DEFAULT_SCAN
_SECTIONS = {"levels": ("scheme", model.LevelScheme),
             "fields": ("drive", model.DriveParams),
             "doppler": ("dopp", model.DopplerParams)}

# section -> key -> type: a field annotated int is read as int, every other
# key as float
_KEY_TYPES = {section: {f.name: int if f.type in (int, "int") else float for f in fields(cls)}
              for section, (_, cls) in _SECTIONS.items()}
_KEY_TYPES["scan"] = dict.fromkeys(_DEFAULT_SCAN, float)


def _parse_scenario(path: str) -> Scenario:
    """The scenario of an INI file: each model section's keys are the fields
    of its dataclass, and a field with a default may be left out."""
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
        if section not in _KEY_TYPES:
            raise ConfigError(f"unknown scenario section [{section}]")
        for key in values:
            if key not in _KEY_TYPES[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def read(section):
        out = {}
        for key, text in raw.get(section, {}).items():
            try:
                out[key] = _KEY_TYPES[section][key](text)
            except ValueError:
                raise ConfigError(f"bad value for {section}.{key}: {text!r}")
            if not math.isfinite(out[key]):
                raise ConfigError(f"{section}.{key} must be finite, got {text!r}")
        return out

    parts = {}
    for section, (attr, cls) in _SECTIONS.items():
        if section not in raw:
            raise ConfigError(f"scenario is missing section [{section}]")
        for f in fields(cls):
            if f.default is MISSING and f.name not in raw[section]:
                raise ConfigError(f"scenario is missing a required key: [{section}] {f.name}")
        parts[attr] = cls(**read(section))
    # no command reads the probe detuning: a value other than 0 would be ignored
    if parts["drive"].detuning_1 != 0.0:
        raise ConfigError("[fields] detuning_1 must be 0: spectrum scans Delta_1 over "
                          "[scan] delta1_start, delta1_stop and delta1_step")
    return Scenario(**parts, scan=_DEFAULT_SCAN | read("scan"))


def _preset_scenario(case: str) -> Scenario:
    scheme, drive, dopp = model.preset(case.replace("-", "_"))
    return Scenario(scheme=scheme, drive=drive, dopp=dopp, scan=dict(_DEFAULT_SCAN))


def _dump_scenario(sc: Scenario) -> str:
    """The scenario file of ``sc``: every field that is set, in dataclass
    order, and the scan grids."""
    # the keys of a model section are its dataclass's field names, in order;
    # the values are scalars, which need no copy
    sections = {section: {key: getattr(getattr(sc, attr), key) for key in _KEY_TYPES[section]}
                for section, (attr, _) in _SECTIONS.items()}
    sections["scan"] = sc.scan
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {val!r}" for key, val in values.items() if val is not None]
        lines.append("")
    return "\n".join(lines)


def _load_engines() -> None:
    """Import numpy and every engine module, as one unit: the first command
    that computes pays for all of them, and after it every module that a
    caller may patch between calls (the benchmark's span tracer does) is
    loaded, whichever engine the command used."""
    import numpy  # noqa: F401

    from . import doppler, faddeeva, lineshape, liouville, msublevel, threshold  # noqa: F401


def _grid(scan: dict, prefix: str):
    import numpy as np

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
    import hashlib

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
    import numpy as np

    texts = []
    for col in map(np.asarray, columns):
        if col.dtype == bool:
            texts.append(["1" if v else "0" for v in col.tolist()])
        else:
            texts.append([f"{v:.9g}" for v in col.tolist()])
    lines = [f"# cascade-at v1 {subcommand} {fingerprint}", ",".join(header_cols)]
    lines += map(",".join, zip(*texts))
    _write("\n".join(lines) + "\n", out)


def _inputs(args):
    """The scenario of ``--scenario`` or ``--preset``, and the M-sublevel
    weights of ``--msum`` (None when off).  The engines load once the
    scenario is read."""
    sc = _parse_scenario(args.scenario) if args.scenario else _preset_scenario(args.preset)
    _load_engines()
    from . import msublevel

    wts = msublevel.weights(sc.scheme.j2, sc.scheme.j3) if args.msum == "on" else None
    return sc, wts


def _compute_spectrum(sc: Scenario, engine, observable, wts):
    """The columns of ``observable`` by name, summed over the M weights
    ``wts`` (none when None) by :func:`cascade_at.doppler.intensities`."""
    from . import doppler

    grid = _grid(sc.scan, "delta1")
    rows = doppler.intensities(engine, sc.scheme, sc.drive, sc.dopp, grid, msum=wts)
    return grid, {name: row for name, row in zip(("I2", "I3"), rows)
                  if observable in (name, "both")}


def _cmd_spectrum(args) -> int:
    sc, wts = _inputs(args)
    from . import doppler

    grid, cols = _compute_spectrum(sc, args.engine, args.observable, wts)
    if args.normalize == "peak":
        for key, arr in cols.items():
            peak = arr.max()
            if peak > 0:
                cols[key] = arr / peak
    fp = _fingerprint(sc, repr(("spectrum", args.engine, args.observable,
                                doppler.FALLBACK_QUAD_ORDER, wts is not None,
                                args.normalize)))
    _emit_csv(["delta1_mhz", *cols], [grid, *cols.values()], "spectrum", fp, args.out)
    return 0


def _cmd_threshold(args) -> int:
    sc, wts = _inputs(args)
    from . import threshold

    x_grid = _grid(sc.scan, "x")
    tmap = threshold.threshold_curve(args.engine, sc.scheme, x_grid, sc.dopp, msum=wts)
    fp = _fingerprint(sc, repr(("threshold", args.engine, wts is not None)))
    _emit_csv(["x", "omega2_t_mhz", "converged", "region_two"],
              [tmap.x_grid, tmap.omega_t[:, 0], tmap.converged[:, 0], tmap.region_two],
              "threshold", fp, args.out)
    return 0


def _cmd_surface(args) -> int:
    sc, wts = _inputs(args)
    import numpy as np

    from . import threshold

    x_grid = _grid(sc.scan, "x")
    dnu_grid = _grid(sc.scan, "dnu")
    cells = len(x_grid) * len(dnu_grid)
    if cells > _MAX_GRID_POINTS:
        raise ConfigError(f"surface has {cells} cells, above the limit of {_MAX_GRID_POINTS}")
    tmap = threshold.threshold_surface(args.engine, sc.scheme, x_grid, dnu_grid, msum=wts)
    fp = _fingerprint(sc, repr(("surface", args.engine, wts is not None)))
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
    _load_engines()
    import numpy as np

    from . import doppler, faddeeva, threshold

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

    # preset anchors and invariants
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
    # perturbative: the stencil over the numeric sum, without partial fractions
    close = []
    for om in (5.0, 50.0, 500.0):
        drv = replace(weak, rabi_2=om, detuning_2=0.0)
        h = max(0.5, om / 200.0)
        f0 = doppler.intensities("analytic", sa, drv, pa, 0.0)[1]
        exact = threshold.curvature_at_zero("analytic", sa, drv, pa)
        stencil = threshold.curvature_at_zero("perturbative", sa, drv, pa)
        close.append(abs(exact - stencil) <= 1e-4 * f0 / h ** 2)
    checks.append(("exact analytic curvature vs 5-point stencil", all(close)))
    # each exact engine against its numeric oracle, both rows; at x = -1
    # (Doppler-free, alpha + beta = 0) the full engine's poles take the Schur form
    grid = np.array([-600.0, -200.0, 0.0, 200.0, 600.0])
    rule = doppler.QuadratureRule.gauss_hermite(200)
    free = replace(sa, wavenumber_32=sa.wavenumber_21)
    for engine, oracle, sch, where in (("full", "full", sa, "case a"),
                                       ("full", "full", free, "x = -1 (Doppler-free)"),
                                       ("analytic", "perturbative", sa, "case a")):
        exact = doppler.intensities(engine, sch, weak, pa, grid)
        numeric = doppler.average(oracle, sch, weak, pa, rule, grid)
        peak = numeric.max(axis=-1, keepdims=True)
        checks.append((f"{engine} engine vs numeric {oracle} average, {where}",
                       np.all(np.abs(exact - numeric) < 1e-6 * peak)))
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
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", help="scenario file (INI)")
        source.add_argument("--preset", choices=("case-a", "case-b"),
                            help="use a bundled parameter set")
        sp.add_argument("--engine", choices=_ENGINES, default=default_engine,
                        help="computation engine (default %(default)s)")
        sp.add_argument("--msum", choices=("on", "off"), default="off",
                        help="sum over magnetic sublevels (default %(default)s)")
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

    sp = sub.add_parser("selftest", help="Faddeeva conformance and engine checks")
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
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3


def main() -> None:
    sys.exit(run())
