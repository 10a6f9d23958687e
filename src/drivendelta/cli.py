"""Command-line front end.

Commands
--------
scan             rate curve Gamma(z) with one engine, CSV/JSON output
compare          both engines on one grid plus deviation metrics
thresholds       channel-closing table z_k over a range
demo-appendix-c  complex barrier-traversal time demo
selfcheck        itemized invariant suite

Exit codes: 0 success, 1 usage error, 2 numeric/convergence failure.
Each option is declared once, in ``_COMMANDS``, with its default and its
one check.  A JSON config file (``--config``) may set any option of its
command; a flag wins over the file, and a value from either goes through
the same check.  The environment variable DRIVENDELTA_OUTDIR sets the
default output directory for relative paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import adiabatic, analysis, model, oracle, semiclassical
from .errors import ENGINE_ERRORS, ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

GAMMA_VALIDATED_MAX = 2.5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _finite(text, what):
    """A finite float from a flag or a config value (a JSON boolean is not one)."""
    try:
        value = float(text)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or isinstance(text, bool):
        raise _UsageError(f"{what} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise _UsageError(f"{what} must be finite, got {text!r}")
    return value


def parse_range(text, require_step=True):
    """Parse start:stop:step, or start:stop (step None) if not require_step.

    The start is inclusive; range_values gives the grid.
    """
    parts = [_finite(p, f"each field of the range {text!r}")
             for p in text.split(":")]
    if not require_step:
        if len(parts) != 2:
            raise _UsageError(f"range must be start:stop, got {text!r}")
        lo, hi = parts
        if hi <= lo:
            raise _UsageError(f"empty range {text!r}")
        return lo, hi, None
    if len(parts) != 3:
        raise _UsageError(f"range must be start:stop:step, got {text!r}")
    lo, hi, step = parts
    if step <= 0.0 or hi < lo:
        raise _UsageError(f"empty or inverted range {text!r}")
    return lo, hi, step


def range_values(lo, hi, step):
    """lo + k*step for k >= 0 with k*step < (hi - lo) + step/2.

    Offsets from lo are compared, since hi + step/2 rounds to hi where step
    is below hi's last digit.
    """
    try:
        count = int(math.floor((hi - lo) / step + 0.5)) + 1
        offsets = step * np.arange(count)
        values = lo + offsets
    except (OverflowError, ValueError, MemoryError):
        raise _UsageError(f"the z grid {lo:g}:{hi:g}:{step:g} must be coarser: "
                          f"its {(hi - lo) / step:.3g} points do not fit in "
                          "memory") from None
    return values[offsets < (hi - lo) + 0.5 * step]


def _resolve_out(path, default_name, fmt=None):
    """The paths a command writes: ``path``, else ``default_name``, a
    relative one under DRIVENDELTA_OUTDIR; for a scan of format ``fmt``, its
    stem plus each suffix it writes.

    Commands resolve them before any engine runs, so that a path that names
    no file, names a directory or lies in a missing directory is a usage
    error and costs no solve.
    """
    if path is None:
        path = default_name
    if not os.path.isabs(path):
        base = os.environ.get("DRIVENDELTA_OUTDIR", ".")
        path = os.path.join(base, path)
    if os.path.basename(path) in ("", ".", ".."):
        raise _UsageError(f"output path {path!r} names no file")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise _UsageError(f"output directory {folder!r} does not exist")
    paths = [path] if fmt is None else _scan_paths(path, fmt)
    for written in paths:
        if os.path.isdir(written):
            raise _UsageError(f"output path {written!r} is a directory")
    return paths


def _positive(value, what):
    """A positive finite number from a flag or a config file."""
    value = _finite(value, what)
    if not value > 0.0:
        raise _UsageError(f"{what} must be positive, got {value!r}")
    return value


def _whole(value, what):
    """A whole number from a flag or a config file (1.5 is not truncated)."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not number.is_integer():
        raise _UsageError(f"{what} must be a whole number, got {value!r}")
    return int(number)


def _boolean(value, what):
    """A flag given, or a JSON boolean from a config file."""
    if not isinstance(value, bool):
        raise _UsageError(f"{what} must be true or false, got {value!r}")
    return value


def _text(value, what):
    if not isinstance(value, str):
        raise _UsageError(f"{what} must be a string, got {value!r}")
    return value


def _one_of(*choices):
    def check(value, what):
        if value not in choices:
            raise _UsageError(f"{what} must be one of {', '.join(choices)}, "
                              f"got {value!r}")
        return value
    return check


def _mode_and_value(opt):
    """Mode, fixed gamma or n_io, and the scan line through them."""
    if (opt["gamma"] is None) == (opt["n_io"] is None):
        raise _UsageError("give exactly one of --gamma or --n-io")
    mode, fixed = (("fixed_gamma", opt["gamma"]) if opt["gamma"] is not None
                   else ("fixed_n_io", opt["n_io"]))
    try:
        return mode, fixed, analysis.scan_line(mode, fixed)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _mode_and_grid(opt):
    """Mode, fixed gamma or n_io, scan line and z grid of a scan or a
    comparison."""
    if opt["z"] is None:
        raise _UsageError("--z start:stop:step is required")
    mode, fixed, line = _mode_and_value(opt)
    z_values = range_values(*parse_range(opt["z"]))
    if z_values.size == 0:
        raise _UsageError("empty z range")
    if not z_values[0] > 0.0:
        raise _UsageError(f"z must be positive, got z={z_values[0]:g}")
    return mode, fixed, line, z_values


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

# a scan runs one engine, so an option of the other engine is a usage error
_ENGINE_OF_OPTION = {"include_odd": "semiclassical", "oracle_dt": "oracle"}


def cmd_scan(opt):
    for name, engine in _ENGINE_OF_OPTION.items():
        if opt[name] and opt["engine"] != engine:
            raise _UsageError(f"--{name.replace('_', '-')} must be left out "
                              f"of a scan with --engine {opt['engine']}: it "
                              f"belongs to the {engine} engine")
    mode, fixed, line, z_values = _mode_and_grid(opt)
    paths = _resolve_out(opt["out"], f"scan_{opt['engine']}.csv", opt["format"])
    try:
        scan = analysis.scan_rate(
            opt["engine"], mode, fixed, z_values, n_cycles=opt["cycles"],
            include_odd=opt["include_odd"], oracle_dt=opt["oracle_dt"],
            sg_window=opt["sg_window"], sg_order=opt["sg_order"])
    except ValueError as exc:
        # engine failures never leave scan_rate: this is an input check
        raise _UsageError(str(exc))

    for path in paths:
        if path.endswith(".csv"):
            analysis.write_scan_csv(scan, path)
        else:
            analysis.write_scan_json(scan, path)

    mid = 0.5 * (z_values[0] + z_values[-1])
    bg = analysis.wkb_background(line.gamma_at(mid), mid)
    period = analysis.modulation_period(scan)
    period_text = ("n/a (too few peaks)" if period is None
                   else "{:.6g} +- {:.2g}".format(*period))
    print(f"samples: {z_values.size}")
    print(f"detected modulation period dz: {period_text}")
    print(f"WKB background 2*pi*D_avg at z={mid:.6g}: {bg:.6g}")
    for path in paths:
        print(f"wrote {path}")
    _warn_coarse_oracle_dt(opt["oracle_dt"], line.gamma_at(z_values), z_values)
    _warn_failures(scan.engine, z_values, scan.missing_indices)
    if scan.missing_indices:
        print(f"warning: {len(scan.missing_indices)} samples failed and were "
              "interpolated", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _warn_coarse_oracle_dt(dt, gamma, z_values):
    """One warning naming the grid points where the oracle's maximum step
    ``dt`` is coarser than its default step, and that step."""
    if dt is None:
        return
    params = model.from_dimensionless(gamma, z_values)
    points = [params.point(i) for i in range(np.size(params.z))]
    try:
        steps = list(map(oracle.default_time_step, points))
    except ValueError as exc:  # a gamma too large for the oracle
        raise _UsageError(str(exc))
    coarse = [f"z={p.z:g} ({step:.3g})" for p, step in zip(points, steps)
              if dt > step]
    if coarse:
        print(f"warning: --oracle-dt {dt:g} is coarser than the oracle's default "
              "step at " + ", ".join(coarse) + ": the march may be unresolved there",
              file=sys.stderr)


def _warn_failures(engine, z_values, failures):
    for i, reason in sorted(failures.items()):
        print(f"warning: {engine} failed at z={z_values[i]:g}: {reason}",
              file=sys.stderr)


def _scan_paths(stem, fmt):
    """The CSV and/or JSON path a scan writes: ``stem`` without its suffix."""
    base = stem
    for suffix in (".csv", ".json"):
        if base.endswith(suffix):
            base = base[:-len(suffix)]
            break
    return [base + suffix for suffix in (".csv", ".json")
            if fmt in (suffix[1:], "both")]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def cmd_compare(opt):
    _, _, line, z_values = _mode_and_grid(opt)
    n_last = opt["cycles"]
    if n_last < 2:
        raise _UsageError("compare needs --cycles >= 2 (per-cycle rates)")
    path, = _resolve_out(opt["out"], "compare.csv")

    try:
        gamma = line.gamma_at(z_values)
    except ValueError as exc:  # a fixed n_io whose gamma over- or underflows
        raise _UsageError(str(exc))
    gamma_param = np.broadcast_to(gamma, z_values.shape)
    beyond = gamma_param > GAMMA_VALIDATED_MAX
    if beyond.any():
        print(f"warning: gamma up to {np.max(gamma_param):.3g} exceeds the "
              f"validated range (~{GAMMA_VALIDATED_MAX}) at z="
              + ", ".join(f"{z:g}" for z in z_values[beyond]), file=sys.stderr)
    params = model.from_dimensionless(gamma, z_values)
    _warn_coarse_oracle_dt(opt["oracle_dt"], gamma, z_values)
    rates = {}
    failures = 0
    # the oracle first: a solve too large for memory stops before any packet sum
    for engine in ("oracle", "semiclassical"):
        try:
            rates[engine], failed = analysis.engine_rates(
                engine, params, 1, n_last, include_odd=opt["include_odd"],
                oracle_dt=opt["oracle_dt"])
        except ValueError as exc:  # an engine's input check
            raise _UsageError(str(exc))
        _warn_failures(engine, z_values, failed)
        failures += len(failed)
        below = z_values[rates[engine] < 0.0]
        if below.size:
            print(f"warning: {engine} rate below zero at z="
                  + ", ".join(f"{z:g}" for z in below)
                  + f": the survival probability rose from cycle 1 to {n_last}",
                  file=sys.stderr)
    sc_arr, or_arr = rates["semiclassical"], rates["oracle"]

    ratio = or_arr / np.where(sc_arr != 0.0, sc_arr, np.nan)
    with open(path, "w") as fh:
        analysis.write_table(
            fh, ["z", "gamma_param", "Gamma_semiclassical", "Gamma_oracle",
                 "ratio"], [z_values, gamma_param, sc_arr, or_arr, ratio])
    print(f"wrote {path}")

    good = np.isfinite(sc_arr) & np.isfinite(or_arr)
    if good.any() and np.mean(sc_arr[good]) != 0.0:
        ratio = float(np.mean(or_arr[good]) / np.mean(sc_arr[good]))
        print(f"mean cycle-smoothed rate ratio oracle/semiclassical: {ratio:.4g}")
        if good.sum() >= 7:
            offset = analysis.modulation_offset(z_values[good], sc_arr[good],
                                                or_arr[good], 1.0 / line.scale)
            print(f"modulation peak offset oracle - semiclassical (z): "
                  f"{offset:+.3f}")
    return EXIT_NUMERIC if failures else EXIT_OK


# ----------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------

def cmd_thresholds(opt):
    if opt["z"] is None:
        raise _UsageError("--z start:stop is required")
    _, _, line = _mode_and_value(opt)
    lo, hi, _ = parse_range(opt["z"], require_step=False)
    paths = [] if opt["out"] is None else _resolve_out(opt["out"], None)
    try:
        ks, z_k = line.thresholds(lo, hi)
        gamma = np.broadcast_to(line.gamma_at(z_k), z_k.shape)
    except ValueError as exc:
        raise _UsageError(str(exc))
    header = ["k", "z_k", "gamma_at_threshold"]
    columns = [ks, z_k, gamma]
    for path in paths:
        with open(path, "w") as fh:
            analysis.write_table(fh, header, columns)
        print(f"wrote {path}")
    if not paths:
        analysis.write_table(sys.stdout, header, columns)
    return EXIT_OK


# ----------------------------------------------------------------------
# demo + selfcheck
# ----------------------------------------------------------------------

def cmd_demo_appendix_c(opt):
    value = analysis.appendix_c_demo()
    target = 1j * math.pi
    print(f"barrier traversal time: {value.real:+.12e} {value.imag:+.12e}i")
    print(f"|deviation from i*pi| = {abs(value - target):.3e}")
    return EXIT_OK


def _check(report, name, ok, detail=""):
    report.append((name, bool(ok), detail))
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))


def cmd_selfcheck(opt):
    report = []

    gammas = np.linspace(0.05, 5.0, 12)
    t0s = [semiclassical.tunnel_start_time(g) for g in gammas]
    err = max(max(abs(np.cos(t0) - math.sqrt(1 + g * g)),
                  abs(np.sin(t0) - 1j * g)) for g, t0 in zip(gammas, t0s))
    _check(report, "complex-time identities cos/sin(t0)", err < 1e-14,
           f"max err {err:.1e}")

    rng = np.random.default_rng(7)
    ws = rng.normal(size=24) + 1j * rng.normal(size=24)
    sq_err = max(abs(semiclassical.branched_sqrt(w) ** 2 - w) / abs(w) for w in ws)
    sign = semiclassical.branched_sqrt(4.0)
    sign_ok = abs(sign - (-2.0)) < 1e-14
    _check(report, "branched sqrt sheet", sq_err < 1e-14 and sign_ok,
           f"square err {sq_err:.1e}, sqrt(4)={sign:.3g}")

    back = model.from_physical(1.4 * math.sqrt(10.0), 2.0 * math.sqrt(10.0), 1.0)
    _check(report, "parameter round trip",
           abs(back.gamma - 0.7) < 1e-12 and abs(back.z - 10.0) < 1e-12)

    ratios = []
    for h in (0.05, 0.025, 0.0125):
        p = model.from_dimensionless(0.7, 1.0 / (4.0 * h))
        ratios.append(adiabatic.rate_cycle_averaged(p)
                      / adiabatic.cycle_average_quadrature(p))
    mono = ratios[0] > ratios[1] > ratios[2] > 1.0
    _check(report, "saddle point vs quadrature", mono and ratios[-1] < 1.1,
           "ratios " + ", ".join(f"{r:.4f}" for r in ratios))

    t0 = semiclassical.tunnel_start_time(0.7)
    s_closed = model.volkov_action(model.drive(2.0 * math.pi), model.drive(t0))
    s_quad = semiclassical.action_by_quadrature(t0, 2.0 * math.pi)
    s_err = abs(s_closed - s_quad) / abs(s_closed)
    _check(report, "action closed form vs contour quadrature", s_err < 1e-10,
           f"rel err {s_err:.1e}")

    pr = model.from_dimensionless(0.7, 10.0)
    amp = semiclassical.survival_amplitude(pr, 1)
    t0 = semiclassical.tunnel_start_time(pr.gamma)
    assembled = (-4.0 * pr.h / pr.gamma
                 * semiclassical.volkov_propagator(0.0, 2.0 * math.pi, 0.0, t0, pr)
                 * adiabatic.bound_propagator_factor(pr, t0))
    one_err = abs(assembled - amp.packet_terms[0].value) / abs(assembled)
    _check(report, "one-period packet assembly", one_err < 1e-12,
           f"rel err {one_err:.1e}")

    ac = analysis.appendix_c_demo()
    ac_err = abs(ac - 1j * math.pi)
    _check(report, "barrier demo i*pi", ac_err < 1e-10, f"err {ac_err:.1e}")

    pr_off = model.from_dimensionless(0.7, 0.5)
    _warn_coarse_oracle_dt(opt["oracle_dt"], pr_off.gamma, pr_off.z)
    try:
        # the self-consistency probe sees the sqrt boundary layer at t ~ 0,
        # which sits near 1e-3 in max norm at the default step
        grid = oracle.solve_boundary_function(
            pr_off, 2, dt=opt["oracle_dt"], driven=False, tolerance=3e-3)
        _, w = oracle.survival_probability(grid, 2)
        uni = abs(w - 1.0)
        _check(report, "oracle field-off unitarity", uni < 1e-4,
               f"|w-1| = {uni:.2e}")
    except ConvergenceError as exc:
        _check(report, "oracle field-off unitarity", False,
               f"convergence probe failed: {exc}")
    except ValueError as exc:
        raise _UsageError(str(exc))

    failures = [name for name, ok, _ in report if not ok]
    if failures:
        print(f"{len(failures)} check(s) failed: " + ", ".join(failures))
        return EXIT_NUMERIC
    print(f"all {len(report)} checks passed")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_GRID = {
    "config": (None, _text, "JSON file with option defaults"),
    "gamma": (None, _positive, "fixed Keldysh factor"),
    "n_io": (None, _positive, "fixed ionization photon number"),
    "z": (None, _text, "z range start:stop:step"),
    "out": (None, _text, "output path"),
}
_ORACLE_DT = {"oracle_dt": (None, _positive, None)}
_ENGINES = {"include_odd": (False, _boolean, None), **_ORACLE_DT}

# command: (handler, help, {option: (default, check, help)})
_COMMANDS = {
    "scan": (cmd_scan, "rate curve with one engine", {
        **_GRID,
        "engine": ("semiclassical", _one_of("semiclassical", "oracle"), None),
        "cycles": (1, _whole, None),
        **_ENGINES,
        "sg_window": (31, _whole, None),
        "sg_order": (3, _whole, None),
        "format": ("csv", _one_of("csv", "json", "both"), None)}),
    "compare": (cmd_compare, "both engines on one grid", {
        **_GRID, "cycles": (2, _whole, None), **_ENGINES}),
    "thresholds": (cmd_thresholds, "channel-closing table", {
        **_GRID, "z": (None, _text, "z range start:stop")}),
    "demo-appendix-c": (cmd_demo_appendix_c, "complex barrier demo", {}),
    "selfcheck": (cmd_selfcheck, "itemized invariant suite", _ORACLE_DT),
}


def build_parser():
    parser = _Parser(prog="drivendelta",
                     description="Driven delta-atom ionization rates")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, (default, _, option_help) in options.items():
            # every flag is plain text (a switch is True); its check converts it
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           action="store_true" if default is False else "store",
                           default=None, help=option_help)
    return parser


def _options(args):
    """Each option of the command: its flag, else the config file, else its
    default.  A value goes through the option's check before the command
    runs; a null in the file leaves an option whose default is None unset,
    and a key that is not an option of the command is a usage error.
    """
    _, _, options = _COMMANDS[args.command]
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(config, dict):
            raise _UsageError("config file must hold a JSON object")
        config.pop("config", None)  # a config file names no other one
        unknown = [repr(key) for key in config if key not in options]
        if unknown:
            known = ", ".join(name for name in options if name != "config")
            raise _UsageError(f"each config key must be an option of "
                              f"{args.command} ({known}), got {', '.join(unknown)}")
    opt = {}
    for name, (default, check, _) in options.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name, default)
        if value is not None or default is not None:
            value = check(value, "--" + name.replace("_", "-"))
        opt[name] = value
    return opt


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](_options(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ENGINE_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
