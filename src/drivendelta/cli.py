"""Command-line front end.

Commands
--------
scan             rate curve Gamma(z) with one engine, CSV/JSON output
compare          both engines on one grid plus deviation metrics
thresholds       channel-closing table z_k over a range
demo-appendix-c  complex barrier-traversal time demo
selfcheck        itemized invariant suite

Exit codes: 0 success, 1 usage error, 2 numeric/convergence failure.
A JSON config file may predefine any long option; explicit flags win.
The environment variable DRIVENDELTA_OUTDIR sets the default output
directory for relative paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import adiabatic, analysis, model, oracle, semiclassical
from .errors import ENGINE_ERRORS, ConvergenceError, InsufficientDataError

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
    except (TypeError, ValueError):
        value = None
    if value is None or isinstance(text, bool):
        raise _UsageError(f"{what} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise _UsageError(f"{what} must be finite, got {text!r}")
    return value


def parse_range(text, require_step=True):
    """Parse start:stop[:step]; start inclusive, grid ends before stop+step/2."""
    parts = [_finite(p, f"each field of the range {text!r}")
             for p in str(text).split(":")]
    if len(parts) == 2 and not require_step:
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
    try:
        count = int(math.floor((hi - lo) / step + 0.5)) + 1
        values = lo + step * np.arange(count)
    except (OverflowError, ValueError, MemoryError):
        raise _UsageError(f"the z grid {lo:g}:{hi:g}:{step:g} must be coarser: "
                          f"its {(hi - lo) / step:.3g} points do not fit in "
                          "memory") from None
    return values[values < hi + 0.5 * step]


def _resolve_out(path, default_name):
    """The output path, a relative one under DRIVENDELTA_OUTDIR.

    Commands resolve it before any engine runs, so that a missing output
    directory is a usage error and costs no solve.
    """
    if path is None:
        path = default_name
    if not isinstance(path, str):
        raise _UsageError(f"--out must be a path, got {path!r}")
    if not os.path.isabs(path):
        base = os.environ.get("DRIVENDELTA_OUTDIR", ".")
        path = os.path.join(base, path)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise _UsageError(f"output directory {folder!r} does not exist")
    return path


def _merge_config(args, config_path, defaults):
    """Layer: hard default < config file < explicit flag."""
    config = {}
    if config_path:
        try:
            with open(config_path) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot read config file {config_path!r}: {exc}")
        if not isinstance(config, dict):
            raise _UsageError("config file must hold a JSON object")
    merged = {}
    for key, hard_default in defaults.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in config:
            merged[key] = config[key]
            if isinstance(hard_default, bool) and not isinstance(config[key], bool):
                raise _UsageError(f"--{key.replace('_', '-')} must be true or "
                                  f"false, got {config[key]!r}")
        else:
            merged[key] = hard_default
    return merged


def _positive(value, what):
    """A positive finite number from a flag or a config file; None stays unset."""
    if value is None:
        return None
    value = _finite(value, what)
    if not value > 0.0:
        raise _UsageError(f"{what} must be positive, got {value!r}")
    return value


def _whole(value, what):
    """A whole number from a flag or a config file (1.5 is not truncated)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if isinstance(value, bool) or not number.is_integer():
        raise _UsageError(f"{what} must be a whole number, got {value!r}")
    return int(number)


def _mode_and_value(opt):
    if (opt["gamma"] is None) == (opt["n_io"] is None):
        raise _UsageError("give exactly one of --gamma or --n-io")
    if opt["gamma"] is not None:
        mode, value, flag = "fixed_gamma", opt["gamma"], "--gamma"
    else:
        mode, value, flag = "fixed_n_io", opt["n_io"], "--n-io"
    return mode, _positive(value, flag)


def _mode_and_grid(opt):
    """Mode, fixed gamma or n_io, and z grid of a scan or a comparison."""
    if opt["z"] is None:
        raise _UsageError("--z start:stop:step is required")
    mode, fixed = _mode_and_value(opt)
    z_values = range_values(*parse_range(opt["z"]))
    if z_values.size == 0:
        raise _UsageError("empty z range")
    if not z_values[0] > 0.0:
        raise _UsageError(f"z must be positive, got z={z_values[0]:g}")
    return mode, fixed, z_values


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

_SCAN_DEFAULTS = dict(engine="semiclassical", gamma=None, n_io=None, z=None,
                      cycles=1, include_odd=False, oracle_dt=None,
                      sg_window=31, sg_order=3, out=None, format="csv")


def cmd_scan(args):
    opt = _merge_config(args, args.config, _SCAN_DEFAULTS)
    mode, fixed, z_values = _mode_and_grid(opt)
    paths = _scan_paths(_resolve_out(opt["out"], f"scan_{opt['engine']}.csv"),
                        opt["format"])
    try:
        scan = analysis.scan_rate(
            opt["engine"], mode, fixed, z_values,
            n_cycles=_whole(opt["cycles"], "--cycles"),
            include_odd=opt["include_odd"],
            oracle_dt=_positive(opt["oracle_dt"], "--oracle-dt"),
            sg_window=_whole(opt["sg_window"], "--sg-window"),
            sg_order=_whole(opt["sg_order"], "--sg-order"))
    except ValueError as exc:
        # engine failures never leave scan_rate; this is its input check
        raise _UsageError(str(exc))

    for path in paths:
        if path.endswith(".csv"):
            analysis.write_scan_csv(scan, path)
        else:
            analysis.write_scan_json(scan, path)

    mid = 0.5 * (z_values[0] + z_values[-1])
    bg = analysis.wkb_background(analysis._gamma_at(mode, fixed, mid), mid)
    try:
        dz_mean, dz_std = analysis.modulation_period(scan)
        period_text = f"{dz_mean:.6g} +- {dz_std:.2g}"
    except InsufficientDataError:
        period_text = "n/a (too few peaks)"
    print(f"samples: {z_values.size}")
    print(f"detected modulation period dz: {period_text}")
    print(f"WKB background 2*pi*D_avg at z={mid:.6g}: {bg:.6g}")
    for path in paths:
        print(f"wrote {path}")
    _warn_failures(scan.engine, z_values, scan.missing_indices)
    if scan.missing_indices:
        print(f"warning: {len(scan.missing_indices)} samples failed and were "
              "interpolated", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _warn_failures(engine, z_values, failures):
    for i, reason in sorted(failures.items()):
        print(f"warning: {engine} failed at z={z_values[i]:g}: {reason}",
              file=sys.stderr)


def _scan_paths(stem, fmt):
    """The CSV and/or JSON path a scan writes: ``stem`` without its suffix."""
    if fmt not in ("csv", "json", "both"):
        raise _UsageError(f"unknown format {fmt!r}")
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

_COMPARE_DEFAULTS = dict(gamma=None, n_io=None, z=None, cycles=2,
                         include_odd=False, oracle_dt=None, out=None)


def cmd_compare(args):
    opt = _merge_config(args, args.config, _COMPARE_DEFAULTS)
    mode, fixed, z_values = _mode_and_grid(opt)
    n_last = _whole(opt["cycles"], "--cycles")
    if n_last < 2:
        raise _UsageError("compare needs --cycles >= 2 (per-cycle rates)")
    oracle_dt = _positive(opt["oracle_dt"], "--oracle-dt")
    path = _resolve_out(opt["out"], "compare.csv")

    gamma_param = analysis._gamma_at(mode, fixed, z_values)
    for gamma in gamma_param[gamma_param > GAMMA_VALIDATED_MAX]:
        print(f"warning: gamma={gamma:.3g} exceeds the validated range "
              f"(~{GAMMA_VALIDATED_MAX})", file=sys.stderr)
    params = model.from_dimensionless(gamma_param, z_values)
    rates = {}
    failures = 0
    for engine in ("semiclassical", "oracle"):
        rates[engine], failed = analysis.engine_rates(
            engine, params, 1, n_last, include_odd=opt["include_odd"],
            oracle_dt=oracle_dt)
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
        offsets = _peak_offsets(z_values[good], sc_arr[good], or_arr[good],
                                mode, fixed)
        if offsets is not None:
            print(f"peak position offsets (z): {offsets}")
    return EXIT_NUMERIC if failures else EXIT_OK


def _peak_offsets(z, sc, orc, mode, fixed):
    """z offset of each oracle peak from the nearest semiclassical peak."""
    if z.size < 7:
        return None
    gamma = analysis._gamma_at(mode, fixed, z)
    idx_sc, _ = analysis._detect_peaks(z, sc, gamma)
    idx_or, _ = analysis._detect_peaks(z, orc, gamma)
    if idx_sc.size == 0 or idx_or.size == 0:
        return None
    return [round(float(z[i] - z[idx_sc[np.argmin(np.abs(z[idx_sc] - z[i]))]]), 6)
            for i in idx_or]


# ----------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------

_THRESH_DEFAULTS = dict(gamma=None, n_io=None, z=None, out=None)


def cmd_thresholds(args):
    opt = _merge_config(args, args.config, _THRESH_DEFAULTS)
    if opt["z"] is None:
        raise _UsageError("--z start:stop is required")
    mode, fixed = _mode_and_value(opt)
    lo, hi, _ = parse_range(opt["z"], require_step=False)
    path = opt["out"] not in (None, "") and _resolve_out(opt["out"], "thresholds.csv")
    try:
        ks, z_k = analysis._thresholds_in_range(mode, fixed, lo, hi)
    except ValueError as exc:
        raise _UsageError(str(exc))
    header = ["k", "z_k", "gamma_at_threshold"]
    columns = [ks, z_k, analysis._gamma_at(mode, fixed, z_k)]
    if path:
        with open(path, "w") as fh:
            analysis.write_table(fh, header, columns)
        print(f"wrote {path}")
    else:
        analysis.write_table(sys.stdout, header, columns)
    return EXIT_OK


# ----------------------------------------------------------------------
# demo + selfcheck
# ----------------------------------------------------------------------

def cmd_demo_appendix_c(args):
    value = analysis.appendix_c_demo()
    target = 1j * math.pi
    print(f"barrier traversal time: {value.real:+.12e} {value.imag:+.12e}i")
    print(f"|deviation from i*pi| = {abs(value - target):.3e}")
    return EXIT_OK


def _check(report, name, ok, detail=""):
    report.append((name, bool(ok), detail))
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))


def cmd_selfcheck(args):
    oracle_dt = _positive(args.oracle_dt, "--oracle-dt")
    report = []

    gammas = np.linspace(0.05, 5.0, 12)
    t0s = [semiclassical.tunnel_start_time(g) for g in gammas]
    err = max(max(abs(np.cos(t0) - math.sqrt(1 + g * g)),
                  abs(np.sin(t0) - 1j * g)) for g, t0 in zip(gammas, t0s))
    _check(report, "complex-time identities cos/sin(t0)", err < 1e-14,
           f"max err {err:.1e}")

    rng = np.random.default_rng(args.seed)
    ws = rng.normal(size=24) + 1j * rng.normal(size=24)
    sq_err = max(abs(semiclassical.branched_sqrt(w) ** 2 - w) / abs(w) for w in ws)
    sign = semiclassical.branched_sqrt(4.0)
    sign_ok = abs(sign - (-2.0)) < 1e-14
    _check(report, "branched sqrt sheet", sq_err < 1e-14 and sign_ok,
           f"square err {sq_err:.1e}, sqrt(4)={sign:.3g}")

    pr = model.from_dimensionless(0.7, 10.0)
    back = model.from_physical(pr.alpha, pr.mu, pr.omega)
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

    path = semiclassical.make_path(semiclassical.tunnel_start_time(0.7),
                                   2.0 * math.pi, 0.0, 0.0)
    s_closed = semiclassical.action(path)
    s_quad = semiclassical.action_by_quadrature(path)
    s_err = abs(s_closed - s_quad) / abs(s_closed)
    _check(report, "action closed form vs contour quadrature", s_err < 1e-10,
           f"rel err {s_err:.1e}")

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

    try:
        pr_off = model.from_dimensionless(0.7, 0.5)
        # the self-consistency probe sees the sqrt boundary layer at t ~ 0,
        # which sits near 1e-3 in max norm at the default step
        grid = oracle.solve_boundary_function(
            pr_off, 4.0 * math.pi, dt=oracle_dt, driven=False,
            tolerance=3e-3)
        _, w = oracle.survival_probability(grid)
        uni = abs(w - 1.0)
        _check(report, "oracle field-off unitarity", uni < 1e-4,
               f"|w-1| = {uni:.2e}")
    except ConvergenceError as exc:
        _check(report, "oracle field-off unitarity", False,
               f"convergence probe failed: {exc}")

    failures = [name for name, ok, _ in report if not ok]
    if failures:
        print(f"{len(failures)} check(s) failed: " + ", ".join(failures))
        return EXIT_NUMERIC
    print(f"all {len(report)} checks passed")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="drivendelta",
                     description="Driven delta-atom ionization rates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--gamma", type=float, help="fixed Keldysh factor")
        p.add_argument("--n-io", dest="n_io", type=float,
                       help="fixed ionization photon number")
        p.add_argument("--z", help="z range start:stop:step")
        p.add_argument("--out", help="output path")

    p_scan = sub.add_parser("scan", help="rate curve with one engine")
    common(p_scan)
    p_scan.add_argument("--engine", choices=["semiclassical", "oracle"])
    p_scan.add_argument("--cycles", type=int)
    p_scan.add_argument("--include-odd", dest="include_odd",
                        action="store_true", default=None)
    p_scan.add_argument("--oracle-dt", dest="oracle_dt", type=float)
    p_scan.add_argument("--sg-window", dest="sg_window", type=int)
    p_scan.add_argument("--sg-order", dest="sg_order", type=int)
    p_scan.add_argument("--format", choices=["csv", "json", "both"])
    p_scan.set_defaults(func=cmd_scan)

    p_cmp = sub.add_parser("compare", help="both engines on one grid")
    common(p_cmp)
    p_cmp.add_argument("--cycles", type=int)
    p_cmp.add_argument("--include-odd", dest="include_odd",
                       action="store_true", default=None)
    p_cmp.add_argument("--oracle-dt", dest="oracle_dt", type=float)
    p_cmp.set_defaults(func=cmd_compare)

    p_thr = sub.add_parser("thresholds", help="channel-closing table")
    common(p_thr)
    p_thr.set_defaults(func=cmd_thresholds)

    p_demo = sub.add_parser("demo-appendix-c", help="complex barrier demo")
    p_demo.set_defaults(func=cmd_demo_appendix_c)

    p_self = sub.add_parser("selfcheck", help="itemized invariant suite")
    p_self.add_argument("--oracle-dt", dest="oracle_dt", type=float)
    p_self.add_argument("--seed", type=int, default=7,
                        help="seed for the randomized lattice checks")
    p_self.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ENGINE_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
