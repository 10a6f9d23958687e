"""Rate-curve post-processing: scans over z, smoothing, modulation analysis.

A scan evaluates Gamma(z) with either engine at fixed Keldysh factor (the
thresholds z_k = k/(1+2*gamma^2) are then equally spaced by 1/(1+2*gamma^2))
or at fixed ionization photon number n_io (gamma varies with z and the
threshold spacing becomes exactly 1).  Smoothing uses a Savitzky-Golay
filter; peaks are detected on the curve normalized by the WKB background so
that the prominence threshold is meaningful despite the exponential decay
of the rate across the scan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.signal import find_peaks

from . import oracle, semiclassical
from .adiabatic import rate_cycle_averaged
from .errors import ENGINE_ERRORS, InsufficientDataError, NumericError
from .model import channel_threshold, from_dimensionless, rate_failure, unbox

__all__ = [
    "RateScan",
    "engine_rates",
    "scan_rate",
    "savitzky_golay",
    "modulation_period",
    "wkb_background",
    "windowed_background_mean",
    "barrier_traversal_time",
    "appendix_c_demo",
    "write_table",
    "write_scan_csv",
    "write_scan_json",
    "SCAN_SCHEMA_VERSION",
]

SCAN_SCHEMA_VERSION = 1
# a peak must rise this fraction of the normalized curve's span above its
# surroundings (scipy's prominence)
PROMINENCE_FRAC = 0.05


@dataclass
class RateScan:
    """Sampled rate curve Gamma(z) with smoothing and peak metadata."""

    mode: str                       # "fixed_gamma" | "fixed_n_io"
    fixed_value: float
    engine: str
    n_cycles: int
    z_values: np.ndarray
    gamma_param: np.ndarray         # Keldysh factor at each sample
    gamma_raw: np.ndarray           # rate samples
    gamma_smooth: np.ndarray
    peaks: np.ndarray               # refined peak positions in z
    peak_indices: np.ndarray
    thresholds: np.ndarray
    missing_indices: dict = field(default_factory=dict)  # {index: reason}
    filter_settings: dict = field(default_factory=dict)


def wkb_background(gamma, z):
    """Cycle-averaged WKB rate background 2*pi*D_avg at (gamma, z), elementwise."""
    return 2.0 * math.pi * rate_cycle_averaged(from_dimensionless(gamma, z))


def _gamma_at(mode, fixed_value, z):
    """Keldysh factor at z (scalar or array) for a fixed gamma or n_io."""
    if mode == "fixed_gamma":
        return unbox(np.full(np.shape(z), float(fixed_value)))
    return unbox(np.sqrt(fixed_value / (2.0 * np.asarray(z, dtype=float))))


def _thresholds_in_range(mode, fixed_value, z_lo, z_hi):
    """Arrays k and z_k of every channel that closes at 0 < z_k in [z_lo, z_hi]."""
    if mode == "fixed_gamma":
        spacing = channel_threshold(1, fixed_value)
        ks = np.arange(max(1, math.ceil(z_lo / spacing - 1e-9)),
                       math.floor(z_hi / spacing + 1e-9) + 1)
        return ks, channel_threshold(ks, fixed_value)
    # fixed n_io: k = n_io + z at threshold, so z_k = k - n_io with unit spacing
    ks = np.arange(max(math.floor(fixed_value) + 1,
                       math.ceil(fixed_value + z_lo - 1e-9)),
                   math.floor(fixed_value + z_hi + 1e-9) + 1)
    return ks, ks - fixed_value


def engine_rates(engine, params, n_first, n_last, include_odd=False,
                 oracle_dt=None):
    """Rates of one engine over a parameter grid, and why each failed point failed.

    Each rate is the engine's ``rate_between_cycles(params, n_first,
    n_last)``.  The semiclassical engine makes one grid call, in which a
    point failed where its rate is not finite; the oracle solves point by
    point, and a point failed where it raised ``errors.ENGINE_ERRORS`` (any
    other exception propagates).  Returns (rates, {index: reason}), with
    NaN rates at the failed points.
    """
    if engine == "semiclassical":
        rates = np.array(semiclassical.rate_between_cycles(
            params, n_first, n_last, include_odd=include_odd), dtype=float)
        failures = {int(i): str(rate_failure(rates[i]))
                    for i in np.flatnonzero(~np.isfinite(rates))}
    elif engine == "oracle":
        rates = np.full(np.shape(params.z), np.nan)
        failures = {}
        for i in range(rates.size):
            try:
                rates[i] = oracle.rate_between_cycles(
                    params.point(i), n_first, n_last, dt=oracle_dt)
            except ENGINE_ERRORS as exc:
                failures[i] = str(exc)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    rates[list(failures)] = np.nan
    return rates, failures


def scan_rate(engine, mode, fixed_value, z_values, n_cycles=1,
              include_odd=False, oracle_dt=None, sg_window=31, sg_order=3):
    """Evaluate Gamma over a z grid and post-process the curve.

    The rates come from :func:`engine_rates` with n_first = 0.  Failed
    points are recorded as missing samples, each with the engine's reason,
    and linearly interpolated before smoothing; the scan continues.
    Invalid input raises ValueError before any engine runs.

    Parameters
    ----------
    engine : "semiclassical" | "oracle"
    mode : "fixed_gamma" | "fixed_n_io"
    fixed_value : float
        The fixed Keldysh factor or the fixed ionization photon number.
    z_values : array, strictly increasing
    """
    if mode not in ("fixed_gamma", "fixed_n_io"):
        raise ValueError(f"unknown mode {mode!r}")
    z_values = np.asarray(z_values, dtype=float)
    if z_values.size < 1 or np.any(np.diff(z_values) <= 0.0):
        raise ValueError("z_values must be non-empty and strictly increasing")
    if not z_values[0] > 0.0:
        raise ValueError(f"z must be positive, got z={z_values[0]:g}")
    if not (math.isfinite(fixed_value) and fixed_value > 0.0):
        name = "gamma" if mode == "fixed_gamma" else "n_io"
        raise ValueError(f"{name} must be positive, got {name}={fixed_value!r}")
    if int(n_cycles) != n_cycles or n_cycles < 1:
        raise ValueError(f"cycles must be a positive integer, got {n_cycles!r}")
    _check_filter(sg_window, sg_order)

    gamma_param = _gamma_at(mode, fixed_value, z_values)
    raw, missing = engine_rates(engine, from_dimensionless(gamma_param, z_values),
                                0, n_cycles, include_odd=include_odd,
                                oracle_dt=oracle_dt)

    filled = _fill_missing(z_values, raw, missing)
    # a window longer than the grid shrinks to the grid's largest odd count
    window = min(sg_window, z_values.size - 1 + z_values.size % 2)
    order = min(sg_order, max(window - 1, 0))
    smoothed = savitzky_golay(filled, window, order) if window >= 3 else filled.copy()
    peak_idx, peak_z = _detect_peaks(z_values, smoothed, gamma_param)
    _, thresholds = _thresholds_in_range(mode, fixed_value,
                                         z_values[0], z_values[-1])
    return RateScan(mode=mode, fixed_value=fixed_value, engine=engine,
                    n_cycles=n_cycles, z_values=z_values,
                    gamma_param=gamma_param, gamma_raw=raw,
                    gamma_smooth=smoothed, peaks=peak_z,
                    peak_indices=peak_idx,
                    thresholds=thresholds,
                    missing_indices=missing,
                    filter_settings={"sg_window": window, "sg_order": order,
                                     "prominence_frac": PROMINENCE_FRAC})


def _fill_missing(z, raw, missing):
    filled = raw.copy()
    if missing:
        good = np.isfinite(raw)
        if good.sum() < 2:
            raise NumericError("too many engine failures to interpolate scan")
        filled[~good] = np.interp(z[~good], z[good], raw[good])
    return filled


def _detect_peaks(z, series, gamma_param):
    """Peak indices and refined positions of the curve over its WKB background."""
    if z.size < 3:
        return np.array([], dtype=int), np.array([])
    background = wkb_background(gamma_param, z)
    normalized = series / background
    span = float(np.nanmax(normalized) - np.nanmin(normalized))
    if span <= 0.0 or not np.isfinite(span):
        return np.array([], dtype=int), np.array([])
    idx, _ = find_peaks(normalized, prominence=PROMINENCE_FRAC * span)
    refined = np.array([_parabolic_refine(z, normalized, i) for i in idx])
    return idx, refined


def _parabolic_refine(z, y, i):
    if i == 0 or i == len(y) - 1:
        return z[i]
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return z[i]
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    shift = min(max(shift, -1.0), 1.0)
    return z[i] + shift * 0.5 * (z[i + 1] - z[i - 1])


def _check_filter(window, poly_order):
    if window % 2 == 0 or window < 3 or not 0 <= poly_order < window:
        raise ValueError(f"smoothing window must be odd and >= 3, and order in "
                         f"[0, window): got window={window!r}, order={poly_order!r}")


def savitzky_golay(series, window, poly_order):
    """Least-squares local polynomial smoothing.

    Interior points use the classic fixed convolution kernel; within half a
    window of either end the fit is redone on the truncated window so no
    samples are invented beyond the data.
    """
    series = np.asarray(series, dtype=float)
    _check_filter(window, poly_order)
    n = series.size
    half = window // 2
    out = np.empty_like(series)

    if n >= window:
        offsets = np.arange(-half, half + 1, dtype=float)
        vand = np.vander(offsets, poly_order + 1, increasing=True)
        kernel = np.linalg.pinv(vand)[0]
        core = np.convolve(series, kernel[::-1], mode="valid")
        out[half:n - half] = core
        edge = range(half)
    else:
        edge = range(n)

    for i in list(edge) + [n - 1 - i for i in edge]:
        lo, hi = max(0, i - half), min(n, i + half + 1)
        offs = np.arange(lo, hi, dtype=float) - i
        order = min(poly_order, hi - lo - 1)
        vand = np.vander(offs, order + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(vand, series[lo:hi], rcond=None)
        out[i] = coef[0]
    return out


def modulation_period(scan: RateScan):
    """Mean and standard deviation of consecutive peak spacings in z."""
    if scan.peaks.size < 4:
        raise InsufficientDataError(
            f"need at least 4 detected peaks, found {scan.peaks.size}")
    spacings = np.diff(scan.peaks)
    return float(spacings.mean()), float(spacings.std())


def windowed_background_mean(z_values, series, period, halfwidth_periods=1.0):
    """Local mean of the non-oscillatory part, one modulation window at a time.

    The modulation period is known, so the window average is taken by local
    harmonic regression: within each window of +-``halfwidth_periods``
    periods the series is fit with a constant, a linear trend, and the
    fundamental oscillation (with linearly drifting quadrature amplitudes);
    the constant is the background mean.  This cancels the fundamental far
    more completely than a boxcar when the modulation amplitude varies
    exponentially across the window.  Entries where the window does not fit
    are NaN.
    """
    z_values = np.asarray(z_values, dtype=float)
    series = np.asarray(series, dtype=float)
    step = z_values[1] - z_values[0]
    hw = int(round(halfwidth_periods * period / step))
    out = np.full_like(series, np.nan)
    for i in range(hw, z_values.size - hw):
        sl = slice(i - hw, i + hw + 1)
        x = z_values[sl] - z_values[i]
        ph = 2.0 * np.pi * x / period
        design = np.column_stack([np.ones_like(x), x,
                                  np.cos(ph), np.sin(ph),
                                  x * np.cos(ph), x * np.sin(ph)])
        coef, *_ = np.linalg.lstsq(design, series[sl], rcond=None)
        out[i] = coef[0]
    return out


def barrier_traversal_time(x_start, x_end, energy=-0.5):
    """Complex traversal time integral dx / sqrt(2E + x^2) along the barrier.

    The square root uses the decaying-solution sheet (branched_sqrt), which
    maps the classically forbidden stretch |x| < sqrt(-2E) to a positive
    imaginary time increment.
    """
    def f_re(x):
        return (1.0 / semiclassical.branched_sqrt(2.0 * energy + x * x)).real

    def f_im(x):
        return (1.0 / semiclassical.branched_sqrt(2.0 * energy + x * x)).imag

    re, re_err = quad(f_re, x_start, x_end, limit=400, epsabs=1e-13, epsrel=1e-13)
    im, im_err = quad(f_im, x_start, x_end, limit=400, epsabs=1e-13, epsrel=1e-13)
    if re_err + im_err > 1e-10 * max(1.0, abs(re) + abs(im)):
        raise NumericError("barrier traversal quadrature did not converge")
    return re + 1j * im


def appendix_c_demo():
    """Tunneling duration through the inverted parabola at E = -1/2 (= i*pi)."""
    return barrier_traversal_time(-1.0, 1.0, energy=-0.5)


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

def write_table(fh, header, columns):
    """Write a comma-separated table of whole columns to an open text file.

    ``header`` names the columns.  Integer columns print as ``%d``, all
    others as ``%.12g`` (NaN as ``nan``); every row ends in a line feed.
    """
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12g"
                   for c in columns) + "\n"
    fh.write(",".join(header) + "\n")
    fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def write_scan_csv(scan: RateScan, path):
    """Columns: z, gamma_param, Gamma_raw, Gamma_smooth, is_peak, nearest_threshold_k."""
    is_peak = np.zeros(scan.z_values.size, dtype=int)
    is_peak[scan.peak_indices] = 1
    if scan.mode == "fixed_gamma":
        k = scan.z_values * (1.0 + 2.0 * scan.gamma_param**2)
    else:
        k = scan.z_values + scan.fixed_value
    nearest_k = np.maximum(np.rint(k), 1.0).astype(int)
    with open(path, "w", newline="") as fh:
        write_table(fh, ["z", "gamma_param", "Gamma_raw", "Gamma_smooth",
                         "is_peak", "nearest_threshold_k"],
                    [scan.z_values, scan.gamma_param, scan.gamma_raw,
                     scan.gamma_smooth, is_peak, nearest_k])


def write_scan_json(scan: RateScan, path):
    """Full scan dump with metadata; schema_version marks the layout."""
    try:
        period_mean, period_std = modulation_period(scan)
        period = {"mean": period_mean, "std": period_std}
    except InsufficientDataError:
        period = None
    doc = {
        "schema_version": SCAN_SCHEMA_VERSION,
        "engine": scan.engine,
        "mode": scan.mode,
        "fixed_value": scan.fixed_value,
        "n_cycles": scan.n_cycles,
        "filter_settings": scan.filter_settings,
        "missing_indices": sorted(scan.missing_indices),
        "detected_period": period,
        "thresholds": scan.thresholds.tolist(),
        "z": scan.z_values.tolist(),
        "gamma_param": scan.gamma_param.tolist(),
        "Gamma_raw": [None if math.isnan(v) else v
                      for v in scan.gamma_raw.tolist()],
        "Gamma_smooth": scan.gamma_smooth.tolist(),
        "peaks": scan.peaks.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
