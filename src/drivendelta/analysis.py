"""Rate-curve post-processing: scans over z, smoothing, modulation analysis.

A scan evaluates Gamma(z) with either engine at a fixed Keldysh factor
gamma or a fixed ionization photon number n_io = 2*gamma^2*z.  Channel k
closes at k = z + n_io (:func:`scan_line`), so the thresholds z_k are
spaced by 1/(1+2*gamma^2) at fixed gamma and by 1 at fixed n_io.
Smoothing uses a Savitzky-Golay filter; peaks are detected on the curve
normalized by the WKB background so that the prominence threshold is
meaningful despite the exponential decay of the rate across the scan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import oracle, semiclassical
from .adiabatic import rate_cycle_averaged
from .errors import NumericError
from .model import failure_reason, from_dimensionless, unbox

__all__ = [
    "ScanLine",
    "scan_line",
    "RateScan",
    "engine_rates",
    "scan_rate",
    "savitzky_golay",
    "modulation_period",
    "modulation_offset",
    "wkb_background",
    "barrier_traversal_time",
    "appendix_c_demo",
    "write_table",
    "write_scan_csv",
    "write_scan_json",
    "SCAN_SCHEMA_VERSION",
]

SCAN_SCHEMA_VERSION = 2
# a peak's prominence must be at least this fraction of the normalized
# curve's span.  The prominence is the peak's height above the higher of its
# two bases; a base is the lowest sample between the peak and the nearest
# higher sample on that side, or the end of the curve if there is none.
PROMINENCE_FRAC = 0.05


@dataclass
class RateScan:
    """Sampled rate curve Gamma(z) with smoothing and peak metadata."""

    mode: str                       # "fixed_gamma" | "fixed_n_io"
    fixed_value: float
    engine: str
    n_cycles: int
    z_values: np.ndarray
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


class ScanLine(NamedTuple):
    """A line of fixed gamma or fixed n_io through the (gamma, z) plane:
    ``gamma_at(z)`` is the Keldysh factor at z (the one float of a fixed
    gamma, else shaped like z), and ``channel(z) = scale*z + shift`` the
    channel k = z + n_io closing at z."""

    gamma_at: Callable
    scale: float
    shift: float

    def channel(self, z):
        return self.scale * z + self.shift

    def thresholds(self, z_lo, z_hi):
        """Arrays k and z_k of every channel that closes at 0 < z_k in
        [z_lo, z_hi]; a ValueError if they do not fit in memory or the
        channel index at z_hi exceeds 2**53."""
        try:
            ks = np.arange(max(math.floor(self.shift) + 1,
                               math.ceil(self.channel(z_lo) - 1e-9)),
                           math.floor(self.channel(z_hi) + 1e-9) + 1)
        except (ArithmeticError, ValueError, MemoryError):
            raise ValueError(f"the z range {z_lo:g}:{z_hi:g} must be narrower: "
                             "its channel thresholds do not fit in memory") from None
        if self.channel(z_hi) > 2**53:
            raise ValueError(f"the channel index k={self.channel(z_hi):.3g} at "
                             f"z={z_hi:g} must be at most 2**53: past it, "
                             "neighbouring doubles lie more than one channel apart")
        return ks, (ks - self.shift) / self.scale


def scan_line(mode, fixed_value):
    """The ScanLine of a fixed gamma, (scale, shift) = (1 + 2*gamma^2, 0), or
    of a fixed n_io, (scale, shift) = (1, n_io).  A gamma whose scale
    overflows has no channel spacing: a ValueError."""
    if mode == "fixed_gamma":
        scale = 1.0 + 2.0 * fixed_value * fixed_value
        if scale == math.inf:
            raise ValueError(f"gamma={fixed_value:g} is too large: the channel "
                             "spacing 1/(1 + 2*gamma^2) underflows to 0")
        return ScanLine(lambda z: float(fixed_value), scale, 0.0)
    if mode == "fixed_n_io":
        return ScanLine(lambda z: _gamma_of_n_io(fixed_value, z), 1.0, fixed_value)
    raise ValueError(f"unknown mode {mode!r}")


def _gamma_of_n_io(n_io, z):
    """gamma = sqrt(n_io/(2z)), shaped like z; a ValueError naming n_io and
    the first z where it over- or underflows."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        gamma = np.sqrt(n_io / (2.0 * z))
    bad = ~((gamma > 0.0) & (gamma < math.inf))
    if bad.any():
        raise ValueError(f"n_io={n_io:g} at z={z[bad][0]:g} gives no finite "
                         "positive gamma = sqrt(n_io/(2z))")
    return unbox(gamma)


def engine_rates(engine, params, n_first, n_last, include_odd=False,
                 oracle_dt=None):
    """Rates of one engine over a parameter grid, and why each failed point failed.

    Each rate is the engine's ``rate_between_cycles(params, n_first,
    n_last)``: one grid call for the semiclassical engine, one call per
    point for the oracle.  A point failed where its rate is not finite
    (:func:`drivendelta.model.failure_reason` says why); any exception
    propagates.  Returns (rates, {index: reason}), with NaN rates at the
    failed points.
    """
    if engine == "semiclassical":
        rates = semiclassical.rate_between_cycles(
            params, n_first, n_last, include_odd=include_odd)
    elif engine == "oracle":
        rates = [oracle.rate_between_cycles(params.point(i), n_first, n_last,
                                            dt=oracle_dt)
                 for i in range(np.size(params.z))]
    else:
        raise ValueError(f"unknown engine {engine!r}")
    rates = np.array(rates, dtype=float)
    failed = ~np.isfinite(rates)
    failures = {int(i): failure_reason(rates[i]) for i in np.flatnonzero(failed)}
    rates[failed] = np.nan
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
    z_values = np.asarray(z_values, dtype=float)
    if z_values.size < 1 or np.any(np.diff(z_values) <= 0.0):
        raise ValueError("z_values must be non-empty and strictly increasing")
    if not z_values[0] > 0.0:
        raise ValueError(f"z must be positive, got z={z_values[0]:g}")
    if not (math.isfinite(fixed_value) and fixed_value > 0.0):
        name = mode.removeprefix("fixed_")
        raise ValueError(f"{name} must be positive, got {name}={fixed_value!r}")
    if int(n_cycles) != n_cycles or n_cycles < 1:
        raise ValueError(f"cycles must be a positive integer, got {n_cycles!r}")
    _check_filter(sg_window, sg_order)
    line = scan_line(mode, fixed_value)
    _, thresholds = line.thresholds(z_values[0], z_values[-1])

    gamma = line.gamma_at(z_values)
    raw, missing = engine_rates(engine, from_dimensionless(gamma, z_values),
                                0, n_cycles, include_odd=include_odd,
                                oracle_dt=oracle_dt)

    filled = _fill_missing(z_values, raw, missing)
    # a window longer than the grid shrinks to the grid's largest odd count
    window = min(sg_window, z_values.size - 1 + z_values.size % 2)
    order = min(sg_order, max(window - 1, 0))
    smoothed = savitzky_golay(filled, window, order) if window >= 3 else filled.copy()
    peak_idx, peak_z = _detect_peaks(z_values, smoothed, gamma)
    return RateScan(mode=mode, fixed_value=fixed_value, engine=engine,
                    n_cycles=n_cycles, z_values=z_values, gamma_raw=raw,
                    gamma_smooth=smoothed, peaks=peak_z, peak_indices=peak_idx,
                    thresholds=thresholds, missing_indices=missing,
                    filter_settings={"sg_window": window, "sg_order": order,
                                     "prominence_frac": PROMINENCE_FRAC})


def _fill_missing(z, raw, missing):
    filled = raw.copy()
    if missing:
        good = np.isfinite(raw)
        if good.sum() < 2:
            reasons = "".join(f"\n  z={z[i]:g}: {reason}"
                              for i, reason in sorted(missing.items()))
            raise NumericError("too many engine failures to interpolate scan: "
                               f"{len(missing)} of {z.size} samples failed{reasons}")
        filled[~good] = np.interp(z[~good], z[good], raw[good])
    return filled


def _detect_peaks(z, series, gamma):
    """Peak indices and refined positions of the curve over its WKB
    background; none where that background is not positive and finite (it
    underflows to 0 at large gamma)."""
    background = wkb_background(gamma, z)
    if z.size < 3 or not np.all((background > 0.0) & (background < math.inf)):
        return np.array([], dtype=int), np.array([])
    normalized = series / background
    span = float(np.nanmax(normalized) - np.nanmin(normalized))
    if span <= 0.0 or not np.isfinite(span):
        return np.array([], dtype=int), np.array([])
    idx = _prominent_peaks(normalized, PROMINENCE_FRAC * span)
    refined = np.array([_parabolic_refine(z, normalized, i) for i in idx])
    return idx, refined


def _prominent_peaks(y, prominence):
    """Indices of the local maxima of ``y`` whose prominence is at least
    ``prominence``; the same as ``scipy.signal.find_peaks(y,
    prominence=prominence)[0]``.

    A local maximum is a run of equal samples with a lower sample on each
    side, so neither end of ``y`` is one; a run longer than one sample
    gives its midpoint, rounded down.
    """
    n = y.size
    if n < 3:
        return np.array([], dtype=int)
    # runs of equal samples; a NaN is a run of its own and no maximum
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    ends = np.append(starts[1:] - 1, n - 1)
    inner = (starts > 0) & (ends < n - 1)
    starts, ends = starts[inner], ends[inner]
    rising = y[starts - 1] < y[starts]
    falling = y[ends + 1] < y[ends]
    maxima = (starts + ends)[rising & falling] // 2

    keep = []
    for k in maxima.tolist():
        v = y[k]
        # each base lies before the nearest sample that is not <= v (a
        # higher one or a NaN) on its side
        left = np.flatnonzero(~(y[:k] <= v))
        right = np.flatnonzero(~(y[k + 1:] <= v))
        lo = left[-1] + 1 if left.size else 0
        hi = k + 1 + right[0] if right.size else n
        base = max(y[lo:k].min(initial=v), y[k + 1:hi].min(initial=v))
        if v - base >= prominence:
            keep.append(k)
    return np.array(keep, dtype=int)


def _parabolic_refine(z, y, i):
    """The vertex of the parabola through samples i - 1, i and i + 1, for an
    interior i, as _prominent_peaks gives; a plateau keeps z[i]."""
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
    """Mean and standard deviation of the peak spacings in z; None below 4 peaks."""
    if scan.peaks.size < 4:
        return None
    spacings = np.diff(scan.peaks)
    return float(spacings.mean()), float(spacings.std())


def modulation_offset(z, reference, other, period):
    """Offset in z of ``other``'s modulation peak from ``reference``'s, in
    [-period/2, period/2).

    Each series is fit by least squares to a constant, a linear trend in
    z - z_mid and the fundamental cos and sin at ``period``; its peak is
    where the fitted phase is zero.  The offset does not depend on z_mid.
    """
    x = np.asarray(z, dtype=float)
    x = x - 0.5 * (x[0] + x[-1])
    phase = 2.0 * math.pi * x / period
    design = np.column_stack([np.ones_like(x), x, np.cos(phase), np.sin(phase)])
    coef, *_ = np.linalg.lstsq(design, np.column_stack([reference, other]), rcond=None)
    peaks = period * np.arctan2(coef[3], coef[2]) / (2.0 * math.pi)
    return float((peaks[1] - peaks[0] + 0.5 * period) % period - 0.5 * period)


def barrier_traversal_time(x_start, x_end, energy=-0.5):
    """Complex traversal time integral dx / sqrt(2E + x^2) along the barrier.

    The square root uses the decaying-solution sheet (branched_sqrt), which
    maps the classically forbidden stretch |x| < sqrt(-2E) to a positive
    imaginary time increment.
    """
    from scipy.integrate import quad

    value, err = quad(
        lambda x: 1.0 / semiclassical.branched_sqrt(2.0 * energy + x * x),
        x_start, x_end, complex_func=True, limit=400, epsabs=1e-13, epsrel=1e-13)
    if err.real + err.imag > 1e-10 * max(1.0, abs(value.real) + abs(value.imag)):
        raise NumericError("barrier traversal quadrature did not converge")
    return value


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
    line = scan_line(scan.mode, scan.fixed_value)
    gamma = np.broadcast_to(line.gamma_at(scan.z_values), scan.z_values.shape)
    nearest_k = np.maximum(np.rint(line.channel(scan.z_values)), 1.0).astype(int)
    with open(path, "w", newline="") as fh:
        write_table(fh, ["z", "gamma_param", "Gamma_raw", "Gamma_smooth",
                         "is_peak", "nearest_threshold_k"],
                    [scan.z_values, gamma, scan.gamma_raw, scan.gamma_smooth,
                     is_peak, nearest_k])


def write_scan_json(scan: RateScan, path):
    """Full scan dump with metadata; schema_version marks the layout.

    The bytes are those of ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` and a line feed, with every array a list and
    every non-finite value (a failed rate) null.  Each value is encoded by
    its own ``json.dumps``, one key at a time: one call over the whole
    document holds the text of every array at once, which raised the peak
    RSS of a process that writes three 14,001-point scans by 8%.
    ``missing_reasons`` gives the reason for each index of
    ``missing_indices``.
    """
    period = modulation_period(scan)
    if period is not None:
        period = {"mean": period[0], "std": period[1]}
    missing = sorted(scan.missing_indices)
    doc = {
        "schema_version": SCAN_SCHEMA_VERSION,
        "engine": scan.engine,
        "mode": scan.mode,
        "fixed_value": scan.fixed_value,
        "n_cycles": scan.n_cycles,
        "filter_settings": scan.filter_settings,
        "missing_indices": missing,
        "missing_reasons": [scan.missing_indices[i] for i in missing],
        "detected_period": period,
        "thresholds": scan.thresholds,
        "z": scan.z_values,
        "Gamma_raw": scan.gamma_raw,
        "Gamma_smooth": scan.gamma_smooth,
        "peaks": scan.peaks,
    }
    with open(path, "w") as fh:
        for i, key in enumerate(sorted(doc)):
            value = doc[key]
            if isinstance(value, np.ndarray):
                value, bad = value.tolist(), np.flatnonzero(~np.isfinite(value))
                for j in bad.tolist():
                    value[j] = None
            fh.write(("{" if i == 0 else ",") + json.dumps(key) + ":")
            fh.write(json.dumps(value, sort_keys=True, separators=(",", ":"),
                                allow_nan=False))
        fh.write("}\n")
