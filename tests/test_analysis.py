import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import drivendelta.analysis as analysis_mod
import drivendelta.oracle as oracle_mod
import drivendelta.semiclassical as sc_mod
from drivendelta.analysis import (
    PROMINENCE_FRAC,
    RateScan,
    _parabolic_refine,
    _prominent_peaks,
    appendix_c_demo,
    barrier_traversal_time,
    engine_rates,
    modulation_offset,
    modulation_period,
    savitzky_golay,
    scan_line,
    scan_rate,
    wkb_background,
    write_scan_csv,
    write_scan_json,
)
from drivendelta.errors import NumericError
from drivendelta.model import from_dimensionless
from drivendelta.semiclassical import rate_between_cycles


# ----------------------------------------------------------------------
# Savitzky-Golay
# ----------------------------------------------------------------------

def test_sg_constant_unchanged():
    series = np.full(101, 3.7)
    out = savitzky_golay(series, 21, 3)
    assert np.allclose(out, 3.7, atol=1e-12)


def test_sg_reproduces_cubic():
    x = np.linspace(-2.0, 2.0, 201)
    series = 1.0 - 0.3 * x + 2.0 * x**2 - 0.7 * x**3
    out = savitzky_golay(series, 31, 3)
    assert np.max(np.abs(out - series)) < 1e-10


def test_sg_reduces_noise_variance():
    rng = np.random.default_rng(42)
    x = np.linspace(0.0, 6.0, 400)
    clean = np.sin(x)
    noisy = clean + 0.3 * rng.normal(size=x.size)
    out = savitzky_golay(noisy, 25, 2)
    assert np.var(out - clean) < np.var(noisy - clean)


def test_sg_endpoint_refit_stays_local():
    # a linear ramp is reproduced exactly including the truncated edges
    series = np.linspace(0.0, 10.0, 50)
    out = savitzky_golay(series, 11, 1)
    assert np.allclose(out, series, atol=1e-12)


def test_sg_series_shorter_than_the_window_is_refit_per_point():
    # every point takes the fit on the part of its window inside the series
    series = np.random.default_rng(5).normal(size=7)
    out = savitzky_golay(series, 11, 3)
    for i in range(series.size):
        lo, hi = max(0, i - 5), min(series.size, i + 6)
        coef = np.polyfit(np.arange(lo, hi) - i, series[lo:hi], 3)
        assert out[i] == pytest.approx(coef[-1], rel=1e-12, abs=1e-12)


def test_sg_validation():
    series = np.ones(20)
    with pytest.raises(ValueError):
        savitzky_golay(series, 10, 2)   # even window
    with pytest.raises(ValueError):
        savitzky_golay(series, 11, 11)  # order >= window
    with pytest.raises(ValueError):
        savitzky_golay(series, 1, 0)    # degenerate window


# ----------------------------------------------------------------------
# prominent peaks (the scan's numpy finder against scipy's)
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _scipy_peaks(y, prominence):
    from scipy.signal import find_peaks

    return find_peaks(y, prominence=prominence)[0]


def test_prominent_peaks_match_scipy_on_random_plateaus():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        n = int(rng.integers(3, 201))
        # rounding to 0.1 makes plateaus, including ones at either end
        y = np.round(rng.normal(size=n) * rng.uniform(0.1, 2.0), 1)
        span = float(y.max() - y.min())
        # whole tenths hit prominences exactly, to test the >= at the limit
        p = (rng.integers(0, 11) / 10.0 if rng.random() < 0.3
             else rng.uniform(0.0, 1.2 * span))
        got = _prominent_peaks(y, p)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, _scipy_peaks(y, p)), (y.tolist(), p)


@pytest.mark.parametrize("y, expected", [
    ([], []),
    ([1.0], []),
    ([1.0, 2.0], []),
    ([2.0, 1.0], []),
    ([1.0, 1.0, 1.0, 1.0], []),
    # a maximum at either end is no peak
    ([3.0, 1.0, 2.0, 1.0, 3.0], [2]),
    # plateaus touching either end are no peaks
    ([2.0, 2.0, 1.0, 1.5, 1.0, 2.0, 2.0], [3]),
    # an interior plateau gives its midpoint, rounded down
    ([0.0, 1.0, 1.0, 0.0], [1]),
    ([0.0, 1.0, 1.0, 1.0, 0.0], [2]),
    # a plateau that goes on rising is no peak
    ([0.0, 1.0, 1.0, 2.0, 0.0], [3]),
])
def test_prominent_peaks_edge_cases(y, expected):
    y = np.array(y, dtype=float)
    assert _prominent_peaks(y, 0.0).tolist() == expected
    assert _scipy_peaks(y, 0.0).tolist() == expected


def test_prominence_is_the_height_over_the_higher_base():
    # the bump at index 3 has bases 1.0 (left, short of the higher 3.0) and
    # 0.5 (right, short of the higher 2.0): prominence 0.25
    y = np.array([0.0, 3.0, 1.0, 1.25, 0.5, 2.0, 0.0])
    for p, expected in ((0.25, [1, 3, 5]), (0.26, [1, 5]), (1.5, [1, 5]),
                        (1.51, [1]), (3.0, [1]), (3.01, [])):
        assert _prominent_peaks(y, p).tolist() == expected
        assert _scipy_peaks(y, p).tolist() == expected


@pytest.mark.parametrize("y", [[0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0],
                               [0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 0.0]])
def test_parabolic_refine_keeps_a_plateau_peak_in_place(y):
    # three or more equal maxima lie on no parabola (zero second difference)
    y = np.array(y)
    z = np.linspace(6.0, 6.6, y.size)
    i, = _prominent_peaks(y, 0.0)
    assert y[i - 1] == y[i] == y[i + 1]
    assert _parabolic_refine(z, y, i) == z[i]


@pytest.mark.parametrize("name", ["fx_scan_gamma", "fx_scan_nio",
                                  "fx_scan_oracle"])
def test_prominent_peaks_match_scipy_on_the_golden_scans(name):
    doc = json.loads((GOLDEN / (name + ".json")).read_text())
    z = np.array(doc["z"])
    gamma = scan_line(doc["mode"], doc["fixed_value"]).gamma_at(z)
    normalized = np.array(doc["Gamma_smooth"]) / wkb_background(gamma, z)
    span = float(normalized.max() - normalized.min())
    for frac in (0.0, 0.01, PROMINENCE_FRAC, 0.2, 0.5):
        got = _prominent_peaks(normalized, frac * span)
        assert np.array_equal(got, _scipy_peaks(normalized, frac * span))


# ----------------------------------------------------------------------
# scans and period extraction
# ----------------------------------------------------------------------

def _synthetic_scan(period=0.5, z0=6.0, z1=20.0, step=0.01):
    z = np.arange(z0, z1 + step / 2, step)
    gamma = np.full_like(z, 0.7)
    series = np.cos(2.0 * np.pi * z / period)
    # synthetic peaks: reuse the production refinement on the raw cosine
    from drivendelta.analysis import _detect_peaks
    background = np.array([wkb_background(0.7, zz) for zz in z])
    idx, refined = _detect_peaks(z, series * background, gamma)
    return RateScan(mode="fixed_gamma", fixed_value=0.7, engine="semiclassical",
                    n_cycles=1, z_values=z, gamma_raw=series, gamma_smooth=None, peaks=refined,
                    peak_indices=idx, thresholds=np.array([]))


def test_modulation_period_synthetic_cosine():
    scan = _synthetic_scan(period=0.5)
    mean, std = modulation_period(scan)
    assert mean == pytest.approx(0.5, abs=1e-6)
    assert std < 1e-4


def test_modulation_period_requires_peaks():
    scan = _synthetic_scan()
    starved = RateScan(**{**scan.__dict__, "peaks": scan.peaks[:3],
                          "peak_indices": scan.peak_indices[:3]})
    assert modulation_period(starved) is None


@pytest.mark.parametrize("period", [1.0 / 1.98, 1.0])
@pytest.mark.parametrize("shift", [0.03, -0.12, 0.7])
def test_modulation_offset_recovers_a_known_shift(period, shift):
    # two modulated series on a falling background, over about 1.6 periods;
    # the fit spans them exactly, and a shift past half a period comes back
    # wrapped into [-period/2, period/2)
    z = np.linspace(8.0, 8.0 + 1.6 * period, 17)

    def modulated(peak, level):
        return (level - 0.5 * (z - 8.0)
                + 0.2 * np.cos(2.0 * np.pi * (z - peak) / period))

    offset = modulation_offset(z, modulated(8.2, 2.0),
                               modulated(8.2 + shift, 3.0), period)
    wrapped = (shift + period / 2.0) % period - period / 2.0
    assert offset == pytest.approx(wrapped, abs=1e-12)
    assert -period / 2.0 <= offset < period / 2.0


def test_scan_line_threshold_examples():
    ks, z_k = scan_line("fixed_gamma", 0.7).thresholds(0.1, 30.0)
    assert ks[0] == 1
    assert z_k[0] == pytest.approx(1.0 / 1.98, rel=1e-12)
    ks, z_k = scan_line("fixed_gamma", 1.1).thresholds(0.1, 30.0)
    assert z_k[ks == 10] == pytest.approx(10.0 / 3.42, rel=1e-12)
    # without the quiver energy's share of n_io, channel k closes at z = k
    ks, z_k = scan_line("fixed_gamma", 0.0).thresholds(0.5, 17.5)
    assert list(ks) == list(range(1, 18))
    assert np.array_equal(z_k, ks)
    # at fixed n_io the first channel open at z > 0 is floor(n_io) + 1
    ks, z_k = scan_line("fixed_n_io", 9.8).thresholds(0.1, 12.0)
    assert list(ks) == list(range(10, 22))
    assert z_k == pytest.approx(ks - 9.8, abs=1e-14)
    assert z_k[0] == pytest.approx(0.2, abs=1e-14)


@pytest.mark.parametrize("mode, fixed, z_hi", [
    ("fixed_gamma", 0.0, 2.0**53 + 2.0),
    ("fixed_gamma", 0.7, 1e300),
    ("fixed_n_io", 1e300, 2.0),
])
def test_scan_line_rejects_a_channel_index_past_2_53(mode, fixed, z_hi):
    # above 2**53 neighbouring doubles lie more than one channel apart, and
    # the scan CSV's nearest channel wrapped past int64
    line = scan_line(mode, fixed)
    with pytest.raises(ValueError) as info:
        line.thresholds(z_hi, z_hi)
    assert f"at z={z_hi:g} must be at most 2**53" in str(info.value)
    ks, _ = scan_line("fixed_gamma", 0.0).thresholds(2.0**53, 2.0**53)
    assert ks.tolist() == [2**53]


def test_scan_line_threshold_spacing_exact():
    lines = [("fixed_gamma", g, 1.0 / (1.0 + 2.0 * g**2))
             for g in (0.5, 0.7, 1.1, 2.3)]
    lines += [("fixed_n_io", n, 1.0) for n in (0.5, 9.8, 17.3)]
    for mode, fixed, spacing in lines:
        ks, z_k = scan_line(mode, fixed).thresholds(1e-3, 60.0 * spacing)
        assert ks.size >= 59
        assert np.all(np.abs(np.diff(z_k) - spacing) <= 1e-14)


@pytest.mark.parametrize("mode, fixed", [
    ("fixed_gamma", 0.3), ("fixed_gamma", 0.7), ("fixed_gamma", 2.3),
    ("fixed_n_io", 2.0), ("fixed_n_io", 9.8),
])
def test_scan_line_channel_map_inverts_the_thresholds(mode, fixed):
    line = scan_line(mode, fixed)
    ks, z_k = line.thresholds(0.05, 40.0)
    assert ks.size > 10
    assert np.all(np.abs(line.channel(z_k) - ks) <= 1e-12)
    # k = z + n_io with n_io = 2 gamma^2 z, on both kinds of line
    assert np.allclose(line.channel(z_k),
                       z_k + 2.0 * line.gamma_at(z_k)**2 * z_k, rtol=1e-13)


def test_scan_semiclassical_fixed_gamma():
    z = np.arange(6.0, 20.0 + 0.005, 0.01)
    assert z.size == 1401
    scan = scan_rate("semiclassical", "fixed_gamma", 0.7, z, n_cycles=1)
    assert scan.gamma_raw.size == 1401
    assert np.all(np.isfinite(scan.gamma_raw))
    mean, std = modulation_period(scan)
    assert mean == pytest.approx(1.0 / 1.98, rel=0.02)
    # thresholds equally spaced by 1/(1+2 gamma^2)
    spacing = np.diff(scan.thresholds)
    assert np.allclose(spacing, 1.0 / 1.98, atol=1e-12)


def test_scan_fixed_gamma_other_keldysh():
    z = np.arange(6.0, 16.0 + 0.005, 0.01)
    scan = scan_rate("semiclassical", "fixed_gamma", 1.1, z, n_cycles=1)
    mean, _ = modulation_period(scan)
    assert mean == pytest.approx(1.0 / 3.42, rel=0.02)


def test_scan_fixed_n_io_threshold_spacing_is_one(tmp_path):
    z = np.arange(2.0, 12.0 + 0.005, 0.05)
    scan = scan_rate("semiclassical", "fixed_n_io", 9.8, z, n_cycles=1)
    assert np.allclose(np.diff(scan.thresholds), 1.0, atol=1e-12)
    # the CSV's Keldysh factor varies along the scan as sqrt(n_io/(2z))
    write_scan_csv(scan, tmp_path / "scan.csv")
    with open(tmp_path / "scan.csv") as fh:
        gamma = [float(row["gamma_param"]) for row in csv.DictReader(fh)]
    assert np.allclose(gamma, np.sqrt(9.8 / (2.0 * z)), rtol=1e-11)


def _reference_rates(params, n_first, n_last, include_odd=False):
    """Per-point loop of scalar rate_between_cycles: the grid call's reference.

    A failed point is a non-finite rate here as on the grid.
    """
    return np.array([rate_between_cycles(from_dimensionless(gamma, z),
                                         n_first, n_last, include_odd=include_odd)
                     for gamma, z in zip(np.broadcast_to(params.gamma,
                                                         np.shape(params.z)),
                                         params.z)])


@pytest.mark.parametrize("mode, fixed, z_spec", [
    ("fixed_gamma", 0.7, (6.0, 20.0, 0.01)),
    ("fixed_n_io", 9.8, (6.0, 20.0, 0.01)),
])
@pytest.mark.parametrize("cycles", [1, 2])
@pytest.mark.parametrize("include_odd", [False, True])
def test_grid_scan_matches_per_point_reference(monkeypatch, mode, fixed,
                                               z_spec, cycles, include_odd):
    lo, hi, step = z_spec
    z = lo + step * np.arange(round((hi - lo) / step) + 1)
    grid = scan_rate("semiclassical", mode, fixed, z, n_cycles=cycles,
                     include_odd=include_odd)
    monkeypatch.setattr(sc_mod, "rate_between_cycles", _reference_rates)
    ref = scan_rate("semiclassical", mode, fixed, z, n_cycles=cycles,
                    include_odd=include_odd)

    scale = np.max(np.abs(ref.gamma_raw))
    assert np.max(np.abs(grid.gamma_raw - ref.gamma_raw)) <= 1e-12 * scale
    assert np.max(np.abs(grid.gamma_smooth - ref.gamma_smooth)) <= 1e-12 * scale
    assert grid.peak_indices.size >= 4
    assert np.array_equal(grid.peak_indices, ref.peak_indices)
    assert np.allclose(grid.peaks, ref.peaks, rtol=0.0, atol=1e-12)
    assert grid.missing_indices == ref.missing_indices


def test_scan_makes_one_semiclassical_call_per_grid(monkeypatch):
    calls = []

    def counted(params, n_first, n_last, include_odd=False):
        calls.append((np.shape(params.z), n_first, n_last))
        return rate_between_cycles(params, n_first, n_last,
                                   include_odd=include_odd)

    monkeypatch.setattr(sc_mod, "rate_between_cycles", counted)
    z = np.arange(8.0, 9.0 + 0.005, 0.02)
    scan_rate("semiclassical", "fixed_gamma", 0.7, z, n_cycles=1)
    assert calls == [(z.shape, 0, 1)]


def test_scan_records_and_interpolates_failures(monkeypatch):
    # the grid call marks failed points as not finite: NaN, or +inf where
    # the amplitude vanished
    failed = [3, 10, 17, 24, 31, 38, 45]

    def flaky(params, n_first, n_last, include_odd=False):
        rates = rate_between_cycles(params, n_first, n_last,
                                    include_odd=include_odd)
        rates[failed] = np.nan
        rates[failed[::2]] = np.inf
        return rates

    monkeypatch.setattr(sc_mod, "rate_between_cycles", flaky)
    z = np.arange(8.0, 9.0 + 0.005, 0.02)
    scan = scan_rate("semiclassical", "fixed_gamma", 0.7, z, n_cycles=1)
    # each failed sample keeps its reason
    assert list(scan.missing_indices) == failed
    for i, reason in scan.missing_indices.items():
        assert ("rate diverges" if i in failed[::2] else "not finite") in reason
    assert np.all(np.isnan(scan.gamma_raw[failed]))
    good = np.setdiff1d(np.arange(z.size), failed)
    assert np.all(np.isfinite(scan.gamma_raw[good]))
    assert scan.gamma_smooth is not None
    assert np.all(np.isfinite(scan.gamma_smooth))


def test_oracle_scan_records_engine_failures_per_point(monkeypatch):
    # the oracle still solves point by point; a non-finite rate at one point
    # is a missing sample with its reason, and the scan goes on
    def flaky(params, n_first, n_last, dt=None):
        if 1.25 < params.z < 1.45:
            return math.nan
        return 0.1 + 0.01 * params.z

    monkeypatch.setattr(oracle_mod, "rate_between_cycles", flaky)
    z = np.arange(1.0, 2.0 + 0.05, 0.1)
    scan = scan_rate("oracle", "fixed_gamma", 0.7, z, n_cycles=1)
    reason = "survival probability is not finite; rate is nan"
    assert scan.missing_indices == {3: reason, 4: reason}
    assert np.all(np.isnan(scan.gamma_raw[[3, 4]]))
    assert np.all(np.isfinite(scan.gamma_smooth))


def test_engine_rates_give_a_reason_for_each_failed_point(monkeypatch):
    params = from_dimensionless(np.full(4, 0.7), np.array([8.0, 8.5, 9.0, 9.5]))

    def marked(params, n_first, n_last, include_odd=False):
        rates = rate_between_cycles(params, n_first, n_last,
                                    include_odd=include_odd)
        rates[1], rates[2] = np.inf, np.nan
        return rates

    monkeypatch.setattr(sc_mod, "rate_between_cycles", marked)
    rates, failures = engine_rates("semiclassical", params, 1, 2)
    assert sorted(failures) == [1, 2]
    assert "vanished" in failures[1] and "not finite" in failures[2]
    assert np.all(np.isnan(rates[[1, 2]])) and np.all(np.isfinite(rates[[0, 3]]))

    points = []

    def flaky(params, n_first, n_last, dt=None):
        points.append(params)
        return math.inf if params.z == 9.0 else float(n_first + n_last)

    monkeypatch.setattr(oracle_mod, "rate_between_cycles", flaky)
    rates, failures = engine_rates("oracle", params, 1, 2)
    # the same rule and the same reasons as the semiclassical grid call
    assert failures == {2: "survival amplitude vanished; rate diverges"}
    assert list(rates[[0, 1, 3]]) == [3.0, 3.0, 3.0] and np.isnan(rates[2])
    assert points == [params.point(i) for i in range(4)]
    with pytest.raises(ValueError, match="unknown engine"):
        engine_rates("warpdrive", params, 1, 2)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_rate("nonsense", "fixed_gamma", 0.7, [1.0, 2.0])
    with pytest.raises(ValueError):
        scan_rate("semiclassical", "fixed_gamma", 0.7, [2.0, 1.0])


@pytest.mark.parametrize("mode, fixed, z, cycles", [
    ("fixed_gamma", 0.0, [6.0, 7.0], 1),
    ("fixed_gamma", -0.7, [6.0, 7.0], 1),
    ("fixed_n_io", 0.0, [6.0, 7.0], 1),
    ("fixed_gamma", 0.7, [0.0, 1.0], 1),
    ("fixed_n_io", 9.8, [-1.0, 1.0], 1),
    ("fixed_gamma", 0.7, [6.0, 7.0], 0),
    ("fixed_gamma", 0.7, [6.0, 7.0], 1.5),
    ("fixed_kappa", 0.7, [6.0, 7.0], 1),
    # channel thresholds that do not fit in memory, or no channel spacing
    ("fixed_gamma", 1e80, [1.0, 1.1], 1),
    ("fixed_gamma", 1e200, [1.0, 1.1], 1),
])
def test_scan_rejects_invalid_input_before_any_engine_call(monkeypatch, mode,
                                                          fixed, z, cycles):
    def engine(*args, **kwargs):
        raise AssertionError("engine called on invalid input")

    # the semiclassical grid call and the oracle's per-point call
    monkeypatch.setattr(sc_mod, "rate_between_cycles", engine)
    monkeypatch.setattr(oracle_mod, "rate_between_cycles", engine)
    for engine_name in ("semiclassical", "oracle"):
        with pytest.raises(ValueError):
            scan_rate(engine_name, mode, fixed, z, n_cycles=cycles)


@pytest.mark.parametrize("sg_window, sg_order", [
    (-3, 0), (1, 0), (30, 3), (31, -1), (5, 5),
])
def test_scan_rejects_bad_smoothing_before_any_engine_call(monkeypatch, sg_window,
                                                           sg_order):
    def engine(*args, **kwargs):
        raise AssertionError("engine called on invalid smoothing options")

    monkeypatch.setattr(analysis_mod, "engine_rates", engine)
    for engine_name in ("semiclassical", "oracle"):
        with pytest.raises(ValueError, match="smoothing"):
            scan_rate(engine_name, "fixed_gamma", 0.7, [6.0, 7.0],
                      sg_window=sg_window, sg_order=sg_order)


def test_scan_finds_no_peaks_where_the_background_underflows():
    # at gamma = 30 the WKB background underflows to 0: the rate has no
    # normalized curve, so no peaks (and no division by zero)
    scan = scan_rate("semiclassical", "fixed_gamma", 30.0, [1.0, 1.05, 1.1])
    assert np.all(wkb_background(30.0, scan.z_values) == 0.0)
    assert scan.peaks.size == 0 and scan.peak_indices.size == 0


def test_scan_clamps_the_window_to_a_short_grid():
    scan = scan_rate("semiclassical", "fixed_gamma", 0.7, [6.0, 6.1, 6.2, 6.3],
                     sg_window=31, sg_order=3)
    assert scan.filter_settings["sg_window"] == 3
    assert scan.filter_settings["sg_order"] == 2


def test_scan_propagates_non_engine_errors(monkeypatch):
    # a semiclassical point fails by a non-finite rate; any exception from
    # the grid call, an engine error included, is not a missing sample
    for error in (RuntimeError, NumericError):
        def broken(params, n_first, n_last, include_odd=False):
            raise error("not a failed point")

        monkeypatch.setattr(sc_mod, "rate_between_cycles", broken)
        with pytest.raises(error):
            scan_rate("semiclassical", "fixed_gamma", 0.7, [6.0, 7.0])


def test_oracle_scan_propagates_non_engine_errors(monkeypatch):
    # as on the semiclassical grid, any exception is not a failed point
    for error in (RuntimeError, NumericError):
        def broken(params, n_first, n_last, dt=None):
            raise error("not a failed point")

        monkeypatch.setattr(oracle_mod, "rate_between_cycles", broken)
        with pytest.raises(error):
            scan_rate("oracle", "fixed_gamma", 0.7, [6.0, 7.0])


# ----------------------------------------------------------------------
# background extraction
# ----------------------------------------------------------------------

def test_windowed_background_mean_recovers_trend(windowed_background_mean):
    period = 0.5
    z = np.arange(0.0, 10.0, 0.01)
    trend = 2.0 + 0.1 * z
    series = trend + 0.8 * np.cos(2.0 * np.pi * z / period + 0.3)
    est = windowed_background_mean(z, series, period)
    good = np.isfinite(est)
    assert np.max(np.abs(est[good] - trend[good])) < 1e-6


def test_windowed_background_handles_exponential_envelope(
        windowed_background_mean):
    # the regression keeps the residual small even when the oscillation
    # amplitude varies strongly across the window
    period = 0.505
    z = np.arange(8.0, 20.0, 0.01)
    trend = np.exp(-0.9 * z)
    series = trend * (1.0 + 40.0 * np.cos(2.0 * np.pi * z / period))
    est = windowed_background_mean(z, series, period)
    good = np.isfinite(est)
    rel = np.abs(est[good] / trend[good] - 1.0)
    assert np.max(rel) < 0.25


# ----------------------------------------------------------------------
# appendix demo
# ----------------------------------------------------------------------

def test_barrier_demo_is_i_pi():
    value = appendix_c_demo()
    assert abs(value - 1j * math.pi) < 1e-10


def test_allowed_region_time_is_real():
    value = barrier_traversal_time(-2.0, -1.0)
    assert abs(value.imag) < 1e-10
    assert value.real != 0.0


def test_complex_path_composition_identities():
    # -cosh maps the barrier paths: imaginary segment gives -cos, the
    # shifted real segment emerges as +cosh
    taus = np.linspace(0.0, math.pi, 21)
    assert np.allclose(-np.cosh(1j * taus), -np.cos(taus), atol=1e-14)
    ts = np.linspace(0.0, 3.0, 31)
    assert np.allclose(-np.cosh(ts + 1j * math.pi), np.cosh(ts), atol=1e-12)


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

def _small_scan():
    z = np.arange(8.0, 10.0 + 0.005, 0.02)
    return scan_rate("semiclassical", "fixed_gamma", 0.7, z, n_cycles=1,
                     sg_window=21)


def test_csv_schema(tmp_path):
    scan = _small_scan()
    path = tmp_path / "scan.csv"
    write_scan_csv(scan, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == scan.z_values.size
    assert list(rows[0].keys()) == ["z", "gamma_param", "Gamma_raw",
                                    "Gamma_smooth", "is_peak",
                                    "nearest_threshold_k"]
    assert float(rows[0]["z"]) == pytest.approx(8.0)
    assert sum(int(r["is_peak"]) for r in rows) == scan.peak_indices.size
    ks = [int(r["nearest_threshold_k"]) for r in rows]
    assert all(k >= 1 for k in ks)
    assert ks == sorted(ks)


def test_json_schema(tmp_path):
    scan = _small_scan()
    path = tmp_path / "scan.json"
    write_scan_json(scan, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 2
    assert doc["engine"] == "semiclassical"
    assert doc["mode"] == "fixed_gamma"
    assert len(doc["z"]) == scan.z_values.size
    assert len(doc["Gamma_raw"]) == scan.z_values.size
    assert doc["filter_settings"]["sg_window"] == 21
    assert doc["detected_period"] is None or "mean" in doc["detected_period"]


def test_emission_deterministic(tmp_path):
    scan = _small_scan()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scan_csv(scan, a)
    write_scan_csv(scan, b)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    write_scan_json(scan, ja)
    write_scan_json(scan, jb)
    assert ja.read_bytes() == jb.read_bytes()


def _json_dump_reference(scan):
    """The scan JSON as ``json.dumps(doc, sort_keys=True, separators=(",",
    ":"))`` and a line feed write it, with every array a list and a failed
    rate null."""
    period = modulation_period(scan)
    missing = sorted(scan.missing_indices)
    doc = {
        "schema_version": 2,
        "engine": scan.engine,
        "mode": scan.mode,
        "fixed_value": scan.fixed_value,
        "n_cycles": scan.n_cycles,
        "filter_settings": scan.filter_settings,
        "missing_indices": missing,
        "missing_reasons": [scan.missing_indices[i] for i in missing],
        "detected_period": None if period is None else {"mean": period[0],
                                                        "std": period[1]},
        "thresholds": scan.thresholds.tolist(),
        "z": scan.z_values.tolist(),
        "Gamma_raw": [None if math.isnan(v) else v
                      for v in scan.gamma_raw.tolist()],
        "Gamma_smooth": scan.gamma_smooth.tolist(),
        "peaks": scan.peaks.tolist(),
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _scan_with_a_failed_sample(monkeypatch):
    def flaky(params, n_first, n_last, include_odd=False):
        rates = rate_between_cycles(params, n_first, n_last,
                                    include_odd=include_odd)
        rates[7] = np.nan
        return rates

    monkeypatch.setattr(sc_mod, "rate_between_cycles", flaky)
    return scan_rate("semiclassical", "fixed_gamma", 0.7,
                     np.arange(8.0, 9.0 + 0.005, 0.02), n_cycles=1)


_JSON_SCANS = {
    "small": lambda monkeypatch: _small_scan(),
    "fixed_n_io": lambda monkeypatch: scan_rate(
        "semiclassical", "fixed_n_io", 9.8, np.arange(2.0, 4.0 + 0.005, 0.01),
        n_cycles=2, include_odd=True),
    "failed_sample": _scan_with_a_failed_sample,
    # too short for a peak or a channel closing: empty arrays, no period
    "no_peaks": lambda monkeypatch: scan_rate(
        "semiclassical", "fixed_gamma", 0.7, np.array([8.0, 8.02])),
    "one_point": lambda monkeypatch: scan_rate(
        "semiclassical", "fixed_gamma", 0.7, np.array([8.0])),
}


@pytest.mark.parametrize("case", sorted(_JSON_SCANS))
def test_json_bytes_are_those_of_json_dump(tmp_path, monkeypatch, case):
    scan = _JSON_SCANS[case](monkeypatch)
    path = tmp_path / "scan.json"
    write_scan_json(scan, path)
    written = path.read_bytes()
    assert written == _json_dump_reference(scan)

    def strict(token):
        raise AssertionError(f"{token} is not JSON")

    doc = json.loads(written, parse_constant=strict)
    if case == "failed_sample":
        assert doc["missing_indices"] == [7]
        assert doc["missing_reasons"] == [
            "survival probability is not finite; rate is nan"]
        assert doc["Gamma_raw"][7] is None and b",null," in written
        assert b"NaN" not in written
    if case in ("no_peaks", "one_point"):
        assert doc["peaks"] == doc["thresholds"] == []
        assert b'"peaks":[]' in written and b'"thresholds":[]' in written
        assert doc["detected_period"] is None
