import csv
import json
import math

import numpy as np
import pytest

import drivendelta.analysis as analysis_mod
import drivendelta.oracle as oracle_mod
import drivendelta.semiclassical as sc_mod
from drivendelta.analysis import (
    RateScan,
    appendix_c_demo,
    barrier_traversal_time,
    engine_rates,
    modulation_period,
    savitzky_golay,
    scan_rate,
    windowed_background_mean,
    wkb_background,
    write_scan_csv,
    write_scan_json,
)
from drivendelta.errors import InfiniteRateError, InsufficientDataError, NumericError
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


def test_sg_validation():
    series = np.ones(20)
    with pytest.raises(ValueError):
        savitzky_golay(series, 10, 2)   # even window
    with pytest.raises(ValueError):
        savitzky_golay(series, 11, 11)  # order >= window
    with pytest.raises(ValueError):
        savitzky_golay(series, 1, 0)    # degenerate window


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
                    n_cycles=1, z_values=z, gamma_param=gamma,
                    gamma_raw=series, gamma_smooth=None, peaks=refined,
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
    with pytest.raises(InsufficientDataError):
        modulation_period(starved)


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


def test_scan_fixed_n_io_threshold_spacing_is_one():
    z = np.arange(2.0, 12.0 + 0.005, 0.05)
    scan = scan_rate("semiclassical", "fixed_n_io", 9.8, z, n_cycles=1)
    assert np.allclose(np.diff(scan.thresholds), 1.0, atol=1e-12)
    # Keldysh factor varies along the scan as sqrt(n_io/(2z))
    assert np.allclose(scan.gamma_param, np.sqrt(9.8 / (2.0 * z)), rtol=1e-14)


def _reference_rates(params, n_first, n_last, include_odd=False):
    """Per-point loop of scalar rate_between_cycles: the grid call's reference.

    A point whose scalar call raises InfiniteRateError (vanished amplitude)
    is NaN, where the per-point scan recorded a missing sample.
    """
    rates = []
    for gamma, z in zip(params.gamma, params.z):
        try:
            rates.append(rate_between_cycles(from_dimensionless(gamma, z),
                                             n_first, n_last,
                                             include_odd=include_odd))
        except InfiniteRateError:
            rates.append(float("nan"))
    return np.array(rates)


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
    assert np.array_equal(grid.gamma_param, ref.gamma_param)
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
    # the oracle still solves point by point; an engine error at one point
    # is a missing sample, and the scan goes on
    def flaky(params, n_first, n_last, dt=None):
        if 1.25 < params.z < 1.45:
            raise NumericError("synthetic engine failure")
        return 0.1 + 0.01 * params.z

    monkeypatch.setattr(oracle_mod, "rate_between_cycles", flaky)
    z = np.arange(1.0, 2.0 + 0.05, 0.1)
    scan = scan_rate("oracle", "fixed_gamma", 0.7, z, n_cycles=1)
    assert scan.missing_indices == {3: "synthetic engine failure",
                                    4: "synthetic engine failure"}
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
        if params.z == 9.0:
            raise InfiniteRateError("synthetic")
        return float(n_first + n_last)

    monkeypatch.setattr(oracle_mod, "rate_between_cycles", flaky)
    rates, failures = engine_rates("oracle", params, 1, 2)
    assert failures == {2: "synthetic"}
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
    # only the engines' numeric failures become missing samples
    def broken(params, n_first, n_last, dt=None):
        raise RuntimeError("not an engine failure")

    monkeypatch.setattr(oracle_mod, "rate_between_cycles", broken)
    with pytest.raises(RuntimeError):
        scan_rate("oracle", "fixed_gamma", 0.7, [6.0, 7.0])


# ----------------------------------------------------------------------
# background extraction
# ----------------------------------------------------------------------

def test_windowed_background_mean_recovers_trend():
    period = 0.5
    z = np.arange(0.0, 10.0, 0.01)
    trend = 2.0 + 0.1 * z
    series = trend + 0.8 * np.cos(2.0 * np.pi * z / period + 0.3)
    est = windowed_background_mean(z, series, period)
    good = np.isfinite(est)
    assert np.max(np.abs(est[good] - trend[good])) < 1e-6


def test_windowed_background_handles_exponential_envelope():
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
    assert doc["schema_version"] == 1
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
