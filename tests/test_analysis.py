import csv
import json
import math

import numpy as np
import pytest

from drivendelta.analysis import (
    RateScan,
    appendix_c_demo,
    barrier_traversal_time,
    modulation_period,
    savitzky_golay,
    scan_rate,
    windowed_background_mean,
    wkb_background,
    write_scan_csv,
    write_scan_json,
)
from drivendelta.errors import InsufficientDataError, NumericError


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
    idx, refined = _detect_peaks(z, series * background, gamma, 0.05)
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


def test_scan_records_and_interpolates_failures(monkeypatch):
    import drivendelta.analysis as analysis_mod

    calls = {"count": 0}
    real = analysis_mod.ionization_rate

    def flaky(params, n, include_odd=False):
        calls["count"] += 1
        if calls["count"] % 7 == 3:
            raise NumericError("synthetic engine failure")
        return real(params, n, include_odd=include_odd)

    monkeypatch.setattr(analysis_mod, "ionization_rate", flaky)
    z = np.arange(8.0, 9.0 + 0.005, 0.02)
    scan = scan_rate("semiclassical", "fixed_gamma", 0.7, z, n_cycles=1)
    assert scan.missing_indices
    assert np.all(np.isnan(scan.gamma_raw[scan.missing_indices]))
    assert scan.gamma_smooth is not None
    assert np.all(np.isfinite(scan.gamma_smooth))


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
    import drivendelta.analysis as analysis_mod

    def engine(*args, **kwargs):
        raise AssertionError("engine called on invalid input")

    monkeypatch.setattr(analysis_mod, "ionization_rate", engine)
    with pytest.raises(ValueError):
        scan_rate("semiclassical", mode, fixed, z, n_cycles=cycles)


def test_scan_propagates_non_engine_errors(monkeypatch):
    # only the engines' numeric failures become missing samples
    import drivendelta.analysis as analysis_mod

    def broken(params, n, include_odd=False):
        raise RuntimeError("not an engine failure")

    monkeypatch.setattr(analysis_mod, "ionization_rate", broken)
    with pytest.raises(RuntimeError):
        scan_rate("semiclassical", "fixed_gamma", 0.7, [6.0, 7.0])


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
