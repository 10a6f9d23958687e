"""Helpers shared by the test modules, as fixtures."""

import numpy as np
import pytest


def _windowed_background_mean(z_values, series, period, halfwidth_periods=1.0):
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


@pytest.fixture
def windowed_background_mean():
    """Local background mean of a modulated rate curve (criterion 2)."""
    return _windowed_background_mean
