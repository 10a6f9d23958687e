import math

import numpy as np
import pytest
from scipy.integrate import quad

from drivendelta.model import (
    channel_threshold,
    energy_balance,
    from_dimensionless,
    from_physical,
    ground_state,
)


def test_unit_inputs():
    p = from_physical(1.0, 1.0, 1.0)
    assert p.gamma == 1.0
    assert p.z == 0.25
    assert p.h == 1.0
    assert p.n_io == 0.5


def test_from_dimensionless_hand_arithmetic():
    p = from_dimensionless(0.7, 10.0)
    assert p.h == pytest.approx(0.025, rel=1e-12)
    assert p.n_io == pytest.approx(9.8, rel=1e-12)

    p = from_dimensionless(1.0, 0.25)
    assert p.h == pytest.approx(1.0, rel=1e-12)

    p = from_dimensionless(1.1, 2.924)
    assert p.n_io == pytest.approx(2.0 * 1.21 * 2.924, rel=1e-12)


def test_from_physical_direct_formulas():
    p = from_physical(2.0, 1.0, 0.5)
    assert p.gamma == pytest.approx(1.0, rel=1e-12)
    assert p.z == pytest.approx(2.0, rel=1e-12)
    assert p.h == pytest.approx(0.125, rel=1e-12)


def test_derived_fields_mutually_consistent():
    p = from_physical(1.3, 0.8, 0.4)
    assert p.gamma == pytest.approx(p.alpha * p.omega / p.mu, rel=1e-12)
    assert p.z == pytest.approx(p.mu**2 / (4 * p.omega**3), rel=1e-12)
    assert p.h == pytest.approx(1.0 / (4.0 * p.z), rel=1e-12)
    assert p.n_io == pytest.approx(2.0 * p.gamma**2 * p.z, rel=1e-12)


@pytest.mark.parametrize("bad", [
    dict(alpha=0.0, mu=1.0, omega=1.0),
    dict(alpha=1.0, mu=-2.0, omega=1.0),
    dict(alpha=1.0, mu=1.0, omega=0.0),
])
def test_from_physical_rejects_nonpositive(bad):
    with pytest.raises(ValueError) as err:
        from_physical(**bad)
    offending = [k for k, v in bad.items() if v <= 0][0]
    assert offending in str(err.value)


def test_from_dimensionless_rejects_nonpositive():
    with pytest.raises(ValueError, match="gamma"):
        from_dimensionless(-1.0, 2.0)
    with pytest.raises(ValueError, match="z"):
        from_dimensionless(1.0, 0.0)


def test_round_trip_random():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        gamma = rng.uniform(0.1, 3.0)
        z = rng.uniform(0.5, 50.0)
        p = from_dimensionless(gamma, z)
        q = from_physical(p.alpha, p.mu, p.omega)
        assert q.gamma == pytest.approx(gamma, rel=1e-12)
        assert q.z == pytest.approx(z, rel=1e-12)
        assert q.h == pytest.approx(1.0 / (4.0 * z), rel=1e-12)
        assert q.n_io == pytest.approx(2.0 * gamma**2 * z, rel=1e-12)


def test_channel_threshold_examples():
    assert channel_threshold(1, 0.7) == pytest.approx(1.0 / 1.98, rel=1e-12)
    assert channel_threshold(10, 1.1) == pytest.approx(10.0 / 3.42, rel=1e-12)
    for k in (1, 3, 17):
        assert channel_threshold(k, 0.0) == k


def test_channel_threshold_spacing_exact():
    for gamma in (0.5, 0.7, 1.1, 2.3):
        spacing = 1.0 / (1.0 + 2.0 * gamma**2)
        for k in range(1, 60):
            dz = channel_threshold(k + 1, gamma) - channel_threshold(k, gamma)
            assert dz == pytest.approx(spacing, abs=1e-14)


def test_channel_threshold_rejects_bad_k():
    with pytest.raises(ValueError):
        channel_threshold(0, 0.7)
    with pytest.raises(ValueError):
        channel_threshold(-3, 0.7)


def test_energy_balance_examples():
    # zero exactly at the threshold
    z1 = channel_threshold(1, 0.7)
    assert energy_balance(1, 0.7, z1) == pytest.approx(0.0, abs=1e-12)
    # gamma = 0 limit
    assert energy_balance(5, 0.0, 3.0) == pytest.approx(2.0, rel=1e-12)
    # closed channel
    assert energy_balance(2, 0.7, 1.2) == pytest.approx(2.0 - 1.98 * 1.2, rel=1e-12)
    assert energy_balance(2, 0.7, 1.2) < 0.0


def test_energy_balance_zero_at_threshold_many():
    for gamma in (0.3, 0.7, 1.6):
        for k in (1, 4, 12):
            z_k = channel_threshold(k, gamma)
            assert energy_balance(k, gamma, z_k) == pytest.approx(0.0, abs=1e-12)


def test_ground_state_energy_and_norm():
    p = from_dimensionless(0.7, 10.0)
    gs = ground_state(p)
    assert gs.energy == pytest.approx(-0.5 * 0.49, rel=1e-12)
    assert gs.norm_coeff == pytest.approx(math.sqrt(0.7 / 0.025), rel=1e-12)
    # analytic norm check by quadrature
    norm, _ = quad(lambda x: gs.wavefunction(x) ** 2, -2.0, 2.0,
                   points=[0.0], limit=200)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_from_dimensionless_on_a_grid_matches_points():
    gammas = np.array([0.3, 0.7, 2.6])
    zs = np.array([0.5, 10.0, 17.25])
    grid = from_dimensionless(gammas, zs)
    for i, (gamma, z) in enumerate(zip(gammas, zs)):
        point = from_dimensionless(float(gamma), float(z))
        for field in ("alpha", "mu", "omega", "gamma", "z", "h", "n_io"):
            assert np.broadcast_to(getattr(grid, field), zs.shape)[i] == \
                getattr(point, field)
    assert type(from_dimensionless(0.7, 10.0).mu) is float


def test_from_dimensionless_rejects_any_nonpositive_grid_point():
    with pytest.raises(ValueError, match="z=0.0"):
        from_dimensionless(0.7, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="gamma"):
        from_dimensionless(np.array([0.7, np.nan]), np.array([1.0, 2.0]))
