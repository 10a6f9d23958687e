import math

import numpy as np
import pytest
from scipy.integrate import quad

from drivendelta.adiabatic import (
    bound_propagator_factor,
    cycle_average_quadrature,
    quasi_energy,
    quasi_energy_averaged,
    rate_cycle_averaged,
    rate_instantaneous,
    saddle_point_integral,
    stark_shift,
    stark_shift_averaged,
)
from drivendelta.errors import DegenerateSaddleError
from drivendelta.model import from_dimensionless

P07 = from_dimensionless(0.7, 10.0)  # gamma=0.7, h=0.025


def test_rate_instantaneous_value():
    # direct evaluation: (0.49/0.025) * exp(-2*0.343/(3*0.025))
    expected = 19.6 * math.exp(-2.0 * 0.343 / 0.075)
    assert rate_instantaneous(P07, 1.0) == pytest.approx(expected, rel=1e-12)
    assert rate_instantaneous(P07, 1.0) == pytest.approx(2.0875e-3, rel=1e-3)


def test_rate_instantaneous_ratio_identity():
    # D(1)/D(0.5) = exp(+2*gamma^3/(3h)) from the exponent alone
    ratio = rate_instantaneous(P07, 1.0) / rate_instantaneous(P07, 0.5)
    assert ratio == pytest.approx(math.exp(2.0 * 0.343 / 0.075), rel=1e-10)


def test_rate_vanishes_toward_zero_field():
    assert rate_instantaneous(P07, 1e-3) < 1e-300
    for eta in (0.2, 0.5, 0.9, 1.0):
        assert rate_instantaneous(P07, eta) > rate_instantaneous(P07, eta - 0.1)


def test_rate_instantaneous_domain():
    with pytest.raises(ValueError):
        rate_instantaneous(P07, 0.0)
    with pytest.raises(ValueError):
        rate_instantaneous(P07, -0.3)


def test_rate_cycle_averaged_structure():
    d1 = rate_instantaneous(P07, 1.0)
    dbar = rate_cycle_averaged(P07)
    assert dbar / d1 == pytest.approx(math.sqrt(3 * 0.025 / (math.pi * 0.343)),
                                      rel=1e-12)
    assert dbar == pytest.approx(5.51e-4, rel=2e-3)


def test_cycle_average_quadrature_against_saddle():
    q = cycle_average_quadrature(P07)
    s = rate_cycle_averaged(P07)
    assert abs(s / q - 1.0) < 0.10


def test_cycle_average_symmetry():
    # average over a quarter period times four equals the full average
    def integrand(t):
        return rate_instantaneous(P07, abs(math.cos(t)))

    quarter, _ = quad(integrand, 0.0, math.pi / 2.0, limit=200)
    full = cycle_average_quadrature(P07)
    assert 4.0 * quarter / (2.0 * math.pi) == pytest.approx(full, rel=1e-9)


def test_saddle_over_quadrature_monotone_in_h():
    ratios = []
    for h in (0.05, 0.025, 0.0125):
        p = from_dimensionless(0.7, 1.0 / (4.0 * h))
        ratios.append(rate_cycle_averaged(p) / cycle_average_quadrature(p))
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] < 1.05


def test_stark_shift_values():
    expected = -5.0 * 0.025**2 / (16.0 * 0.7**4)
    assert stark_shift_averaged(P07) == pytest.approx(expected, rel=1e-12)
    assert stark_shift_averaged(P07) == pytest.approx(-8.135e-4, rel=1e-3)
    assert stark_shift(P07, 0.0) == 0.0
    assert stark_shift_averaged(P07) / stark_shift(P07, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert stark_shift(P07, 0.6) < 0.0


def test_quasi_energy_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma = rng.uniform(0.3, 2.0)
        z = rng.uniform(1.0, 30.0)
        eta = rng.uniform(0.05, 1.0)
        p = from_dimensionless(gamma, z)
        qe = quasi_energy(p, eta)
        d = rate_instantaneous(p, eta)
        assert qe.e_i == pytest.approx(-0.5j * p.h * d, abs=1e-14 * max(1.0, d))
        assert qe.e_m == qe.e0 + qe.e_ac + qe.e_i
        assert qe.e_m.imag <= 0.0
        if d > 0.0:  # rate can underflow to zero deep in the suppressed regime
            assert qe.e_m.imag < 0.0


def test_quasi_energy_averaged_assembly():
    qe = quasi_energy_averaged(P07)
    assert qe.e_m.imag == pytest.approx(-0.5 * 0.025 * rate_cycle_averaged(P07),
                                        rel=1e-14)
    assert qe.e_m.real == pytest.approx(-0.245 - 8.1346e-4, rel=1e-4)
    assert qe.e0 == pytest.approx(-0.245, rel=1e-12)


def test_field_off_quasi_energy_is_ground_energy():
    # with the decay and Stark pieces removed only e0 remains
    qe = quasi_energy_averaged(P07)
    assert qe.e0 + 0.0 + 0.0 == pytest.approx(-0.5 * P07.gamma**2, rel=1e-14)


def test_bound_propagator_factor():
    assert bound_propagator_factor(P07, 0.0) == pytest.approx(1.0 + 0.0j)
    t_f = 2.0 * math.pi
    fac = bound_propagator_factor(P07, t_f)
    dbar = rate_cycle_averaged(P07)
    assert abs(fac) ** 2 == pytest.approx(math.exp(-dbar * t_f), rel=1e-12)
    # phase advance per cycle from e0 alone
    e0_only = np.exp(-1j * (-0.5 * P07.gamma**2) * t_f / P07.h)
    assert abs(e0_only) == pytest.approx(1.0, rel=1e-14)
    # complex continuation is the plain exponential
    t0 = 0.3j
    fac_c = bound_propagator_factor(P07, t0)
    qe = quasi_energy_averaged(P07)
    assert fac_c == pytest.approx(np.exp(-1j * qe.e_m * t0 / P07.h), rel=1e-14)


def test_saddle_gaussian_exact():
    for h in (0.5, 0.1, 0.01):
        val = saddle_point_integral(lambda t: 0.5 * t * t, lambda t: 1.0, h,
                                    [0.0], f2=[1.0])
        assert val == pytest.approx(math.sqrt(2.0 * math.pi * h), rel=1e-14)


def test_saddle_reproduces_cycle_average():
    # the explicit integrand of the cycle average around its two field maxima
    g, h = P07.gamma, P07.h

    def f(t):
        return 2.0 * g**3 / (3.0 * abs(math.cos(t)))

    def pre(t):
        return g * g / (2.0 * math.pi * h)

    val = saddle_point_integral(f, pre, h, [0.0, math.pi],
                                f2=[2.0 * g**3 / 3.0] * 2)
    assert val == pytest.approx(rate_cycle_averaged(P07), rel=1e-12)


def test_saddle_finite_difference_second_derivative():
    val = saddle_point_integral(lambda t: 0.5 * t * t, lambda t: 1.0, 0.1, [0.0])
    assert val == pytest.approx(math.sqrt(0.2 * math.pi), rel=1e-7)


def test_saddle_descent_vs_quadrature_cosh():
    for h, tol in ((0.1, 0.05), (0.01, 0.005)):
        approx = saddle_point_integral(lambda t: math.cosh(t) - 1.0,
                                       lambda t: 1.0, h, [0.0], f2=[1.0])
        exact, _ = quad(lambda t: math.exp(-(math.cosh(t) - 1.0) / h),
                        -30.0, 30.0)  # integrand underflows long before +-30
        assert abs(approx / exact - 1.0) < tol


def test_saddle_stationary_phase_mode():
    # analytic continuation of the Gaussian: integral exp(i t^2/(2h))
    val = saddle_point_integral(lambda t: 0.5 * t * t, lambda t: 1.0, 0.2,
                                [0.0], f2=[1.0], mode="stationary_phase")
    assert val == pytest.approx(np.sqrt(2.0j * np.pi * 0.2), rel=1e-14)


def test_saddle_degenerate_error():
    with pytest.raises(DegenerateSaddleError):
        saddle_point_integral(lambda t: t**4, lambda t: 1.0, 0.1, [0.0], f2=[0.0])


def test_averaged_formulas_on_a_grid_match_points():
    gammas = np.array([0.4, 0.7, 1.1, 2.6])
    zs = np.array([1.0, 6.5, 10.0, 19.0])
    grid = from_dimensionless(gammas, zs)
    rates = rate_cycle_averaged(grid)
    shifts = stark_shift_averaged(grid)
    energies = quasi_energy_averaged(grid).e_m
    for i, (gamma, z) in enumerate(zip(gammas, zs)):
        point = from_dimensionless(float(gamma), float(z))
        assert rates[i] == pytest.approx(rate_cycle_averaged(point), rel=1e-14)
        assert shifts[i] == pytest.approx(stark_shift_averaged(point), rel=1e-14)
        assert energies[i] == pytest.approx(quasi_energy_averaged(point).e_m,
                                            rel=1e-14)
    assert type(rate_cycle_averaged(P07)) is float


def test_array_eta_is_checked_elementwise():
    etas = np.array([0.25, 0.5, 1.0])
    assert np.allclose(rate_instantaneous(P07, etas),
                       [rate_instantaneous(P07, float(e)) for e in etas],
                       rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        rate_instantaneous(P07, np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        stark_shift(P07, np.array([0.5, 1.5]))
