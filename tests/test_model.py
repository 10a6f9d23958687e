import cmath
import dataclasses
import math

import numpy as np
import pytest

from drivendelta import analysis, oracle, semiclassical
from drivendelta.model import (
    ModelParams,
    cycle_count,
    decay_rate,
    drive,
    failure_reason,
    from_dimensionless,
    from_physical,
    volkov_action,
)


def test_unit_inputs():
    p = from_physical(1.0, 1.0, 1.0)
    assert p.gamma == 1.0
    assert p.z == 0.25
    assert p.h == 1.0


def test_from_dimensionless_hand_arithmetic():
    p = from_dimensionless(0.7, 10.0)
    assert (p.gamma, p.z) == (0.7, 10.0)
    assert p.h == pytest.approx(0.025, rel=1e-12)

    p = from_dimensionless(1.0, 0.25)
    assert p.h == 1.0


def test_params_are_the_pair_as_given():
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["gamma", "z"]
    # the sc_scan grid: gamma and h = 1/(4z) exactly as asked at every point
    z = 6.0 + 0.001 * np.arange(14001)
    p = from_dimensionless(0.7, z)
    assert p.gamma == 0.7 and type(p.gamma) is float
    assert p.z is z
    assert np.array_equal(p.h, 0.25 / z)
    assert p.point(3) == ModelParams(0.7, float(z[3]))


def test_from_physical_direct_formulas():
    p = from_physical(2.0, 1.0, 0.5)
    assert p.gamma == pytest.approx(1.0, rel=1e-12)
    assert p.z == pytest.approx(2.0, rel=1e-12)
    assert p.h == pytest.approx(0.125, rel=1e-12)


def test_derived_fields_mutually_consistent():
    alpha, mu, omega = 1.3, 0.8, 0.4
    p = from_physical(alpha, mu, omega)
    assert p.gamma == pytest.approx(alpha * omega / mu, rel=1e-12)
    assert p.z == pytest.approx(mu**2 / (4 * omega**3), rel=1e-12)
    assert p.h == pytest.approx(omega**3 / mu**2, rel=1e-12)
    assert p.h == pytest.approx(1.0 / (4.0 * p.z), rel=1e-12)


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
        # omega = 1: mu = 2*sqrt(z) and alpha = gamma*mu
        q = from_physical(gamma * 2.0 * math.sqrt(z), 2.0 * math.sqrt(z), 1.0)
        assert q.gamma == pytest.approx(gamma, rel=1e-12)
        assert q.z == pytest.approx(z, rel=1e-12)
        assert q.h == pytest.approx(1.0 / (4.0 * z), rel=1e-12)


def test_from_dimensionless_on_a_grid_matches_points():
    gammas = np.array([0.3, 0.7, 2.6])
    zs = np.array([0.5, 10.0, 17.25])
    grid = from_dimensionless(gammas, zs)
    for i, (gamma, z) in enumerate(zip(gammas, zs)):
        point = from_dimensionless(float(gamma), float(z))
        for field in ("gamma", "z", "h"):
            assert getattr(grid, field)[i] == getattr(point, field)
    assert type(from_dimensionless(0.7, 10.0).h) is float


def test_from_dimensionless_rejects_any_nonpositive_grid_point():
    with pytest.raises(ValueError, match="z=0.0"):
        from_dimensionless(0.7, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="gamma"):
        from_dimensionless(np.array([0.7, np.nan]), np.array([1.0, 2.0]))


def test_grid_point_is_the_point_built_alone():
    gammas = np.array([0.3, 0.7, 2.6])
    zs = np.array([0.5, 10.0, 17.25])
    grid = from_dimensionless(gammas, zs)
    for i in range(zs.size):
        assert grid.point(i) == from_dimensionless(float(gammas[i]), float(zs[i]))
        assert all(type(v) is float for v in dataclasses.astuple(grid.point(i)))


def test_volkov_phase_real_and_complex_times():
    t = np.array([0.0, 1.3, 2.0 * math.pi, 0.4 + 0.9j, 3.0 - 0.2j])
    expected = [(cmath.sin(x) * cmath.cos(x) - x) / 4.0 for x in t]
    assert np.allclose(drive(t).phi, expected, rtol=1e-15, atol=1e-15)
    assert drive(2.0 * math.pi).phi == pytest.approx(-0.5 * math.pi, rel=1e-15)
    # phi' = -sin(t)^2/2, also off the real axis
    step = 1e-5
    for x in (1.3, 0.4 + 0.9j):
        slope = (drive(x + step).phi - drive(x - step).phi) / (2.0 * step)
        assert slope == pytest.approx(-0.5 * cmath.sin(x) ** 2, rel=1e-9)


def test_drive_record_and_field_off():
    t = np.array([0.3, 2.0, 0.4 + 0.9j])
    end = drive(t)
    assert end.t is t
    assert np.array_equal(end.sin, np.sin(t)) and np.array_equal(end.cos, np.cos(t))
    off = drive(t, driven=False)
    assert off.t is t
    assert all(np.array_equal(v, np.zeros_like(t)) for v in off[1:])


def test_volkov_action_is_free_action_with_field_off():
    # with the field off the action is the free one, (x - y)^2/(2T)
    end, start = drive(2.5, driven=False), drive(0.5, driven=False)
    assert volkov_action(end, start, 0.7, -0.2) == pytest.approx(0.81 / 4.0,
                                                                 rel=1e-15)
    assert volkov_action(end, start) == 0.0


def test_decay_rate_formula_and_zero_cycle_convention():
    w = {1: 0.8, 3: 0.5}
    assert decay_rate(w.get, 1, 3) == pytest.approx(-math.log(0.5 / 0.8) / 2.0,
                                                    rel=1e-15)
    # w(0) = 1 is never asked for: the single-interval rate -ln(w(n))/n
    asked = []
    rate = decay_rate(lambda n: asked.append(n) or w[n], 0, 3)
    assert asked == [3]
    assert rate == pytest.approx(-math.log(0.5) / 3.0, rel=1e-15)
    assert type(rate) is float
    for n_first, n_last in ((-1, 2), (2, 2), (3, 2), (0.5, 2), (0, 1.5)):
        with pytest.raises(ValueError):
            decay_rate(lambda n: 0.5, n_first, n_last)


def test_decay_rate_of_an_unchanged_probability_is_plus_zero():
    # -log(1) is -0.0; the rate is +0.0, for scalars and grids
    for w_first, n_first in ((1.0, 0), (0.5, 1)):
        rate = decay_rate({n_first: w_first, 2: w_first}.get, n_first, 2)
        assert rate == 0.0 and math.copysign(1.0, rate) == 1.0
    rates = decay_rate(lambda n: np.array([1.0, 0.5]), 0, 1)
    assert math.copysign(1.0, rates[0]) == 1.0


def test_decay_rate_fails_by_a_non_finite_value_for_scalars_and_grids():
    # a failed point is +inf where a probability vanished (0/0 included),
    # otherwise whatever the logarithm gives; nothing is raised
    for probability, n_first in ((0.0, 0), (0.0, 1), (0.5, 0)):
        rate = decay_rate(lambda n: probability, n_first, n_first + 1)
        assert type(rate) is float
        assert rate == (math.inf if probability == 0.0 else -math.log(0.5))
    assert decay_rate({1: 0.0, 2: 0.5}.get, 1, 2) == math.inf
    assert decay_rate(lambda n: math.inf, 0, 1) == -math.inf
    assert math.isnan(decay_rate(lambda n: math.nan, 0, 1))
    rates = decay_rate(lambda n: np.array([0.25, 0.0, np.inf, np.nan]), 0, 1)
    assert rates[0] == pytest.approx(-math.log(0.25), rel=1e-15)
    assert np.isposinf(rates[1]) and np.isneginf(rates[2]) and np.isnan(rates[3])
    both = {1: np.array([0.0, 0.0, 0.5]), 2: np.array([0.0, 0.5, 0.0])}
    assert np.all(np.isposinf(decay_rate(both.get, 1, 2)))
    assert failure_reason(rates[1]) == "survival amplitude vanished; rate diverges"
    assert failure_reason(rates[2]) == ("survival probability is not finite; "
                                        "rate is -inf")
    assert failure_reason(rates[3]) == ("survival probability is not finite; "
                                        "rate is nan")


def test_cycle_count_is_an_int_of_at_least_least():
    for value in (2, 2.0, np.int64(2), np.float64(2.0), 10**300):
        assert type(cycle_count(value)) is int and cycle_count(value) == value
    assert cycle_count(0, least=0) == 0
    with pytest.raises(ValueError, match=r"^cycles must be an integer >= 1, got cycles=0$"):
        cycle_count(0, "cycles")
    with pytest.raises(ValueError, match="n_first must be an integer >= 0"):
        cycle_count(-1, "n_first", 0)


# every entry point that takes a cycle count, called with count n; z = 1
# at dt = 0.5 is a 13-step-per-cycle oracle solve
P_CYCLES = from_dimensionless(0.7, 1.0)
CYCLE_ENTRY_POINTS = {
    "model.decay_rate": lambda n: decay_rate(lambda k: 0.5 ** k, 0, n),
    "semiclassical.survival_amplitude":
        lambda n: semiclassical.survival_amplitude(P_CYCLES, n).p,
    "semiclassical.rate_between_cycles":
        lambda n: semiclassical.rate_between_cycles(P_CYCLES, 0, n),
    "oracle.solve_boundary_function":
        lambda n: oracle.solve_boundary_function(P_CYCLES, n, dt=0.5).f,
    "oracle.survival_probability": lambda n: oracle.survival_probability(
        oracle.solve_boundary_function(P_CYCLES, 2, dt=0.5), n),
    "oracle.rate_between_cycles":
        lambda n: oracle.rate_between_cycles(P_CYCLES, 0, n, dt=0.5),
    "analysis.scan_rate": lambda n: analysis.scan_rate(
        "semiclassical", "fixed_gamma", 0.7, [1.0, 1.1], n_cycles=n).gamma_raw,
}


# 2*pi*n overflows at 2**1023, and 10**400 is beyond any float
@pytest.mark.parametrize("entry", CYCLE_ENTRY_POINTS)
@pytest.mark.parametrize("n", [0, -1, 1.5, math.nan, math.inf, True, "2",
                               pytest.param(2**1023, id="2**1023"),
                               pytest.param(10**400, id="10**400")])
def test_every_cycle_count_gets_the_one_check(entry, n):
    with pytest.raises(ValueError, match=r"must be an integer >= 1, got \w+="):
        CYCLE_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("entry", CYCLE_ENTRY_POINTS)
def test_a_whole_float_or_numpy_count_gives_the_int_result(entry):
    call = CYCLE_ENTRY_POINTS[entry]
    expected = call(2)
    for n in (2.0, np.int64(2)):
        assert np.array_equal(call(n), expected)
