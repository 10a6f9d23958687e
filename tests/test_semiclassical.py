import cmath
import math
import os

import numpy as np
import pytest

from drivendelta.adiabatic import (
    bound_propagator_factor,
    quasi_energy_averaged,
    rate_cycle_averaged,
)
from drivendelta.model import Drive, drive, from_dimensionless, volkov_action
from drivendelta.semiclassical import (
    SurvivalAmplitude,
    _burst_starts,
    action_by_quadrature,
    branched_sqrt,
    ionization_rate,
    rate_between_cycles,
    survival_amplitude,
    tunnel_start_time,
    volkov_propagator,
)

P07 = from_dimensionless(0.7, 10.0)


# ----------------------------------------------------------------------
# complex emission time
# ----------------------------------------------------------------------

def test_tunnel_start_time_examples():
    assert tunnel_start_time(0.0) == 0.0
    t0 = tunnel_start_time(0.7)
    assert t0 == pytest.approx(1j * math.log(0.7 + math.sqrt(1.49)), abs=1e-15)
    assert t0.imag == pytest.approx(0.652667, abs=1e-6)
    assert cmath.cos(tunnel_start_time(1.1)) == pytest.approx(math.sqrt(2.21), abs=1e-14)


def test_hyperbolic_identities_across_gamma():
    for gamma in np.linspace(0.01, 5.0, 97):
        t0 = tunnel_start_time(gamma)
        assert abs(cmath.cos(t0) - math.sqrt(1.0 + gamma**2)) < 1e-14 * (1 + gamma**2)
        assert abs(cmath.sin(t0) - 1j * gamma) < 1e-14 * (1 + gamma)


# ----------------------------------------------------------------------
# branch convention
# ----------------------------------------------------------------------

def test_branched_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-3, 4)
        if w == 0.0:
            continue
        assert abs(branched_sqrt(w) ** 2 - w) <= 1e-14 * abs(w)


def test_branched_sqrt_sheet_choice():
    # positive reals sit at phase 0 on this sheet
    assert branched_sqrt(4.0) == pytest.approx(-2.0, abs=1e-15)
    assert branched_sqrt(9.0) == pytest.approx(-3.0, abs=1e-15)
    # negative reals map to -i*sqrt(r): the decaying-solution branch
    assert branched_sqrt(-4.0) == pytest.approx(-2.0j, abs=1e-14)
    # continuity across the negative real axis (cut is on the positive axis)
    up = branched_sqrt(-1.0 + 1e-12j)
    dn = branched_sqrt(-1.0 - 1e-12j)
    assert abs(up - dn) < 1e-9


def test_branch_continuity_along_burst_index():
    # prefactor radicands stay in the first quadrant across a scan: the
    # branched sheet is then exactly minus the principal root, so no sign
    # flips occur between consecutive k
    for z in (5.0, 10.0, 20.0):
        params = from_dimensionless(0.7, z)
        t0 = tunnel_start_time(0.7)
        for n in (1, 2, 3):
            t_f = 2.0 * math.pi * n
            for k in range(2 * n):
                w = 2j * math.pi * params.h * (t_f - t0 - k * math.pi)
                assert w.real > 0.0 and w.imag > 0.0
                assert branched_sqrt(w) == pytest.approx(-np.sqrt(w), rel=1e-14)


# ----------------------------------------------------------------------
# actions
# ----------------------------------------------------------------------

def _closed_form_action(t_start, t_end, y=0.0, x=0.0):
    return volkov_action(drive(t_end), drive(t_start), x, y)


def test_action_by_quadrature_matches_volkov_action_at_random_endpoints():
    # the reference quadrature builds its own path; an endpoint it misses
    # would change the action it integrates
    rng = np.random.default_rng(5)
    for _ in range(50):
        ti = complex(rng.normal(), rng.normal())
        tf = ti + complex(rng.uniform(0.5, 8.0), rng.normal())
        y, x = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        s_closed = _closed_form_action(ti, tf, y, x)
        s_quad = action_by_quadrature(ti, tf, y, x)
        assert abs(s_quad - s_closed) <= 1e-12 * abs(s_closed)


def test_tunneling_path_emission_velocity():
    # the path from (0, t0) to (0, 2*pi) drifts at v0; sin(t0) carries
    # exactly i*gamma and v0 adds only the finite-time correction
    t0 = tunnel_start_time(0.7)
    end, start = drive(2.0 * math.pi), drive(t0)
    v0 = (end.cos - start.cos) / (end.t - start.t)
    assert v0 == pytest.approx((1.0 - math.sqrt(1.49)) / (2.0 * math.pi - t0),
                               rel=1e-14)
    assert start.sin.imag == pytest.approx(0.7, abs=1e-14)
    assert (start.sin + v0).imag == pytest.approx(0.7, rel=2e-2)


def test_make_path_trivial_cycle():
    # the path from (0, 0) to (0, 2*pi) has no drift, so it is x = 1 - cos t,
    # whose action is the integral of sin^2 t/2 + (1 - cos t) cos t = -pi/2
    end, start = drive(2.0 * math.pi), drive(0.0)
    assert (end.cos - start.cos) / (end.t - start.t) == pytest.approx(0.0, abs=1e-16)
    assert action_by_quadrature(0.0, 2.0 * math.pi) == pytest.approx(-0.5 * math.pi,
                                                                      abs=1e-14)
    assert _closed_form_action(0.0, 2.0 * math.pi) == pytest.approx(-0.5 * math.pi,
                                                                     abs=1e-14)


def test_action_by_quadrature_degenerate():
    with pytest.raises(ValueError):
        action_by_quadrature(1.0, 1.0, 0.0, 0.5)


def test_relevant_path_stays_off_origin():
    # the packet path from (0, 0) to (0, 2*pi) has no drift, so it is
    # x = 1 - cos t; it does not return to the delta at the origin between
    # its endpoints, which is why volkov_propagator carries no delta phase
    end, start = drive(2.0 * math.pi), drive(0.0)
    assert (end.cos - start.cos) / (end.t - start.t) == pytest.approx(0.0, abs=1e-16)
    ts = np.linspace(1e-3, 2.0 * math.pi - 1e-3, 2001)
    assert np.all(1.0 - np.cos(ts) > 0.0)


def test_action_classical_cycle_is_minus_z_tf():
    # S/h = -z*t_f along x = 1 - cos t, the phase behind channel closing
    for n in (1, 2, 3):
        t_f = 2.0 * math.pi * n
        for z in (5.0, 10.0, 14.0):
            params = from_dimensionless(0.7, z)
            assert (_closed_form_action(0.0, t_f) / params.h
                    == pytest.approx(-z * t_f, rel=1e-12))


def test_action_degenerate_limit():
    vals = []
    for eps in (1e-2, 1e-4, 1e-6):
        vals.append(abs(_closed_form_action(1.0, 1.0 + eps, 0.2, 0.2)))
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 1e-5


def test_action_closed_form_vs_quadrature_tunneling():
    t0 = tunnel_start_time(0.7)
    s_closed = _closed_form_action(t0, 2.0 * math.pi)
    s_quad = action_by_quadrature(t0, 2.0 * math.pi)
    assert abs(s_closed - s_quad) / abs(s_closed) < 1e-12


def test_action_contour_independence():
    t0 = tunnel_start_time(0.7)
    straight = action_by_quadrature(t0, 2.0 * math.pi)
    # down to the real axis first, then along it
    dogleg = action_by_quadrature(t0, 2.0 * math.pi, waypoints=[0.0, 1.0])
    assert abs(straight - dogleg) / abs(straight) < 1e-8


# ----------------------------------------------------------------------
# propagator
# ----------------------------------------------------------------------

def test_volkov_short_time_spreading_scale():
    dt = 1e-6
    u = volkov_propagator(0.0, 1.0 + dt, 0.0, 1.0, P07)
    assert abs(u) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * P07.h * dt),
                                   rel=1e-4)


def test_volkov_degenerate_duration():
    with pytest.raises(ValueError):
        volkov_propagator(0.0, 1.0, 0.0, 1.0, P07)


def test_volkov_solves_transformed_schroedinger():
    # Volkov kernel is exact for the linear potential: finite-difference
    # residual of i*h*U_t + (h^2/2)*U_xx + x*cos(t)*U vanishes
    h = P07.h
    x0, y0, ti, t0 = 0.3, -0.2, 0.1, 2.0
    dx, dt = 1e-4, 1e-5

    def u(x, t):
        return volkov_propagator(x, t, y0, ti, P07)

    ut = (u(x0, t0 + dt) - u(x0, t0 - dt)) / (2.0 * dt)
    uxx = (u(x0 + dx, t0) - 2.0 * u(x0, t0) + u(x0 - dx, t0)) / dx**2
    resid = 1j * h * ut + 0.5 * h * h * uxx + x0 * math.cos(t0) * u(x0, t0)
    assert abs(resid) < 1e-6 * abs(u(x0, t0))


def test_volkov_branched_sheet_for_complex_start():
    t0 = tunnel_start_time(0.7)
    t_f = 2.0 * math.pi
    u = volkov_propagator(0.0, t_f, 0.0, t0, P07)
    expected = np.exp(1j * _closed_form_action(t0, t_f) / P07.h) / branched_sqrt(
        2j * math.pi * P07.h * (t_f - t0))
    assert u == pytest.approx(expected, rel=1e-14)


# ----------------------------------------------------------------------
# survival amplitude and rate
# ----------------------------------------------------------------------

def test_survival_amplitude_structure():
    amp = survival_amplitude(P07, 2, include_odd=True)
    assert list(amp.k) == [0, 1, 2, 3] and len(amp.packet_terms) == 4
    total = amp.bound_term + sum(amp.packet_terms)
    assert amp.p == pytest.approx(total, rel=1e-15)
    for value, prefactor, zeta in zip(amp.packet_terms, amp.prefactor, amp.zeta):
        assert value == pytest.approx(prefactor * cmath.exp(zeta), rel=1e-15)


@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_survival_amplitude_rejects_a_cycle_count_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        survival_amplitude(P07, n)


def test_survival_amplitude_even_only_by_default():
    amp = survival_amplitude(P07, 2)
    assert list(amp.k) == [0, 2] and len(amp.packet_terms) == 2


def test_field_off_bound_term_is_pure_phase():
    # with decay and Stark off only exp(-i*e0*t/h) remains
    t_f = 4.0 * math.pi
    e0 = -0.5 * P07.gamma**2
    bound = cmath.exp(-1j * e0 * t_f / P07.h)
    assert abs(bound) == pytest.approx(1.0, abs=1e-14)


def test_bound_term_alone_gives_wkb_rate():
    amp = survival_amplitude(P07, 1)
    gamma_bound = -(2.0 * math.pi / amp.t_f) * math.log(abs(amp.bound_term) ** 2)
    assert gamma_bound == pytest.approx(2.0 * math.pi * rate_cycle_averaged(P07),
                                        rel=1e-12)


def test_one_period_form_reproduced_term_for_term():
    # eq. for a single period: p = bound + exp(-i*E*t0/h)*(4h/gamma)*U(0,2pi;0,t0),
    # where U carries the branched sheet and the leading minus sign of the
    # general burst sum cancels against it
    amp = survival_amplitude(P07, 1)
    assert len(amp.packet_terms) == 1
    t0 = tunnel_start_time(P07.gamma)
    assembled = (-4.0 * P07.h / P07.gamma
                 * volkov_propagator(0.0, 2.0 * math.pi, 0.0, t0, P07)
                 * bound_propagator_factor(P07, t0))
    assert amp.packet_terms[0] == pytest.approx(assembled, rel=1e-12)
    bound = bound_propagator_factor(P07, 2.0 * math.pi)
    assert amp.bound_term == pytest.approx(bound, rel=1e-12)
    assert amp.p == pytest.approx(bound + assembled, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.7, 1.1])
@pytest.mark.parametrize("z", [5.0, 10.0])
def test_zeta_matches_contour_integrated_action(gamma, z):
    params = from_dimensionless(gamma, z)
    e_m = quasi_energy_averaged(params).e_m
    t0 = tunnel_start_time(gamma)
    amp = survival_amplitude(params, 2, include_odd=True)
    t_f = amp.t_f
    for k, zeta in zip(amp.k, amp.zeta):
        start = t0 + k * math.pi
        s_num = action_by_quadrature(start, t_f)
        zeta_num = 1j * s_num / params.h - 1j * e_m * start / params.h
        assert abs(zeta - zeta_num) / abs(zeta_num) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_burst_starts_match_the_drive_at_t0_plus_k_pi(n):
    # survival_amplitude takes cos, sin and phi at t_k = t0 + k*pi from
    # closed forms, with the sign (-1)^k and the shift -k*pi/4; the drive's
    # own trigonometry of the rounded k*pi is the reference (its error grows
    # like k*1e-16/gamma, so the bound holds for the k < 4 of two cycles)
    gamma = np.geomspace(0.05, 5.0, 41)
    t0 = tunnel_start_time(gamma)
    k = np.arange(2 * n)[:, None]
    start = _burst_starts(gamma, k)
    assert start.t.shape == (2 * n, 41)
    assert np.array_equal(start.t, t0 + k * math.pi)
    exact = drive(start.t)
    for got, want in zip(start[1:], exact[1:]):
        assert got.shape == (2 * n, 41)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


def test_phase_bookkeeping_channel_closing():
    # per cycle the bound term advances by 2*pi*n_io (from e0) while the
    # packet action contributes 2*pi*z, reproducing the energy balance at
    # zero kinetic energy
    t_f = 2.0 * math.pi
    for z in (5.0, 10.0, 14.5):
        params = from_dimensionless(0.7, z)
        bound_phase = -(-0.5 * params.gamma**2) * t_f / params.h
        packet_phase = action_by_quadrature(0.0, t_f).real / params.h
        diff = bound_phase - packet_phase
        n_io = 2.0 * params.gamma**2 * params.z
        assert diff == pytest.approx(2.0 * math.pi * (n_io + params.z),
                                     rel=1e-8)


def test_odd_burst_suppression():
    # packets born at odd multiples of pi sit about two units off the atom
    # at the projection times; measured magnitude ratio at gamma=0.7, z=10
    # is ~0.24 rather than the <0.1 one might guess from the displacement
    # argument alone, so the guard is set at 0.35
    amp = survival_amplitude(from_dimensionless(0.7, 10.0), 2, include_odd=True)
    mags = dict(zip(amp.k, np.abs(amp.packet_terms)))
    ratio = (mags[1] + mags[3]) / (mags[0] + mags[2])
    assert ratio < 0.35


def test_rate_finite_and_smooth_through_thresholds():
    zs = np.arange(6.0, 16.0, 0.01)
    rates = np.array([ionization_rate(from_dimensionless(0.7, z), 1) for z in zs])
    assert np.all(np.isfinite(rates))
    assert np.max(np.abs(rates)) < 1.0
    # no jumps: finite difference stays bounded by a modest Lipschitz scale
    assert np.max(np.abs(np.diff(rates))) < 0.02


def test_modulation_spacing_quick():
    from scipy.signal import find_peaks
    zs = np.arange(8.0, 14.0, 0.01)
    rates = np.array([ionization_rate(from_dimensionless(0.7, z), 1) for z in zs])
    bg = np.array([2.0 * math.pi * rate_cycle_averaged(from_dimensionless(0.7, z))
                   for z in zs])
    idx, _ = find_peaks(rates / bg)
    spacing = np.diff(zs[idx]).mean()
    assert spacing == pytest.approx(1.0 / 1.98, rel=0.02)


def test_rate_between_cycles_near_single_cycle_rate():
    # the incremental rate is again background plus modulation
    val = rate_between_cycles(P07, 1, 2)
    bg = 2.0 * math.pi * rate_cycle_averaged(P07)
    assert abs(val) < 10.0 * bg
    with pytest.raises(ValueError):
        rate_between_cycles(P07, 2, 2)


def test_rate_from_zero_cycles_is_the_single_interval_rate():
    amp = survival_amplitude(P07, 2, include_odd=True)
    expected = -(2.0 * math.pi / amp.t_f) * math.log(abs(amp.p) ** 2)
    rate = rate_between_cycles(P07, 0, 2, include_odd=True)
    assert rate == pytest.approx(expected, rel=1e-14)
    assert ionization_rate(P07, 2, include_odd=True) == rate
    with pytest.raises(ValueError):
        rate_between_cycles(P07, -1, 2)
    with pytest.raises(ValueError):
        ionization_rate(P07, 0)


# ----------------------------------------------------------------------
# one implementation for a point and a grid
# ----------------------------------------------------------------------

def test_scalar_calls_keep_python_types():
    assert type(tunnel_start_time(0.7)) is complex
    assert type(branched_sqrt(2.0 + 1.0j)) is complex
    assert type(ionization_rate(P07, 1)) is float
    assert type(rate_between_cycles(P07, 1, 2)) is float
    amp = survival_amplitude(P07, 2, include_odd=True)
    assert type(amp.bound_term) is complex
    assert type(amp.p) is complex


def test_array_formulas_match_scalar_calls_elementwise():
    rng = np.random.default_rng(3)
    ws = rng.normal(size=40) + 1j * rng.normal(size=40)
    ws[:4] = [0.0, 4.0, -4.0, -1.0 - 1e-12j]
    roots = branched_sqrt(ws)
    assert roots.shape == ws.shape
    for w, root in zip(ws, roots):
        assert abs(root - branched_sqrt(complex(w))) <= 1e-15 * max(1.0, abs(root))

    gammas = np.array([0.0, 0.3, 0.7, 2.6])
    assert np.allclose(tunnel_start_time(gammas),
                       [tunnel_start_time(float(g)) for g in gammas],
                       rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        tunnel_start_time(np.array([0.7, -0.1]))

    zs = np.array([5.0, 8.3, 13.7])
    grid = from_dimensionless(np.full(zs.shape, 1.1), zs)
    for n in (1, 2):
        rates = ionization_rate(grid, n, include_odd=True)
        per_cycle = rate_between_cycles(grid, 1, 3, include_odd=True)
        for i, z in enumerate(zs):
            point = from_dimensionless(1.1, float(z))
            assert rates[i] == pytest.approx(
                ionization_rate(point, n, include_odd=True), rel=1e-13)
            assert per_cycle[i] == pytest.approx(
                rate_between_cycles(point, 1, 3, include_odd=True), rel=1e-13)


def _fixed_amplitude(bound_term):
    def amplitude(params, n, include_odd=False):
        none = np.zeros((0,) + np.shape(bound_term), dtype=complex)
        return SurvivalAmplitude(t_f=2.0 * math.pi * n, bound_term=bound_term,
                                 k=np.arange(0), zeta=none, prefactor=none,
                                 packet_terms=none)
    return amplitude


def test_scalar_rate_is_not_finite_where_grid_rate_is_not(monkeypatch):
    import drivendelta.semiclassical as sc_mod

    monkeypatch.setattr(sc_mod, "survival_amplitude", _fixed_amplitude(0.0j))
    assert ionization_rate(P07, 1) == math.inf
    assert rate_between_cycles(P07, 1, 2) == math.inf  # 0/0

    monkeypatch.setattr(sc_mod, "survival_amplitude",
                        _fixed_amplitude(complex(math.inf, 0.0)))
    rate = ionization_rate(P07, 1)
    assert type(rate) is float and rate == -math.inf

    # on a grid the same points come back as non-finite rates
    bound = np.array([0.5 + 0.0j, 0.0j, complex(math.inf, 0.0), 1e-200 + 0.0j])
    monkeypatch.setattr(sc_mod, "survival_amplitude", _fixed_amplitude(bound))
    grid = from_dimensionless(np.full(4, 0.7), np.full(4, 10.0))
    rates = ionization_rate(grid, 1)
    assert rates[0] == pytest.approx(-math.log(0.25))
    assert np.isposinf(rates[1]) and np.isposinf(rates[3])
    assert np.isneginf(rates[2])


# ----------------------------------------------------------------------
# the packet sum against one term per burst
# ----------------------------------------------------------------------

def _p_by_loop(params, n, include_odd=False):
    # the per-burst loop of the packet sum: the start of each burst from the
    # closed forms of the drive at t0 + k*pi, its volkov_action and one term
    g, h = params.gamma, params.h
    t_f = 2.0 * math.pi * n
    e_m = quasi_energy_averaged(params).e_m
    t0 = tunnel_start_time(g)
    phi_0, cos_0, sin_0 = drive(t0).phi, np.sqrt(1.0 + g * g), 1j * g
    end = drive(t_f)
    terms = []
    for k in range(0, 2 * n, 1 if include_odd else 2):
        odd = k % 2 == 1
        start = Drive(t0 + k * math.pi, -sin_0 if odd else sin_0,
                      -cos_0 if odd else cos_0, phi_0 - 0.25 * math.pi * k)
        prefactor = -4.0 * h / (g * branched_sqrt(2j * math.pi * h * (t_f - start.t)))
        zeta = 1j * volkov_action(end, start) / h - 1j * e_m * start.t / h
        terms.append(prefactor * np.exp(zeta))
    return bound_propagator_factor(params, t_f) + sum(terms)


SC_SCAN_Z = 6.0 + 0.001 * np.arange(14001)


def test_packet_sum_is_the_loop_bit_for_bit_at_one_cycle():
    # the benchmark's scan grid: one burst, so the same operations in order
    params = from_dimensionless(0.7, SC_SCAN_Z)
    assert np.array_equal(survival_amplitude(params, 1).p, _p_by_loop(params, 1))


@pytest.mark.parametrize("params", [
    from_dimensionless(0.7, SC_SCAN_Z),
    # a gamma grid at one z, and a 2-D grid of gamma rows and z columns: the
    # burst axis broadcasts against both parameters, not against z alone
    from_dimensionless(np.geomspace(0.3, 2.0, 9), 10.0),
    from_dimensionless(np.geomspace(0.3, 2.0, 5)[:, None], np.linspace(5.0, 14.0, 7)),
], ids=["sc_scan_grid", "gamma_grid", "2d_grid"])
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("include_odd", [False, True])
def test_packet_sum_matches_the_loop(params, n, include_odd):
    # the sum over the burst axis may add in another order: a few ulp
    got = survival_amplitude(params, n, include_odd=include_odd).p
    want = _p_by_loop(params, n, include_odd=include_odd)
    assert got.shape == want.shape == np.broadcast(params.gamma, params.z).shape
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


def test_packet_sum_checks_its_size_against_the_machine_memory(monkeypatch):
    # on a machine of 1 MiB, 7 cycles at 1000 points (7000 terms, 1.1 MB at
    # 160 bytes per term) do not fit and 6 cycles (0.96 MB) do
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
    params = from_dimensionless(0.7, np.linspace(8.0, 12.0, 1000))
    with pytest.raises(ValueError, match="do not fit in memory"):
        survival_amplitude(params, 7)
    assert survival_amplitude(params, 6).packet_terms.shape == (6, 1000)
    with pytest.raises(ValueError, match="do not fit in memory"):
        survival_amplitude(params, 4, include_odd=True)
