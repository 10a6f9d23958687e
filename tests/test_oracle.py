import functools
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import BarycentricInterpolator, CubicSpline
from scipy.special import erfcx

import drivendelta
from drivendelta.errors import ConvergenceError
from drivendelta.model import Drive, drive, from_dimensionless
from drivendelta.oracle import (
    _BLOCK,
    _FAR,
    _FAR_SERIES,
    _TILE,
    _Cis,
    _LAGRANGE_POINTS,
    _Kernel,
    _barycentric,
    _chebyshev_points,
    _erfcx,
    _free_evolution_overlap,
    _lagrange,
    _two_sided_overlap,
    _march,
    _mirror_t_times,
    _mirror_times,
    _partition,
    _real_times,
    _series_weight,
    _simpson,
    _weights,
    default_time_step,
    rate_between_cycles,
    rate_from_oracle,
    solve_boundary_function,
    survival_probability,
)
from drivendelta.semiclassical import volkov_propagator

P_SMALL = from_dimensionless(0.7, 5.0)   # h = 0.05, cheap solves
P_OFF = from_dimensionless(0.7, 1.25)    # h = 0.2, field-off checks


# ----------------------------------------------------------------------
# complex error function (oracle._erfcx, on which the overlaps rely),
# against scipy's erfcx and 50-digit mpmath
# ----------------------------------------------------------------------

def _lattice():
    re = np.array([-6.0, -2.5, -0.7, 0.0, 0.4, 1.3, 3.0, 8.0])
    im = np.array([-5.0, -1.1, 0.0, 0.6, 2.2, 7.0])
    pts = [complex(a, b) for a in re for b in im]
    return np.array(pts[:50])


def test_erfc_reflection_symmetry():
    # erfc(-z) = 2 - erfc(z), times exp(z^2)
    z = _lattice()
    lhs = _erfcx(-z)
    rhs = 2.0 * np.exp(z * z) - _erfcx(z)
    scale = np.maximum(np.abs(np.exp(z * z)), np.abs(rhs))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_erfc_conjugation_symmetry():
    z = _lattice()
    lhs = _erfcx(np.conj(z))
    rhs = np.conj(_erfcx(z))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs)))


def test_erfcx_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in _lattice():
        ours = _erfcx(z)
        exact = complex(mpmath.exp(z**2) * mpmath.erfc(z))
        assert abs(ours - exact) <= 1e-13 * max(1.0, abs(exact))


def test_erfcx_real_axis_matches_scipy():
    # the complex function agrees with scipy's real one on the real axis
    x = np.linspace(-3.0, 30.0, 41)
    ours = _erfcx(x.astype(complex))
    assert np.allclose(ours.real, erfcx(x), rtol=1e-13)
    assert np.allclose(ours.imag, 0.0, atol=1e-13)


def _mpmath_erfcx(mpmath, z):
    """exp(z^2)*erfc(z) at 50 digits, rounded to complex, for each z."""
    with mpmath.workdps(50):
        return np.array([complex(mpmath.exp(mpmath.mpc(v) ** 2) * mpmath.erfc(mpmath.mpc(v)))
                         for v in np.ravel(z)])


def _oracle_erfcx_arguments(monkeypatch, params, cycles):
    """Every argument of _erfcx in a solve over ``cycles`` and its projection."""
    import drivendelta.oracle as oracle_mod

    seen = []

    def recording(z):
        seen.append(np.ravel(z))
        return _erfcx(z)

    monkeypatch.setattr(oracle_mod, "_erfcx", recording)
    survival_probability(solve_boundary_function(params, cycles), cycles)
    return np.concatenate(seen)


@pytest.mark.parametrize("gamma, z, cycles, bound", [
    # |z| up to 2.5, 1.6, 7.4, 6.5, 2.5e-4 and 12; the share of arguments
    # with Re z < 0 (erfcx(z) = 2*exp(z^2) - erfcx(-z)) is 4%, 45%, 33%, 0,
    # 4% and 3%.  Measured: 7.8e-16, 1.1e-15, 2.3e-15, 8.6e-16, 1.1e-15 and
    # 5.9e-16; each bound is about twice that
    (0.7, 1.0, 1, 1.6e-15),
    (0.001, 1.0, 1, 2.2e-15),
    (0.05, 20.0, 1, 5e-15),
    (2.6, 0.5, 1, 1.7e-15),
    (0.7, 1e-8, 1, 2.2e-15),
    (0.7, 12.0, 2, 1.2e-15),
])
def test_erfcx_against_high_precision_at_the_oracle_arguments(monkeypatch, gamma, z,
                                                              cycles, bound):
    # 150 or so of a solve's arguments, evenly spaced in call order, and
    # as many of those with Re z < 0
    mpmath = pytest.importorskip("mpmath")
    args = _oracle_erfcx_arguments(monkeypatch, from_dimensionless(gamma, z), cycles)
    left = args[args.real < 0.0]
    args = np.concatenate((args[::max(1, args.size // 150)],
                           left[::max(1, left.size // 150)]))
    exact = _mpmath_erfcx(mpmath, args)
    err = np.abs(_erfcx(args) - exact) / np.abs(exact)
    assert np.max(err) < bound


def test_erfcx_against_high_precision_at_small_and_large_arguments():
    # |z| from 1e-300 to 1e8 on rays in the right half plane, Re z = 0
    # included; up to 5 on rays in the left one, where erfcx(z) cancels
    # 2*exp(z^2) near the zeros of erfc; and up to 1e4 beside the
    # imaginary axis, where exp(z^2) is small.  Measured: 5.6e-16 and 1.4e-15
    mpmath = pytest.importorskip("mpmath")
    mags = [1e-300, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, 100.0, 1e4, 1e8]
    right = [r * complex(math.cos(a), math.sin(a)) for r in mags
             for a in (0.25 * math.pi, -0.25 * math.pi)]
    right += [complex(r, 0.0) for r in mags] + [complex(0.0, s * r) for r in mags
                                                  for s in (1, -1)]
    left = [r * complex(math.cos(a), math.sin(a)) for r in mags[:7]
            for a in (0.6 * math.pi, 0.75 * math.pi, -0.75 * math.pi, math.pi)]
    left += [complex(-x, y) for x in (1e-3, 0.1, 1.0) for y in (5.0, 20.0, -100.0, 1e4)]
    for points, bound in ((right, 1.2e-15), (left, 2.8e-15)):
        z = np.array(points)
        exact = _mpmath_erfcx(mpmath, z)
        assert np.all(np.abs(_erfcx(z) - exact) <= bound * np.abs(exact))


def test_erfcx_overflows_where_scipy_does():
    # in the left half plane 2*exp(z^2) overflows once Re z^2 > 709.78, and
    # z^2 itself once |x*y| > 1e308 for z = x + iy; a failed sample must
    # stay a rate that is not finite, and no warning may be raised (pytest
    # turns a RuntimeWarning into an error)
    z = np.array([complex(-x, y) for x in (20.0, 26.0, 27.0, 40.0, 1e3)
                  for y in (0.0, 1.0, 5.0, -8.0)]
                 + [complex(-1e150, 1e150), complex(-1e150, -1e150),
                    complex(-1e155, 1e155)])
    assert np.array_equal(np.isfinite(_erfcx(z)), np.isfinite(erfcx(z)))
    assert not np.all(np.isfinite(erfcx(z)))
    assert np.all(np.isfinite(_erfcx(-z)))


def test_erfcx_keeps_the_shape_and_type_of_its_argument():
    assert isinstance(_erfcx(np.complex128(1.0 + 1.0j)), np.complex128)
    assert _erfcx(np.zeros((2, 3))).shape == (2, 3)
    assert _erfcx(0.0) == pytest.approx(1.0, rel=1e-15)


# ----------------------------------------------------------------------
# boundary-function solve
# ----------------------------------------------------------------------

def test_initial_value_is_ground_state_origin():
    grid = solve_boundary_function(P_SMALL, 1)
    assert grid.f[0] == pytest.approx(math.sqrt(P_SMALL.gamma / P_SMALL.h),
                                      rel=1e-14)


def test_field_off_pure_bound_phase():
    params = P_OFF
    t_f = 4.0 * math.pi
    grid = solve_boundary_function(params, 2, driven=False)
    exact = (math.sqrt(params.gamma / params.h)
             * np.exp(1j * params.gamma**2 * grid.t / (2.0 * params.h)))
    err = np.max(np.abs(grid.f - exact)) / math.sqrt(params.gamma / params.h)
    assert err < 5e-3
    p, w = survival_probability(grid, 2)
    assert abs(w - 1.0) < 5e-5
    # the projection phase follows exp(i*gamma^2*t/(2h)) as well
    phase = np.exp(1j * params.gamma**2 * t_f / (2.0 * params.h))
    assert p == pytest.approx(phase, abs=5e-4)


def test_field_off_unitarity_tight_at_fine_dt():
    params = P_OFF
    grid = solve_boundary_function(params, 2,
                                   dt=default_time_step(params, factor=160.0),
                                   driven=False)
    _, w = survival_probability(grid, 2)
    assert abs(w - 1.0) < 2e-6


def _psi0(params, x):
    """Bound state sqrt(gamma/h)*exp(-gamma*|x|/h) in transformed units."""
    lam = params.gamma / params.h
    return math.sqrt(lam) * np.exp(-lam * np.abs(x))


def _psi0_overlap_by_quadrature(params, propagator):
    """integral psi0(u) * propagator(u) du by adaptive quadrature."""
    span = 60.0 * params.h / params.gamma
    parts = [quad(lambda u: part(propagator(u) * _psi0(params, u)), -span, span,
                  points=[0.0], limit=400, epsabs=1e-12, epsrel=1e-12)[0]
             for part in (np.real, np.imag)]
    return complex(*parts)


def test_inhomogeneous_term_is_spread_ground_state():
    # g(t) must equal the direct overlap of the shared Volkov kernel with
    # the initial bound state: quadrature cross-check of the closed form
    params = P_SMALL
    gamma, h = params.gamma, params.h
    for t in (0.4, 1.7):
        ref = _psi0_overlap_by_quadrature(
            params, lambda y: volkov_propagator(0.0, t, y, 0.0, params))
        closed = complex(_two_sided_overlap(drive(np.array([t])), drive(0.0),
                                            gamma, h, x=0.0)[0])
        assert closed == pytest.approx(ref, rel=1e-10)


def test_projection_overlap_closed_form():
    params = P_SMALL
    gamma, h = params.gamma, params.h
    t_f = 2.0 * math.pi
    for t_src in (0.8, 4.0):
        ref = _psi0_overlap_by_quadrature(
            params, lambda x: volkov_propagator(x, t_f, 0.0, t_src, params))
        closed = complex(_two_sided_overlap(drive(t_f), drive(np.array([t_src])),
                                            gamma, h, y=0.0)[0])
        assert closed == pytest.approx(ref, rel=1e-10)


def test_overlap_with_either_end_fixed_off_the_origin():
    # the fixed point's own linear term, x*sin t_f or -y*sin t_i, vanishes
    # in every call the solver makes; here it does not
    params = P_SMALL
    gamma, h = params.gamma, params.h
    t_f, t_i, point = 2.9, 0.8, 0.3
    ref = _psi0_overlap_by_quadrature(
        params, lambda y: volkov_propagator(point, t_f, y, t_i, params))
    closed = _two_sided_overlap(drive(t_f), drive(t_i), gamma, h, x=point)
    assert complex(closed) == pytest.approx(ref, rel=1e-10)
    ref = _psi0_overlap_by_quadrature(
        params, lambda x: volkov_propagator(x, t_f, point, t_i, params))
    closed = _two_sided_overlap(drive(t_f), drive(t_i), gamma, h, y=point)
    assert complex(closed) == pytest.approx(ref, rel=1e-10)


def _simpson_free_overlap(n, gamma, h, n_nodes):
    """<psi0| U(t_f, 0) |psi0> after n cycles by composite Simpson on each
    half-line, over the inner overlap _two_sided_overlap."""
    t_f = 2.0 * math.pi * n
    lam = gamma / h
    span = 40.0 / lam
    total = 0.0j
    for lo, hi in ((-span, 0.0), (0.0, span)):
        y = np.linspace(lo, hi, n_nodes)
        inner = _two_sided_overlap(drive(t_f), drive(0.0), gamma, h, y=y)
        vals = math.sqrt(gamma / h) * np.exp(-lam * np.abs(y)) * inner
        total += simpson(vals.real, x=y) + 1j * simpson(vals.imag, x=y)
    return total


@pytest.mark.parametrize("gamma, z, n, bound", [
    (0.3, 0.1, 2, 2e-15),
    (0.7, 2.0, 1, 5e-15),
    (0.7, 8.0, 2, 5e-15),
    (1.5, 0.5, 3, 1e-13),
    (2.6, 20.0, 1, 5e-14),
])
def test_free_evolution_overlap_against_fine_simpson(gamma, z, n, bound):
    # the closed form against the quadrature it replaced, a 128001-node
    # Simpson rule, itself within 6e-16 of the 50-digit reference at these
    # points.  Measured: 8.0e-16, 5.1e-16, 1.0e-15, 1.5e-15 and 1.7e-15
    # (6.7e-16, 1.8e-15, 1.0e-15, 4.8e-14 and 2.0e-14 with scipy's erfcx,
    # when the bounds were set).
    h = 1.0 / (4.0 * z)
    ref = _simpson_free_overlap(n, gamma, h, 128001)
    assert abs(_free_evolution_overlap(n, gamma, h, True) - ref) < bound


def _mpmath_free_overlap(mpmath, n, gamma, h, driven):
    """_free_evolution_overlap's closed form at 50 digits, from the same
    float inputs (t_f = 2*pi*n rounded as the oracle rounds it)."""
    with mpmath.workdps(50):
        t_f = mpmath.mpf(2.0 * math.pi * n)
        phi = (mpmath.sin(t_f) * mpmath.cos(t_f) - t_f) / 4 if driven else 0
        zeta = gamma * mpmath.sqrt(1j * t_f / (2 * mpmath.mpf(h)))
        bracket = ((1 - 2 * zeta**2) * mpmath.exp(zeta**2) * mpmath.erfc(zeta)
                   + 2 * zeta / mpmath.sqrt(mpmath.pi))
        return complex(mpmath.exp(1j * phi / mpmath.mpf(h)) * bracket)


@pytest.mark.parametrize("gamma, z, n, bound", [
    # |zeta|^2 = 4*pi*n*z*gamma^2: 0.03, 3.1, 15, 99, 370, 1,700 and 5,100;
    # each bound is about twice the larger error measured driven or field-off
    (0.05, 1.0, 1, 1e-15),
    (0.7, 0.5, 1, 5e-16),
    (0.7, 2.5, 1, 8e-15),
    (0.7, 8.0, 2, 4e-15),
    (0.7, 12.0, 5, 2e-14),
    (1.5, 12.0, 5, 4e-14),
    (2.6, 12.0, 5, 4e-13),
])
def test_free_evolution_overlap_against_high_precision(gamma, z, n, bound):
    # the error is erfcx's error times |1 - 2 zeta^2| |erfcx|, about
    # 2|zeta|/sqrt(pi): the two terms cancel to |overlap| ~ 2/(sqrt(pi)|zeta|).
    # The bounds were set with scipy's erfcx; oracle._erfcx's errors are
    # 2.5e-16, 1.8e-16, 9.2e-16, 1.5e-15, 4.3e-15, 7.7e-15 and 1.3e-14
    mpmath = pytest.importorskip("mpmath")
    h = 1.0 / (4.0 * z)
    for driven in (True, False):
        exact = _mpmath_free_overlap(mpmath, n, gamma, h, driven)
        assert abs(_free_evolution_overlap(n, gamma, h, driven) - exact) < bound


# ----------------------------------------------------------------------
# the march against a per-pair reference
# ----------------------------------------------------------------------

def _kernel_action(t, s, sin_t, cos_t, sc_t, sin_s, cos_s, sc_s):
    # classical action between (0, s) and (0, t) under the drive, unfolded
    d = t - s
    dc = cos_t - cos_s
    return (-d / 4.0 - 0.75 * (sc_t - sc_s) + dc * dc / (2.0 * d)
            + cos_s * (sin_t - sin_s) + dc * sin_t)


def _reference_march(t, dt, n, gamma, h, driven):
    """Row-by-row march with one complex exp of the full action per pair."""
    sin_t, cos_t = np.sin(t), np.cos(t)
    sc_t = sin_t * cos_t
    lag = dt * np.arange(n + 2, dtype=float)
    root = np.sqrt(lag)
    m0 = np.zeros(n + 2)
    m1 = np.zeros(n + 2)
    m0[1:] = 2.0 * (root[1:] - root[:-1])
    m1[1:] = 2.0 * lag[1:] * (root[1:] - root[:-1]) - (2.0 / 3.0) * (lag[1:] ** 1.5 - lag[:-1] ** 1.5)
    w_mid = np.zeros(n + 1)
    w_mid[1:] = m1[2:] / dt + m0[1:-1] - m1[1:-1] / dt
    w_diag = m1[1] / dt

    kern_pref = 1.0 / np.sqrt(2j * np.pi * h)
    coupling = 1j * gamma
    denom = 1.0 - coupling * kern_pref * w_diag
    g = np.empty(n + 1, dtype=complex)
    g[0] = math.sqrt(gamma / h)
    g[1:] = _two_sided_overlap(drive(t[1:], driven), drive(0.0, driven),
                               gamma, h, x=0.0)

    f = np.empty(n + 1, dtype=complex)
    f[0] = g[0]
    for j in range(1, n + 1):
        hist = slice(0, j)
        if driven:
            action = _kernel_action(t[j], t[hist], sin_t[j], cos_t[j], sc_t[j],
                                    sin_t[hist], cos_t[hist], sc_t[hist])
            phi = np.exp((1j / h) * action) * f[hist]
        else:
            phi = f[hist]
        acc = np.dot(w_mid[j:0:-1], phi)
        # boundary panel: node i = 0 carries only the leading half-panel weight
        acc += (m0[j] - m1[j] / dt - w_mid[j]) * phi[0]
        f[j] = (g[j] + coupling * kern_pref * acc) / denom
    return f


def _march_deviation(params, t_f, n, period, driven=True):
    dt = t_f / n
    t = dt * np.arange(n + 1)
    args = (t, dt, n, params.gamma, params.h, driven)
    f, kernel_evals = _march(t, params.gamma, params.h, driven, period)
    # the dense march evaluates every pair, plus the upper halves of its
    # diagonal tiles; from n = 4 * _FAR rows on, far blocks are
    # interpolated and fewer entries than pairs are evaluated
    assert (kernel_evals < n * (n + 1) // 2) == (n >= 4 * _FAR)
    dev = np.max(np.abs(f - _reference_march(*args)))
    return dev / math.sqrt(params.gamma / params.h)


@pytest.mark.parametrize("z, cycles", [pytest.param(1.0, 1, id="1.0"),
                                       pytest.param(4.0, 1, id="4.0"),
                                       pytest.param(4.0, 2, id="4.0-2cycles")])
def test_march_matches_reference_driven(z, cycles):
    # z = 4 interpolates far blocks (1971 steps per cycle, two levels of the
    # hierarchy, and over two cycles the block of the second cycle's history
    # in the first); measured deviations 4e-15, 1e-13 and 5e-13, most of it
    # the rounding of the reference's difference-form weights
    params = from_dimensionless(0.7, z)
    period = int(math.ceil(2.0 * math.pi / default_time_step(params)))
    assert period > 8 * _BLOCK
    assert _march_deviation(params, 2.0 * math.pi * cycles, cycles * period,
                            period=period) < 1e-12


def test_march_matches_reference_field_off():
    n = int(math.ceil(4.0 * math.pi / default_time_step(P_OFF)))
    assert _march_deviation(P_OFF, 4.0 * math.pi, n, period=n, driven=False) < 1e-12


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               9 * _BLOCK + 5, 4 * _FAR - 2, 4 * _FAR - 1,
                               4 * _FAR, 1278, 1279, 1280])
def test_march_matches_reference_block_edges(n):
    # fewer rows than one block, row counts that leave a partial block, the
    # last dense marches and the first split one (n = 4 * _FAR rows after
    # node 0, whose quarters are the smallest far blocks), and marches split
    # once more, into far blocks of 319 and 320 rows
    assert _march_deviation(P_SMALL, 0.5 * math.pi, n, period=n) < 1e-12


def test_march_matches_reference_half_resolution_companion():
    # tolerance= re-marches every second node with n // 2 steps
    params = P_SMALL
    grid = solve_boundary_function(params, 1, tolerance=5e-3)
    n = grid.n_steps
    assert (n // 2) % _BLOCK != 0
    args = (grid.t, grid.dt, n, params.gamma, params.h, True)
    scale = math.sqrt(params.gamma / params.h)
    assert np.max(np.abs(grid.f - _reference_march(*args))) / scale < 1e-12
    assert _march_deviation(params, 2.0 * math.pi, n // 2, period=n // 2) < 1e-12


def _march_by_rows(t, gamma, h, driven, period):
    """_march with each leaf block's triangle solved row by row, by forward
    substitution (a np.dot and a division per row), on the same kernel,
    partition and tiles: the reference for the block's one linear solve."""
    kernel = _Kernel(t, h, driven, period)
    rot = np.exp((1j / h) * kernel.nodes.phi)
    coupling = 1j * gamma / np.sqrt(2j * np.pi * h)
    denom = 1.0 - coupling * kernel.w_diag
    big_g = np.empty(t.size, dtype=complex)
    big_g[0] = math.sqrt(gamma / h)
    big_g[1:] = (_two_sided_overlap(Drive._make(v[1:] for v in kernel.nodes),
                                    drive(0.0, driven), gamma, h, x=0.0)
                 * np.conj(rot[1:]))
    big_f = np.empty(t.size, dtype=complex)
    big_f[0] = big_g[0]
    acc = np.zeros(t.size, dtype=complex)
    x0 = (kernel.nodes.cos[1:] - kernel.nodes.cos[0]) ** 2 / (2.0 * h * t[1:])
    acc[1:] = kernel.w_first[1:] * np.exp(1j * x0) * big_f[0]

    def dense(j0, j1, i0, i1):
        for r0 in range(j0, j1, _BLOCK):
            r1 = min(r0 + _BLOCK, j1)
            for c0 in range(i0, i1, _TILE):
                c1 = min(c0 + _TILE, i1)
                acc[r0:r1] += np.einsum("ij,j->i", kernel(r0, r1, c0, c1),
                                        big_f[c0:c1])

    for kind, *span in _partition(1, t.size, period):
        if kind == "leaf":
            lo, hi = span
            for j0 in range(lo, hi, _BLOCK):
                j1 = min(j0 + _BLOCK, hi)
                dense(j0, j1, lo, j0)
                k = kernel(j0, j1, j0, j1)
                for a, j in enumerate(range(j0, j1)):
                    total = acc[j] + np.dot(k[a, :a], big_f[j0:j])
                    big_f[j] = (big_g[j] + coupling * total) / denom
        elif kind == "dense":
            dense(*span)
        else:
            acc[span[0]:span[1]] += kernel.far(*span, big_f[span[2]:span[3]])
    return rot * big_f


@pytest.mark.parametrize("params, n, driven", [
    # one leaf narrower than _TILE, and wider, each ending in a short block
    pytest.param(P_SMALL, 200, True, id="200"),
    pytest.param(P_SMALL, 9 * _BLOCK + 5, True, id="293"),
    pytest.param(P_OFF, 300, False, id="300-field-off"),
    # the last one-leaf marches, the first split ones and leaves of 319 and
    # 320 rows beside far blocks
    *(pytest.param(P_SMALL, n, True, id=str(n))
      for n in (4 * _FAR - 2, 4 * _FAR - 1, 4 * _FAR, 1278, 1279, 1280))])
def test_block_solve_matches_the_row_by_row_solve(params, n, driven):
    t = (0.5 * math.pi / n) * np.arange(n + 1)
    f, _ = _march(t, params.gamma, params.h, driven, n)
    ref = _march_by_rows(t, params.gamma, params.h, driven, n)
    assert np.max(np.abs(f - ref)) <= 1e-14 * math.sqrt(params.gamma / params.h)


@pytest.mark.parametrize("z, cycles", [(1.0, 1), (4.0, 2)])
def test_a_leaf_block_takes_one_kernel_call_per_history_tile(monkeypatch, z, cycles):
    # z = 1 marches one leaf of 493 rows, z = 4 leaves of 246 rows beside
    # dense and far blocks; the tile that ends a block's history holds its
    # triangle too, so only the first block of a leaf, which has no history,
    # evaluates a square of its own rows
    calls = []
    call = _Kernel.__call__

    def recording(self, *span):
        calls.append(span)
        return call(self, *span)

    monkeypatch.setattr(_Kernel, "__call__", recording)
    grid = solve_boundary_function(from_dimensionless(0.7, z), cycles)
    n = grid.n_steps
    expected, leaves = 0, 0
    for kind, *span in _partition(1, n + 1, n // cycles):
        if kind == "leaf":
            lo, hi = span
            leaves += 1
            expected += sum(math.ceil((min(j0 + _BLOCK, hi) - lo) / _TILE)
                            for j0 in range(lo, hi, _BLOCK))
        elif kind == "dense":
            j0, j1, i0, i1 = span
            expected += math.ceil((j1 - j0) / _BLOCK) * math.ceil((i1 - i0) / _TILE)
    assert len(calls) == expected
    assert sum(j0 == i0 for j0, _, i0, _ in calls) == leaves


@pytest.mark.parametrize("n, cycles", [
    *(pytest.param(n, 1, id=str(n)) for n in (4 * _FAR - 1, 4 * _FAR, 1279, 1280,
                                               3001, 5121)),
    *(pytest.param(cycles * m, cycles, id=f"{cycles * m}-{cycles}cycles")
      for m, cycles in ((1971, 2), (300, 5), (1183, 5)))])
def test_partition_covers_each_pair_once_in_causal_order(n, cycles):
    # rows 1..n; node 0's terms start the sums, so no step touches it
    period = n // cycles
    steps = _partition(1, n + 1, period)
    covered = np.zeros((n + 1, n + 1), dtype=np.int8)
    solved = 1
    for kind, *span in steps:
        if kind == "leaf":
            lo, hi = span
            assert lo == solved
            covered[lo:hi, lo:hi] += np.tril(np.ones((hi - lo, hi - lo), np.int8), -1)
            solved = hi
            continue
        j0, j1, i0, i1 = span
        # columns solved, rows not yet
        assert 1 <= i1 <= solved <= j0
        if kind == "far":
            assert min(j1 - j0, i1 - i0) >= _FAR
            assert j0 - i1 + 1 >= max(j1 - j0, i1 - i0)
        covered[j0:j1, i0:i1] += 1
    assert solved == n + 1
    expected = np.tril(np.ones((n + 1, n + 1), np.int8), -1)
    expected[:, 0] = 0
    assert np.array_equal(covered, expected)
    if cycles == 1:
        assert any(step[0] == "far" for step in steps) == (n >= 4 * _FAR)
    else:
        # a step shifted back by whole cycles, where it stays past node 0,
        # is a step too: the same block of the periodic kernel
        assert any(step[0] == "far" for step in steps)
        shifted = {(kind, *(e - period for e in span)) for kind, *span in steps
                   if min(span) > period}
        assert shifted and shifted <= set(steps)


def test_kernel_evals_counts_tiles_and_cores(monkeypatch):
    import drivendelta.oracle as oracle_mod

    cores = {}
    core = oracle_mod._Kernel.core

    def recording(self, q, *span):
        cores.setdefault(span, []).append(q)
        return core(self, q, *span)

    monkeypatch.setattr(oracle_mod._Kernel, "core", recording)
    params = from_dimensionless(0.7, 4.0)
    grid = solve_boundary_function(params, 3)
    n = grid.n_steps
    period = n // 3
    steps = _partition(1, n + 1, period)
    expected = sum(q * q for qs in cores.values() for q in qs)
    for kind, *span in steps:
        if kind == "leaf":
            # each row block: its history in the leaf plus its square tile
            lo, hi = span
            for j0 in range(lo, hi, _BLOCK):
                rows = min(j0 + _BLOCK, hi) - j0
                expected += rows * (j0 - lo) + rows * rows
        else:
            j0, j1, i0, i1 = span
            if kind == "dense":
                expected += (j1 - j0) * (i1 - i0)
    # the first of a far block's shifts by whole cycles evaluates at least
    # the cores of p = 17 and p = 33; each later one its p x p core alone
    seen = set()
    for kind, j0, j1, i0, i1 in (step for step in steps if step[0] == "far"):
        key = (j0 - i0, i0 % period, j1 - j0, i1 - i0)
        qs = cores[(j0, j1, i0, i1)]
        assert len(qs) == 1 if key in seen else len(qs) >= 2
        seen.add(key)
    assert len(seen) < sum(step[0] == "far" for step in steps)
    assert grid.kernel_evals == expected < n * (n + 1) // 2


def _far_calls(monkeypatch):
    """Record each far block the march sums: its kernel, span and whether
    its p was recorded before."""
    import drivendelta.oracle as oracle_mod

    calls = []
    far = oracle_mod._Kernel.far

    def recording(self, j0, j1, i0, i1, f):
        key = (j0 - i0, i0 % self.period, j1 - j0, i1 - i0)
        calls.append((self, (j0, j1, i0, i1), key in self.far_p))
        return far(self, j0, j1, i0, i1, f)

    monkeypatch.setattr(oracle_mod._Kernel, "far", recording)
    return calls


def test_reused_far_blocks_take_the_p_of_their_own_search(monkeypatch):
    # z = 12 over three cycles: the blocks of cycles 2 and 3 repeat those of
    # cycle 1 and its history, and each would choose the same p itself
    calls = _far_calls(monkeypatch)
    solve_boundary_function(from_dimensionless(0.7, 12.0), 3)
    reused = [(kernel, span) for kernel, span, seen in calls if seen]
    assert len(reused) > len(calls) // 2
    for kernel, (j0, j1, i0, i1) in reused:
        key = (j0 - i0, i0 % kernel.period, j1 - j0, i1 - i0)
        assert kernel.search(j0, j1, i0, i1)[0] == kernel.far_p[key]


def test_far_reuse_keeps_the_rates_of_a_march_that_searches_every_block(monkeypatch):
    # the same grid and partition, with each far block's p searched afresh
    params = from_dimensionless(0.7, 12.0)
    rates = [rate_between_cycles(params, 1, 3), rate_between_cycles(params, 2, 3)]
    calls = _far_calls(monkeypatch)
    far = _Kernel.far

    def searching(self, *args):
        self.far_p.clear()
        return far(self, *args)

    monkeypatch.setattr(_Kernel, "far", searching)
    fresh = [rate_between_cycles(params, 1, 3), rate_between_cycles(params, 2, 3)]
    assert calls and not any(seen for _, _, seen in calls)
    assert rates == pytest.approx(fresh, rel=1e-12)


@pytest.mark.parametrize("p", [17, 33])
def test_barycentric_matrix_is_exact_on_polynomials_below_degree_p(p):
    # rows 1000..1320 of a block: both edges are nodes, and so is the middle
    # row, 1160, since 0 is a node for odd p
    rows = np.arange(1000, 1321)
    coef = np.random.default_rng(5).normal(size=p)
    m = _barycentric(p, 1000, 1320, rows)
    at_nodes = np.polynomial.chebyshev.chebval(_chebyshev_points(p), coef)
    exact = np.polynomial.chebyshev.chebval((rows - 1160) / 160, coef)
    assert np.max(np.abs(m @ at_nodes - exact)) < 1e-13 * np.max(np.abs(exact))
    for row, node in ((0, p - 1), (160, p // 2), (320, 0)):
        assert np.array_equal(m[row], np.eye(p)[node])
        assert (m @ at_nodes)[row] == at_nodes[node]


def test_far_matrices_depend_only_on_p_and_block_size():
    # a solve keeps one matrix per (p, size), its top rows: the affine map of
    # integer rows to [-1, 1] is exact, so a block anywhere on the grid gets
    # the same bits
    kernel = _Kernel(np.arange(5.0), 0.05, True, 4)
    m = kernel._matrix(33, 321)
    assert kernel._matrix(33, 321) is m
    assert m.shape == (161, 33)
    for i0 in (0, 1000, 28673):
        rows = np.arange(i0, i0 + 161)
        assert np.array_equal(_barycentric(33, i0, i0 + 320, rows), m)
    mid = _barycentric(33, -1.0, 1.0, _chebyshev_points(65)[1::2])
    assert np.array_equal(kernel._matrix(33), mid)


@pytest.mark.parametrize("size", [320, 321])
def test_mirrored_matrix_products_match_the_full_matrix(size):
    # the bottom rows are the top ones turned about the center, to rounding
    full = _barycentric(33, 0, size - 1, np.arange(size))
    top = full[:(size + 1) // 2]
    assert np.max(np.abs(full[::-1, ::-1][:top.shape[0]] - top)) <= 1e-15
    rng = np.random.default_rng(11)
    v = rng.normal(size=33) + 1j * rng.normal(size=33)
    f = rng.normal(size=size) + 1j * rng.normal(size=size)
    assert np.max(np.abs(_mirror_times(top, size, v) - full @ v)) <= 1e-14
    assert np.max(np.abs(_mirror_t_times(top, f) - full.T @ f)) <= 1e-13
    assert np.max(np.abs(_mirror_t_times(top, f.real) - full.T @ f.real)) <= 1e-13


def test_real_times_matches_matmul():
    # complex vectors and matrices, contiguous or not, and the real unit
    # vectors that far blocks are tested with
    rng = np.random.default_rng(13)
    matrix = rng.normal(size=(7, 9))
    real = rng.normal(size=(9, 5))
    cplx = real + 1j * rng.normal(size=(9, 5))
    for z in (real[:, 0], cplx[:, 0], cplx, cplx[:, ::2], cplx.T.copy().T,
              np.eye(9)[0]):
        for m in (matrix, np.asfortranarray(matrix), matrix.T.copy().T):
            out = _real_times(m, z)
            assert out.shape == (m @ z).shape and out.dtype == complex
            assert np.max(np.abs(out - m @ z)) <= 1e-14
    assert np.array_equal(_real_times(matrix, np.eye(9)[0]), matrix[:, 0])


def _assert_far_block_matches_exact(kernel, span):
    # against column 0, the middle and last columns, and a random vector;
    # |K @ f| <= max|K| * sum|f| sets the scale
    j0, j1, i0, i1 = span
    exact = np.array([kernel(j, j + 1, i0, i1)[0].copy() for j in range(j0, j1)])
    k = i1 - i0
    phases = np.exp(2j * np.pi * np.random.default_rng(7).random(k))
    for f in (np.eye(k)[0], np.eye(k)[k // 2], np.eye(k)[-1], phases):
        err = np.max(np.abs(kernel.far(*span, f) - exact @ f))
        assert err <= 1e-12 * np.max(np.abs(exact)) * np.sum(np.abs(f))


def test_far_blocks_match_their_exact_blocks():
    # node 0's w_first starts the march's sums (_march), so every far block,
    # from column 1 on, holds the one Toeplitz kernel, w_mid at every lag;
    # over two cycles the second cycle's blocks take the p of the first's,
    # and the far calls after a block's first take its recorded p
    params = from_dimensionless(0.7, 4.0)
    period = 1971
    n = 2 * period
    dt = 4.0 * math.pi / n
    kernel = _Kernel(dt * np.arange(n + 1), params.h, True, period)
    far = [tuple(span) for kind, *span in _partition(1, n + 1, period) if kind == "far"]
    assert any(i0 == 1 for _, _, i0, _ in far)
    assert any(i1 <= period < j0 for j0, _, _, i1 in far)
    for span in far:
        _assert_far_block_matches_exact(kernel, span)


def test_march_memory_peak_stays_with_mirrored_halves():
    # 4.5 MiB traced at z = 8 over two cycles; keeping whole barycentric
    # matrices instead of their top halves (see _matrix) reads 6.5 MiB
    params = from_dimensionless(0.7, 8.0)
    period = math.ceil(2.0 * math.pi / default_time_step(params))
    t = (2.0 * math.pi / period) * np.arange(2 * period + 1)
    _march(t, params.gamma, params.h, True, period)  # imports and first-use caches
    tracemalloc.start()
    try:
        _march(t, params.gamma, params.h, True, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_march_runs_on_one_thread(tmp_path):
    # one-sided: a BLAS product with p >= 65 would busy a second CPU (README);
    # measured in a fresh interpreter, where no earlier BLAS call spins
    code = """
import math, time
from drivendelta.model import from_dimensionless
from drivendelta.oracle import solve_boundary_function
params = from_dimensionless(0.7, 12.0)
solve_boundary_function(params, 1, dt=0.1)
# the BLAS pool's threads spin for about 0.1 s after start-up: time the
# solve once the other threads' CPU time has stopped growing
others = -1.0
for _ in range(100):
    time.sleep(0.05)
    before, others = others, time.process_time() - time.thread_time()
    if others - before < 1e-3:
        break
wall, cpu = time.perf_counter(), time.process_time()
solve_boundary_function(params, 2)
print(time.process_time() - cpu, time.perf_counter() - wall)
"""
    src = str(Path(drivendelta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cpu, wall = map(float, proc.stdout.split())
    assert cpu <= 1.1 * wall


def test_p_choice_stops_at_the_rounding_floor(monkeypatch):
    # a far block at z = 12 over two cycles with phases up to 24: its
    # interpolation error plateaus at 1.1e-13 to 1.6e-13 of its largest
    # entry, so p stops only because the floor grows with the phase
    params = from_dimensionless(0.7, 12.0)
    period = int(math.ceil(2.0 * math.pi / default_time_step(params)))
    n = 2 * period
    dt = 4.0 * math.pi / n
    kernel = _Kernel(dt * np.arange(n + 1), params.h, True, period)
    span = (10716, 11086, 9977, 10347)
    assert ("far", *span) in _partition(1, n + 1, period)
    _assert_far_block_matches_exact(kernel, span)
    # with the phase taken out of the rule, p grows until 2p - 1 passes
    # the block's side
    core = _Kernel.core
    monkeypatch.setattr(_Kernel, "core", lambda *args: (core(*args)[0], 0.0))
    with pytest.raises(ConvergenceError, match="did not converge on the far block"):
        kernel.search(*span)


def _decimal_mid(lag):
    """w_mid / sqrt(dt) at a real lag, from 50-digit differences of L^(3/2)."""
    with localcontext() as ctx:
        ctx.prec = 50
        lag = Decimal(lag)
        power = [(lag + k) * (lag + k).sqrt() for k in (-1, 0, 1)]
        return float(Decimal(4) / 3 * (power[2] - 2 * power[1] + power[0]))


@functools.cache
def _decimal_weights(n):
    """w_mid and w_first over sqrt(dt) at lags 1..n, from 50-digit
    differences of L^(3/2)."""
    with localcontext() as ctx:
        ctx.prec = 50
        roots = [Decimal(lag).sqrt() for lag in range(n + 2)]
        power = [lag * root for lag, root in enumerate(roots)]
        mid = [Decimal(4) / 3 * (power[lag + 1] - 2 * power[lag] + power[lag - 1])
               for lag in range(1, n + 1)]
        first = [2 * roots[lag] - Decimal(4) / 3 * (power[lag] - power[lag - 1])
                 for lag in range(1, n + 1)]
    return np.array(mid, dtype=float), np.array(first, dtype=float)


def test_weights_against_decimal_reference():
    # the direct float differences lose digits like eps*L^2 (4e-9 relative
    # at L = 4000)
    n = 30000
    mid, first = _decimal_weights(n)
    dt = 0.37
    w_mid, w_first, w_diag = _weights(n, dt)
    scale = math.sqrt(dt)
    assert w_mid[0] == w_first[0] == 0.0
    assert np.max(np.abs(w_mid[1:] / (scale * mid) - 1.0)) <= 1e-14
    assert np.max(np.abs(w_first[1:] / (scale * first) - 1.0)) <= 1e-14
    assert w_diag == pytest.approx(4.0 / 3.0 * scale, rel=1e-15)


def _far_weight(lags):
    """w_mid over sqrt(dt) as a far block's cores take it."""
    inv = 1.0 / lags
    return _series_weight(inv, inv * inv, _FAR_SERIES)


def test_far_weight_against_decimal_reference():
    # a far block's cores take the weight at real lags from _FAR on, where
    # its cut series must hold; from lag _FAR on, so lowering _FAR past the
    # series' reach fails here
    n = 30000
    mid, _ = _decimal_weights(n)
    lags = np.arange(_FAR, n + 1, dtype=float)
    assert np.max(np.abs(_far_weight(lags) / mid[_FAR - 1:] - 1.0)) <= 1e-15
    real = _FAR + (n - _FAR) * np.random.default_rng(17).random(200) ** 4
    real[:2] = _FAR, _FAR + 0.5
    ref = np.array([_decimal_mid(lag) for lag in real])
    assert np.max(np.abs(_far_weight(real) / ref - 1.0)) <= 1e-15


def test_far_weight_series_is_cut_for_far_lags_only():
    # below _FAR the cut series falls short of the full one
    lags = np.arange(4, _FAR // 4, dtype=float)
    mid, _ = _decimal_weights(_FAR)
    assert np.max(np.abs(_far_weight(lags) / mid[3:_FAR // 4 - 1] - 1.0)) > 1e-15


def test_cis_matches_complex_exp():
    # phases in table steps of 2*pi/4096; the reference is exp(i*2*pi*y/4096)
    # in long double with pi to 36 digits, y reduced mod 4096 first (exact in
    # floats), so it holds well below the bound at any y.  The first grid
    # spans |x| < 1000 radians, the second every table entry, exact and half
    # way between two, the third a range far past 1600 radians
    rng = np.random.default_rng(3)
    per_radian = 4096 / (2.0 * math.pi)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for y in (rng.uniform(0.0, 1e3 * per_radian, 20000),
              0.5 * np.arange(-18000, 18000),
              -rng.uniform(0.0, 2.0**40, 20000)):
        exact = np.exp(1j * (2 * pi / 4096) * np.fmod(y, 4096.0).astype(np.longdouble))
        cis = _Cis(np.empty((_Cis.ROWS, y.size)))(
            y, np.ones(y.size), np.empty(y.size, dtype=complex))
        assert np.max(np.abs(cis - exact)) <= 4e-15
    one = _Cis(np.empty((_Cis.ROWS, 3)))(np.zeros(3), np.ones(3),
                                          np.empty(3, dtype=complex))
    assert np.all(one == 1.0)
    assert np.all(one.imag == 0.0)


# ----------------------------------------------------------------------
# the projection against a spline-and-scipy reference
# ----------------------------------------------------------------------

def _reference_projection(grid, n, interpolant=CubicSpline):
    """survival_probability's p as it was computed before numpy took over:
    a cubic spline of f and scipy's Simpson rule on max(4001,
    2*int(80*n_osc) + 1) nodes per half, here with 16 times as many
    intervals so that the reference's own quadrature error stays out of
    the comparison."""
    gamma, h = grid.params.gamma, grid.params.h
    t_f = 2.0 * math.pi * n
    f = interpolant(grid.t, grid.f)
    n_osc = max(gamma**2 / (2.0 * h) * t_f, t_f) / (2.0 * math.pi)
    m = 16 * (max(4001, 2 * int(80 * n_osc) + 1) - 1) + 1
    u = np.linspace(0.0, math.sqrt(0.5 * t_f), m)
    end = drive(t_f, grid.driven)
    total = 0.0 + 0.0j
    for t_src in (u * u, t_f - u * u):
        vals = np.zeros(m, dtype=complex)
        vals[1:] = (_two_sided_overlap(end, drive(t_src[1:], grid.driven),
                                       gamma, h, y=0.0)
                    * f(t_src[1:]) * 2.0 * u[1:])
        total += simpson(vals.real, x=u) + 1j * simpson(vals.imag, x=u)
    return _free_evolution_overlap(n, gamma, h, grid.driven) + 1j * gamma * total


@pytest.mark.parametrize("gamma, z, cycles", [
    *[(0.7, z, cycles) for z in (0.5, 0.8, 1.5, 2.5, 8.0, 12.0) for cycles in (1, 2)],
    (0.3, 2.0, 2),
])
def test_projection_matches_the_spline_reference(gamma, z, cycles):
    # measured deviations: 1e-10 to 3e-8 at gamma = 0.7, 1.8e-7 at
    # gamma = 0.3, where the spline's own interpolation error dominates (a
    # 4-point window would sit 1.9e-6 away there)
    grid = solve_boundary_function(from_dimensionless(gamma, z), cycles)
    for n in range(1, cycles + 1):
        p, w = survival_probability(grid, n)
        ref = _reference_projection(grid, n)
        assert abs(p - ref) <= 1e-6 * abs(ref)
        assert w == abs(p) ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projection_on_short_grids_interpolates_through_every_node(n):
    # n + 1 <= _LAGRANGE_POINTS nodes: one window, the polynomial through
    # all of them, for every time of the projection.  What is left is the
    # projection's quadrature error over the cycle's five bound-phase
    # oscillations, 5e-11 to 1.1e-10 here; a spline through 5 or 6 nodes,
    # another polynomial, is 6e-2 and 0.2 off
    assert n + 1 <= _LAGRANGE_POINTS
    t_f = 2.0 * math.pi
    grid = solve_boundary_function(P_SMALL, 1, dt=t_f / n)
    assert grid.n_steps == n
    p, _ = survival_probability(grid, 1)
    ref = _reference_projection(grid, 1, interpolant=BarycentricInterpolator)
    assert abs(p - ref) <= 5e-10 * abs(ref)
    if n <= 3:
        # a not-a-knot spline through at most 4 nodes is that polynomial too
        assert abs(p - _reference_projection(grid, 1)) <= 5e-10 * abs(ref)


@pytest.mark.parametrize("nodes", [2, 3, 4, 5, 6, 7, 12, 40])
def test_lagrange_interpolant_is_exact_on_polynomials(nodes):
    # exact on quintics (on every polynomial through all nodes of a shorter
    # grid), at every grid time, between them, and in the first and last
    # intervals, where the window shifts inward
    degree = min(_LAGRANGE_POINTS, nodes) - 1
    dt = 0.37
    rng = np.random.default_rng(nodes)
    poly = np.polynomial.Polynomial(rng.normal(size=degree + 1)
                                    + 1j * rng.normal(size=degree + 1))
    end = dt * (nodes - 1)
    s = np.concatenate((dt * np.arange(nodes), rng.uniform(0.0, end, 200 + nodes % 2),
                        [0.1 * dt, 0.5 * dt, end - 0.5 * dt, end - 0.1 * dt]))
    s = s.reshape(2, -1)
    exact = poly(s)
    value = _lagrange(poly(dt * np.arange(nodes)), dt, s)
    assert value.shape == s.shape
    assert np.max(np.abs(value - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_simpson_matches_scipy():
    rng = np.random.default_rng(11)
    for m in (3, 5, 1001, 4001):
        y = rng.random(m)
        dx = rng.uniform(0.1, 2.0)
        ref = simpson(y, dx=dx)
        assert abs(_simpson(y, dx) - ref) <= 1e-15 * ref
    y = rng.random((2, 3, 801)) + 1j * rng.random((2, 3, 801))
    ref = simpson(y.real, dx=0.01) + 1j * simpson(y.imag, dx=0.01)
    assert np.all(np.abs(_simpson(y, 0.01) - ref) <= 1e-15 * np.abs(ref))


def test_grid_refinement_differences_decrease():
    params = P_SMALL
    dt0 = default_time_step(params)
    ps = []
    for dt in (dt0, dt0 / 2.0, dt0 / 4.0):
        grid = solve_boundary_function(params, 1, dt=dt)
        p, _ = survival_probability(grid, 1)
        ps.append(p)
    d1 = abs(ps[0] - ps[1])
    d2 = abs(ps[1] - ps[2])
    assert d2 < d1
    # Richardson ratio consistent with a fixed convergence order (>= 1)
    order = math.log2(d1 / d2)
    assert 1.0 < order < 4.0


def test_driven_survival_strictly_below_one():
    params = from_dimensionless(0.7, 10.0)
    grid = solve_boundary_function(params, 1)
    _, w = survival_probability(grid, 1)
    assert w < 1.0
    assert w > 0.9  # weak depletion in one cycle at z = 10


def test_norm_bound():
    # w <= 1 + 10 * tolerance for a converged driven run
    params = P_SMALL
    grid = solve_boundary_function(params, 1)
    _, w = survival_probability(grid, 1)
    assert w <= 1.0 + 10.0 * 1e-5


def test_rate_from_oracle_behaviour():
    params = P_SMALL
    g_driven = rate_from_oracle(params, 1)
    assert g_driven > 0.0


def test_modulation_visible_between_nearby_z():
    g_a = rate_from_oracle(from_dimensionless(0.7, 14.0), 1)
    g_b = rate_from_oracle(from_dimensionless(0.7, 14.25), 1)
    assert abs(g_a - g_b) > 0.05 * max(abs(g_a), abs(g_b))


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_solve_rejects_a_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        solve_boundary_function(from_dimensionless(0.7, 1.0), 1, dt=dt)


@pytest.mark.parametrize("cycles", [0.0, -1.0, math.nan, math.inf])
def test_solve_rejects_a_final_time_that_is_not_positive_and_finite(cycles):
    # the final time is 2*pi*cycles
    with pytest.raises(ValueError, match="cycles must be an integer >= 1"):
        solve_boundary_function(from_dimensionless(0.7, 1.0), cycles)


def test_solve_rejects_a_step_count_beyond_memory():
    # 2*pi/1e-15 steps: more than the machine's memory holds, so the solve
    # allocates nothing
    with pytest.raises(ValueError, match="the 6.28e.15 time steps of dt=1e-15 "
                                         "do not fit in memory"):
        solve_boundary_function(from_dimensionless(0.7, 1.0), 1, dt=1e-15)


def test_solve_rejects_a_cycle_count_beyond_memory():
    # 7e12 steps of dt <= 1: at the solve's 264 bytes per step more than
    # any machine holds, though numpy could allocate the time grid
    with pytest.raises(ValueError, match="the 7e.12 time steps of dt=1 "
                                         "do not fit in memory"):
        solve_boundary_function(from_dimensionless(0.7, 1.0), 10**12, dt=1.0)


def test_solve_checks_its_size_against_the_machine_memory(monkeypatch):
    # on a machine of 1 MiB, 10 cycles of 493 steps (1.3 MB at 264 bytes
    # per step) do not fit and 7 cycles (0.9 MB) do
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
    params = from_dimensionless(0.7, 1.0)
    with pytest.raises(ValueError, match="do not fit in memory"):
        solve_boundary_function(params, 10)
    assert solve_boundary_function(params, 7).n_steps == 7 * 493


@pytest.mark.parametrize("n", [0, -1, 1.5, math.nan, math.inf])
def test_projection_rejects_a_cycle_count_not_a_positive_integer(n):
    grid = solve_boundary_function(P_SMALL, 1, dt=0.1)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        survival_probability(grid, n)


def test_projection_rejects_cycles_past_the_grid():
    grid = solve_boundary_function(P_SMALL, 2, dt=0.1)
    assert survival_probability(grid, 2.0)[1] == survival_probability(grid, 2)[1]
    with pytest.raises(ValueError, match="outside the solved grid"):
        survival_probability(grid, 3)


def test_solve_takes_one_step_for_a_step_longer_than_the_run():
    # 2*pi/dt underflows the 1e-12 rounding guard: the one-step grid, not n = 0
    grid = solve_boundary_function(from_dimensionless(0.7, 1.0), 1, dt=1e300)
    assert grid.n_steps == 1
    assert grid.dt == 2.0 * math.pi
    # over whole cycles a step longer than a cycle gives one step per cycle
    grid = solve_boundary_function(from_dimensionless(0.7, 1.0), 3, dt=1e300)
    assert grid.n_steps == 3


@pytest.mark.parametrize("cycles", [1, 2, 5])
def test_solve_takes_whole_steps_per_cycle(cycles):
    # m = ceil(2*pi/dt) steps per cycle, so the step stays at or below dt;
    # z = 8's default step gives 7882 = 2*3941 over two cycles (the grid
    # depends on the step alone: z = 1 is cheap)
    dt = default_time_step(from_dimensionless(0.7, 8.0))
    params = from_dimensionless(0.7, 1.0)
    m = math.ceil(2.0 * math.pi / dt)
    assert m == 3941
    grid = solve_boundary_function(params, cycles, dt=dt)
    assert grid.n_steps == cycles * m
    assert grid.dt <= dt
    assert grid.t[m] == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_solve_takes_an_even_number_of_steps_per_cycle_for_its_companion():
    # 2*pi/0.5 = 12.57: 13 steps per cycle, 14 with tolerance=; the
    # companion then marches 7 per cycle
    params = from_dimensionless(0.7, 1.0)
    for cycles in (1, 3):
        assert solve_boundary_function(params, cycles, dt=0.5).n_steps == 13 * cycles
        grid = solve_boundary_function(params, cycles, dt=0.5, tolerance=1.0)
        assert grid.n_steps == 14 * cycles
    # and at least 4 steps in all
    assert solve_boundary_function(params, 1, dt=1e300, tolerance=10.0).n_steps == 4
    assert solve_boundary_function(params, 2, dt=1e300, tolerance=10.0).n_steps == 4


def test_default_step_where_gamma_squared_underflows():
    # no bound-phase scale is left to resolve: the field period sets the step
    assert default_time_step(from_dimensionless(1e-300, 1.0)) == 2.0 * math.pi / 40.0
    params = from_dimensionless(0.7, 8.0)
    assert default_time_step(params) == min(2.0 * math.pi,
                                            params.h / 0.7**2) / 40.0


def test_no_default_step_where_gamma_squared_overflows():
    # the step was 0 there, which the solve rejected as dt=0.0
    with pytest.raises(ValueError, match=r"gamma=1e\+200 is too large"):
        solve_boundary_function(from_dimensionless(1e200, 1.0), 1)


def test_convergence_check_raises_on_coarse_dt():
    params = from_dimensionless(0.7, 10.0)
    with pytest.raises(ConvergenceError) as err:
        solve_boundary_function(params, 1,
                                dt=default_time_step(params, factor=2.0),
                                tolerance=1e-8)
    assert err.value.diagnostics["deviation"] > 1e-8


def test_convergence_check_passes_at_default_dt():
    # the max-norm deviation from the half-resolution companion is dominated
    # by the sqrt boundary layer at t ~ 0; measured ~2e-3 at the default step
    grid = solve_boundary_function(P_SMALL, 1, tolerance=5e-3)
    assert grid.n_steps > 100


def test_rate_between_cycles_cancels_transient():
    params = from_dimensionless(0.7, 8.0)
    full = rate_from_oracle(params, 1)
    incremental = rate_between_cycles(params, 1, 2)
    # the one-time switch-on loss inflates the single-interval rate
    assert incremental < full


def test_rate_between_cycles_from_zero_is_the_single_interval_rate():
    params = P_SMALL
    rate = rate_between_cycles(params, 0, 1)
    assert rate == rate_from_oracle(params, 1)
    _, w = survival_probability(solve_boundary_function(params, 1), 1)
    assert rate == pytest.approx(-math.log(w), rel=1e-12)


def test_rate_between_cycles_rejects_cycles_before_solving(monkeypatch):
    import drivendelta.oracle as oracle_mod

    def solve(*args, **kwargs):
        raise AssertionError("solved for an invalid cycle pair")

    monkeypatch.setattr(oracle_mod, "solve_boundary_function", solve)
    for n_first, n_last in ((2, 2), (-1, 1), (0, 0), (1, 2.5)):
        with pytest.raises(ValueError):
            rate_between_cycles(P_SMALL, n_first, n_last)
