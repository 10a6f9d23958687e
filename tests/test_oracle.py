import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from drivendelta.errors import ConvergenceError
from drivendelta.model import from_dimensionless, ground_state
from drivendelta.oracle import (
    _BLOCK,
    _Cis,
    _drive,
    _free_evolution_overlap,
    _inhomogeneity,
    _two_sided_overlap,
    _march,
    default_time_step,
    erfc_complex,
    erfcx_complex,
    load_checkpoint,
    rate_between_cycles,
    rate_from_oracle,
    save_checkpoint,
    solve_boundary_function,
    survival_probability,
)
from drivendelta.semiclassical import volkov_propagator

P_SMALL = from_dimensionless(0.7, 5.0)   # h = 0.05, cheap solves
P_OFF = from_dimensionless(0.7, 1.25)    # h = 0.2, field-off checks


# ----------------------------------------------------------------------
# complex error function
# ----------------------------------------------------------------------

def _lattice():
    re = np.array([-6.0, -2.5, -0.7, 0.0, 0.4, 1.3, 3.0, 8.0])
    im = np.array([-5.0, -1.1, 0.0, 0.6, 2.2, 7.0])
    pts = [complex(a, b) for a in re for b in im]
    return np.array(pts[:50])


def test_erfc_reflection_symmetry():
    z = _lattice()
    lhs = erfc_complex(-z)
    rhs = 2.0 - erfc_complex(z)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs)))


def test_erfc_conjugation_symmetry():
    z = _lattice()
    lhs = erfc_complex(np.conj(z))
    rhs = np.conj(erfc_complex(z))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs)))


def test_erfcx_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in _lattice():
        ours = erfcx_complex(z)
        exact = complex(mpmath.exp(z**2) * mpmath.erfc(z))
        assert abs(ours - exact) <= 1e-13 * max(1.0, abs(exact))


def test_erfcx_real_axis_matches_scipy():
    from scipy.special import erfcx
    x = np.linspace(-3.0, 30.0, 41)
    ours = erfcx_complex(x.astype(complex))
    assert np.allclose(ours.real, erfcx(x), rtol=1e-13)
    assert np.allclose(ours.imag, 0.0, atol=1e-13)


# ----------------------------------------------------------------------
# boundary-function solve
# ----------------------------------------------------------------------

def test_initial_value_is_ground_state_origin():
    grid = solve_boundary_function(P_SMALL, 2.0 * math.pi)
    gs = ground_state(P_SMALL)
    assert grid.f[0] == pytest.approx(gs.norm_coeff, rel=1e-14)


def test_field_off_pure_bound_phase():
    params = P_OFF
    t_f = 4.0 * math.pi
    grid = solve_boundary_function(params, t_f, driven=False)
    exact = (math.sqrt(params.gamma / params.h)
             * np.exp(1j * params.gamma**2 * grid.t / (2.0 * params.h)))
    err = np.max(np.abs(grid.f - exact)) / math.sqrt(params.gamma / params.h)
    assert err < 5e-3
    p, w = survival_probability(grid)
    assert abs(w - 1.0) < 5e-5
    # the projection phase follows exp(i*gamma^2*t/(2h)) as well
    phase = np.exp(1j * params.gamma**2 * t_f / (2.0 * params.h))
    assert p == pytest.approx(phase, abs=5e-4)


def test_field_off_unitarity_tight_at_fine_dt():
    params = P_OFF
    grid = solve_boundary_function(params, 4.0 * math.pi,
                                   dt=default_time_step(params, factor=160.0),
                                   driven=False)
    _, w = survival_probability(grid)
    assert abs(w - 1.0) < 2e-6


def test_inhomogeneous_term_is_spread_ground_state():
    # g(t) must equal the direct overlap of the shared Volkov kernel with
    # the initial bound state: quadrature cross-check of the closed form
    params = P_SMALL
    gamma, h = params.gamma, params.h
    gs = ground_state(params)
    grid = solve_boundary_function(params, 2.0 * math.pi)

    for t in (0.4, 1.7):
        span = 60.0 * h / gamma

        def integrand(y, part):
            val = volkov_propagator(0.0, t, y, 0.0, params, delta_phi=0.0) \
                * gs.wavefunction(y)
            return val.real if part == "re" else val.imag

        re, _ = quad(integrand, -span, span, args=("re",), points=[0.0],
                     limit=400, epsabs=1e-12, epsrel=1e-12)
        im, _ = quad(integrand, -span, span, args=("im",), points=[0.0],
                     limit=400, epsabs=1e-12, epsrel=1e-12)
        closed = complex(_inhomogeneity(np.array([t]), gamma, h, True)[0])
        assert closed == pytest.approx(re + 1j * im, rel=1e-10)


def test_projection_overlap_closed_form():
    params = P_SMALL
    gamma, h = params.gamma, params.h
    gs = ground_state(params)
    from drivendelta.oracle import _bound_overlap

    t_f = 2.0 * math.pi
    for t_src in (0.8, 4.0):
        span = 60.0 * h / gamma

        def integrand(x, part):
            val = gs.wavefunction(x) * volkov_propagator(x, t_f, 0.0, t_src,
                                                         params, delta_phi=0.0)
            return val.real if part == "re" else val.imag

        re, _ = quad(integrand, -span, span, args=("re",), points=[0.0],
                     limit=400, epsabs=1e-12, epsrel=1e-12)
        im, _ = quad(integrand, -span, span, args=("im",), points=[0.0],
                     limit=400, epsabs=1e-12, epsrel=1e-12)
        closed = complex(_bound_overlap(t_f, np.array([t_src]), gamma, h, True)[0])
        assert closed == pytest.approx(re + 1j * im, rel=1e-10)


def _simpson_free_overlap(t_f, gamma, h, n_nodes):
    """<psi0| U(t_f, 0) |psi0> by composite Simpson on each half-line."""
    lam = gamma / h
    span = 40.0 / lam
    beta = 1.0 / (2.0 * h * t_f)
    pref = 1.0 / np.sqrt(2j * np.pi * h * t_f)
    sin_f, cos_f, phi_f = _drive(t_f)
    total = 0.0j
    for lo, hi in ((-span, 0.0), (0.0, span)):
        y = np.linspace(lo, hi, n_nodes)
        inner = (pref * math.sqrt(gamma / h) * np.exp((1j / h) * phi_f)
                 * _two_sided_overlap(beta, y - (cos_f - 1.0), sin_f / h, lam))
        vals = math.sqrt(gamma / h) * np.exp(-lam * np.abs(y)) * inner
        total += simpson(vals.real, x=y) + 1j * simpson(vals.imag, x=y)
    return total


@pytest.mark.parametrize("gamma, z, t_f", [
    (0.3, 0.1, 0.3),
    (0.7, 2.0, 2.0 * math.pi),
    (0.7, 8.0, 4.0 * math.pi),
    (1.5, 0.5, 17.0),
    (2.6, 20.0, 1.0),
])
def test_free_evolution_overlap_against_fine_simpson(gamma, z, t_f):
    # Gauss-Legendre panels against a 128001-node Simpson reference (own
    # error <= 2e-15 here); 4001 Simpson nodes miss by 3e-12 to 6e-8
    h = 1.0 / (4.0 * z)
    ref = _simpson_free_overlap(t_f, gamma, h, 128001)
    assert abs(_free_evolution_overlap(t_f, gamma, h, True) - ref) < 2e-14


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
    g[1:] = _inhomogeneity(t[1:], gamma, h, driven)

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


def _march_deviation(params, t_f, n, driven=True):
    dt = t_f / n
    t = dt * np.arange(n + 1)
    args = (t, dt, n, params.gamma, params.h, driven)
    dev = np.max(np.abs(_march(*args) - _reference_march(*args)))
    return dev / math.sqrt(params.gamma / params.h)


@pytest.mark.parametrize("z", [1.0, 4.0])
def test_march_matches_reference_driven(z):
    params = from_dimensionless(0.7, z)
    t_f = 2.0 * math.pi
    n = int(math.ceil(t_f / default_time_step(params)))
    assert n > 8 * _BLOCK
    assert _march_deviation(params, t_f, n) < 1e-12


def test_march_matches_reference_field_off():
    n = int(math.ceil(4.0 * math.pi / default_time_step(P_OFF)))
    assert _march_deviation(P_OFF, 4.0 * math.pi, n, driven=False) < 1e-12


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               9 * _BLOCK + 5])
def test_march_matches_reference_block_edges(n):
    # fewer rows than one block, and row counts that leave a partial block
    assert _march_deviation(P_SMALL, 0.5 * math.pi, n) < 1e-12


def test_march_matches_reference_half_resolution_companion():
    # tolerance= re-marches every second node with n // 2 steps
    params = P_SMALL
    t_f = 2.0 * math.pi
    grid = solve_boundary_function(params, t_f, tolerance=5e-3)
    n = grid.n_steps
    assert (n // 2) % _BLOCK != 0
    args = (grid.t, grid.dt, n, params.gamma, params.h, True)
    scale = math.sqrt(params.gamma / params.h)
    assert np.max(np.abs(grid.f - _reference_march(*args))) / scale < 1e-12
    assert _march_deviation(params, t_f, n // 2) < 1e-12


def test_cis_matches_complex_exp():
    rng = np.random.default_rng(3)
    step = 2.0 * math.pi / 4096
    for x in (rng.uniform(0.0, 1e3, 20000),
              step * np.arange(-9000, 9000),
              -rng.uniform(0.0, 1e3, 20000)):
        err = np.max(np.abs(_Cis(x.size)(x) - np.exp(1j * x)))
        assert err <= 4e-15
    one = _Cis(3)(np.zeros(3))
    assert np.all(one == 1.0)
    assert np.all(one.imag == 0.0)


def test_grid_refinement_differences_decrease():
    params = P_SMALL
    t_f = 2.0 * math.pi
    dt0 = default_time_step(params)
    ps = []
    for dt in (dt0, dt0 / 2.0, dt0 / 4.0):
        grid = solve_boundary_function(params, t_f, dt=dt)
        p, _ = survival_probability(grid)
        ps.append(p)
    d1 = abs(ps[0] - ps[1])
    d2 = abs(ps[1] - ps[2])
    assert d2 < d1
    # Richardson ratio consistent with a fixed convergence order (>= 1)
    order = math.log2(d1 / d2)
    assert 1.0 < order < 4.0


def test_driven_survival_strictly_below_one():
    params = from_dimensionless(0.7, 10.0)
    grid = solve_boundary_function(params, 2.0 * math.pi)
    _, w = survival_probability(grid)
    assert w < 1.0
    assert w > 0.9  # weak depletion in one cycle at z = 10


def test_norm_bound():
    # w <= 1 + 10 * tolerance for a converged driven run
    params = P_SMALL
    grid = solve_boundary_function(params, 2.0 * math.pi)
    _, w = survival_probability(grid)
    assert w <= 1.0 + 10.0 * 1e-5


def test_rate_from_oracle_behaviour():
    params = P_SMALL
    g_driven = rate_from_oracle(params, 1)
    assert g_driven > 0.0
    g_off = rate_from_oracle(P_OFF, 1, driven=False)
    assert abs(g_off) < 1e-4


def test_modulation_visible_between_nearby_z():
    g_a = rate_from_oracle(from_dimensionless(0.7, 14.0), 1)
    g_b = rate_from_oracle(from_dimensionless(0.7, 14.25), 1)
    assert abs(g_a - g_b) > 0.05 * max(abs(g_a), abs(g_b))


def test_convergence_check_raises_on_coarse_dt():
    params = from_dimensionless(0.7, 10.0)
    with pytest.raises(ConvergenceError) as err:
        solve_boundary_function(params, 2.0 * math.pi,
                                dt=default_time_step(params, factor=2.0),
                                tolerance=1e-8)
    assert err.value.diagnostics["deviation"] > 1e-8


def test_convergence_check_passes_at_default_dt():
    # the max-norm deviation from the half-resolution companion is dominated
    # by the sqrt boundary layer at t ~ 0; measured ~2e-3 at the default step
    grid = solve_boundary_function(P_SMALL, 2.0 * math.pi, tolerance=5e-3)
    assert grid.n_steps > 100


def test_rate_between_cycles_cancels_transient():
    params = from_dimensionless(0.7, 8.0)
    full = rate_from_oracle(params, 1)
    incremental = rate_between_cycles(params, 1, 2)
    # the one-time switch-on loss inflates the single-interval rate
    assert incremental < full


def test_checkpoint_roundtrip(tmp_path):
    params = P_SMALL
    grid = solve_boundary_function(params, 2.0 * math.pi)
    p, _ = survival_probability(grid)
    path = tmp_path / "solve.npz"
    save_checkpoint(path, grid, p)
    loaded, p_loaded = load_checkpoint(path)
    assert p_loaded == pytest.approx(p, rel=1e-15)
    assert loaded.dt == grid.dt
    assert loaded.n_steps == grid.n_steps
    assert loaded.driven == grid.driven
    np.testing.assert_allclose(loaded.f, grid.f, rtol=1e-15)
    np.testing.assert_allclose(loaded.t, grid.t, rtol=1e-15)
    assert loaded.params.gamma == pytest.approx(params.gamma, rel=1e-15)
    assert loaded.params.z == pytest.approx(params.z, rel=1e-15)


def test_checkpoint_without_projection(tmp_path):
    grid = solve_boundary_function(P_SMALL, math.pi)
    path = tmp_path / "partial.npz"
    save_checkpoint(path, grid)
    loaded, p_loaded = load_checkpoint(path)
    assert p_loaded is None
    assert loaded.n_steps == grid.n_steps
