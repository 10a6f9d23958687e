import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from drivendelta.errors import ConvergenceError
from drivendelta.model import from_dimensionless
from drivendelta.oracle import (
    _BLOCK,
    _FAR,
    _Cis,
    _drive,
    _free_evolution_overlap,
    _inhomogeneity,
    _two_sided_overlap,
    _march,
    _partition,
    _weights,
    default_time_step,
    erfcx_complex,
    rate_between_cycles,
    rate_from_oracle,
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
    # erfc(-z) = 2 - erfc(z), times exp(z^2)
    z = _lattice()
    lhs = erfcx_complex(-z)
    rhs = 2.0 * np.exp(z * z) - erfcx_complex(z)
    scale = np.maximum(np.abs(np.exp(z * z)), np.abs(rhs))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_erfc_conjugation_symmetry():
    z = _lattice()
    lhs = erfcx_complex(np.conj(z))
    rhs = np.conj(erfcx_complex(z))
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
    assert grid.f[0] == pytest.approx(math.sqrt(P_SMALL.gamma / P_SMALL.h),
                                      rel=1e-14)


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


def _psi0(params, x):
    """Bound state sqrt(gamma/h)*exp(-gamma*|x|/h) in transformed units."""
    lam = params.gamma / params.h
    return math.sqrt(lam) * np.exp(-lam * np.abs(x))


def test_inhomogeneous_term_is_spread_ground_state():
    # g(t) must equal the direct overlap of the shared Volkov kernel with
    # the initial bound state: quadrature cross-check of the closed form
    params = P_SMALL
    gamma, h = params.gamma, params.h
    grid = solve_boundary_function(params, 2.0 * math.pi)

    for t in (0.4, 1.7):
        span = 60.0 * h / gamma

        def integrand(y, part):
            val = volkov_propagator(0.0, t, y, 0.0, params) * _psi0(params, y)
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
    from drivendelta.oracle import _bound_overlap

    t_f = 2.0 * math.pi
    for t_src in (0.8, 4.0):
        span = 60.0 * h / gamma

        def integrand(x, part):
            val = _psi0(params, x) * volkov_propagator(x, t_f, 0.0, t_src, params)
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
    f, kernel_evals = _march(*args)
    # the dense march evaluates every pair, plus the upper halves of its
    # diagonal tiles; from n + 1 = 4 * _FAR nodes on, far blocks are
    # compressed and fewer entries than pairs are evaluated
    assert (kernel_evals < n * (n + 1) // 2) == (n + 1 >= 4 * _FAR)
    dev = np.max(np.abs(f - _reference_march(*args)))
    return dev / math.sqrt(params.gamma / params.h)


@pytest.mark.parametrize("z, cycles", [pytest.param(1.0, 1, id="1.0"),
                                       pytest.param(4.0, 1, id="4.0"),
                                       pytest.param(4.0, 2, id="4.0-2cycles")])
def test_march_matches_reference_driven(z, cycles):
    # z = 4 compresses far blocks (n = 1971 and 3941, two and three levels
    # of the hierarchy); measured deviations 4e-15, 9e-14 and 3e-13
    params = from_dimensionless(0.7, z)
    t_f = 2.0 * math.pi * cycles
    n = int(math.ceil(t_f / default_time_step(params)))
    assert n > 8 * _BLOCK
    assert _march_deviation(params, t_f, n) < 1e-12


def test_march_matches_reference_field_off():
    n = int(math.ceil(4.0 * math.pi / default_time_step(P_OFF)))
    assert _march_deviation(P_OFF, 4.0 * math.pi, n, driven=False) < 1e-12


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               9 * _BLOCK + 5, 4 * _FAR - 2, 4 * _FAR - 1])
def test_march_matches_reference_block_edges(n):
    # fewer rows than one block, row counts that leave a partial block, and
    # the last dense march and the first split one (n + 1 = 4 * _FAR nodes,
    # whose quarters are the smallest compressed blocks)
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


@pytest.mark.parametrize("nodes", [4 * _FAR - 1, 4 * _FAR, 3001, 5121])
def test_partition_covers_each_pair_once_in_causal_order(nodes):
    covered = np.zeros((nodes, nodes), dtype=np.int8)
    solved = 0
    for kind, *span in _partition(0, nodes):
        if kind == "leaf":
            lo, hi = span
            assert lo == solved
            covered[lo:hi, lo:hi] += np.tril(np.ones((hi - lo, hi - lo), np.int8), -1)
            solved = hi
            continue
        j0, j1, i0, i1 = span
        # columns solved, rows not yet
        assert i1 <= solved <= j0
        if kind == "far":
            assert min(j1 - j0, i1 - i0) >= _FAR
            assert j0 - i1 + 1 >= max(j1 - j0, i1 - i0)
        covered[j0:j1, i0:i1] += 1
    assert solved == nodes
    assert np.array_equal(covered, np.tril(np.ones((nodes, nodes), np.int8), -1))
    assert any(step[0] == "far" for step in _partition(0, nodes)) == (nodes >= 4 * _FAR)


def test_kernel_evals_counts_tiles_and_crosses(monkeypatch):
    import drivendelta.oracle as oracle_mod

    ranks = []
    aca = oracle_mod._cross_approximation

    def recording(row, col, m, k):
        uv = aca(row, col, m, k)
        ranks.append(len(uv[0]))
        return uv

    monkeypatch.setattr(oracle_mod, "_cross_approximation", recording)
    params = from_dimensionless(0.7, 4.0)
    grid = solve_boundary_function(params, 4.0 * math.pi)
    n = grid.n_steps
    expected = 0
    far = iter(ranks)
    for kind, *span in _partition(0, n + 1):
        if kind == "leaf":
            # each row block: its history in the leaf plus its square tile
            lo, hi = span
            for j0 in range(max(lo, 1), hi, _BLOCK):
                rows = min(j0 + _BLOCK, hi) - j0
                expected += rows * (j0 - lo) + rows * rows
        else:
            j0, j1, i0, i1 = span
            size = (j1 - j0, i1 - i0)
            expected += next(far) * sum(size) if kind == "far" else size[0] * size[1]
    assert ranks and next(far, None) is None
    assert grid.kernel_evals == expected < n * (n + 1) // 2


def test_weights_against_decimal_reference():
    # 50-digit differences of L^(3/2); the direct float differences lose
    # digits like eps*L^2 (4e-9 relative at L = 4000)
    n = 30000
    with localcontext() as ctx:
        ctx.prec = 50
        roots = [Decimal(lag).sqrt() for lag in range(n + 2)]
        power = [lag * root for lag, root in enumerate(roots)]
        mid = [Decimal(4) / 3 * (power[lag + 1] - 2 * power[lag] + power[lag - 1])
               for lag in range(1, n + 1)]
        first = [2 * roots[lag] - Decimal(4) / 3 * (power[lag] - power[lag - 1])
                 for lag in range(1, n + 1)]
    dt = 0.37
    w_mid, w_first, w_diag = _weights(n, dt)
    scale = math.sqrt(dt)
    assert w_mid[0] == w_first[0] == 0.0
    assert np.max(np.abs(w_mid[1:] / (scale * np.array(mid, dtype=float)) - 1.0)) <= 1e-14
    assert np.max(np.abs(w_first[1:] / (scale * np.array(first, dtype=float)) - 1.0)) <= 1e-14
    assert w_diag == pytest.approx(4.0 / 3.0 * scale, rel=1e-15)


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


def test_modulation_visible_between_nearby_z():
    g_a = rate_from_oracle(from_dimensionless(0.7, 14.0), 1)
    g_b = rate_from_oracle(from_dimensionless(0.7, 14.25), 1)
    assert abs(g_a - g_b) > 0.05 * max(abs(g_a), abs(g_b))


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_solve_rejects_a_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        solve_boundary_function(from_dimensionless(0.7, 1.0), 2.0 * math.pi,
                                dt=dt)


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


def test_rate_between_cycles_from_zero_is_the_single_interval_rate():
    params = P_SMALL
    rate = rate_between_cycles(params, 0, 1)
    assert rate == rate_from_oracle(params, 1)
    _, w = survival_probability(solve_boundary_function(params, 2.0 * math.pi))
    assert rate == pytest.approx(-math.log(w), rel=1e-12)


def test_rate_between_cycles_rejects_cycles_before_solving(monkeypatch):
    import drivendelta.oracle as oracle_mod

    def solve(*args, **kwargs):
        raise AssertionError("solved for an invalid cycle pair")

    monkeypatch.setattr(oracle_mod, "solve_boundary_function", solve)
    for n_first, n_last in ((2, 2), (-1, 1), (0, 0), (1, 2.5)):
        with pytest.raises(ValueError):
            rate_between_cycles(P_SMALL, n_first, n_last)
