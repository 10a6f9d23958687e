"""Exact reference solver: boundary-value Volterra equation for the driven atom.

In transformed units the wavefunction obeys

    i*h*psi_t = -(h^2/2)*psi_xx - h*gamma*delta(x)*psi - x*cos(t)*psi.

Duhamel's formula against the driven free (Volkov) propagator U reduces the
problem to the origin value f(t) = psi(0, t):

    f(t) = g(t) + i*gamma * integral_0^t U(0,t;0,s) f(s) ds,

a weakly singular Volterra equation of the second kind whose kernel carries
the (t-s)^(-1/2) spreading prefactor.  The inhomogeneity g and all
ground-state overlaps reduce to Gaussian integrals against the two-sided
exponential bound state and evaluate in closed form through the scaled
complementary error function of complex argument.

The time march uses product integration: on each panel the regular factor is
interpolated linearly and integrated exactly against (t-s)^(-1/2), which
keeps the scheme stable and of empirical order ~2 despite the singularity.

The kernel's classical action folds into two separable phases and one
coupled term,

    A(t, s) = phi(t) - phi(s) + (cos t - cos s)^2/(2(t - s)),
    phi(t) = (sin t cos t - t)/4,

so the march solves for F = exp(-i*phi/h)*f and each kernel pair costs one
real phase x = (cos t - cos s)^2/(2h(t - s)) and one exp(i*x).  A march of n
steps evaluates n(n+1)/2 pairs.  exp(i*x) comes from a 4096-entry table and
a short Taylor remainder, and the rows advance in blocks of 32 whose known
history is reduced in 32 x 256 tiles, so every temporary stays in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import wofz

from .errors import ConvergenceError, InfiniteRateError
from .model import ModelParams, from_physical

__all__ = [
    "VolterraGrid",
    "erfcx_complex",
    "erfc_complex",
    "default_time_step",
    "solve_boundary_function",
    "survival_probability",
    "rate_from_oracle",
    "rate_between_cycles",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# scaled complementary error function of complex argument
# ----------------------------------------------------------------------

def erfcx_complex(v):
    """erfcx(v) = exp(v^2)*erfc(v) for complex v, elementwise.

    Uses the Faddeeva function w(z) (erfcx(v) = w(i*v)), which is accurate
    to ~1e-13 in the right half-plane; the left half-plane is reached
    through the reflection erfcx(-v) = 2*exp(v^2) - erfcx(v).
    """
    v = np.asarray(v, dtype=complex)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    out = np.empty_like(v)
    pos = v.real >= 0.0
    out[pos] = wofz(1j * v[pos])
    neg = ~pos
    if np.any(neg):
        vn = v[neg]
        out[neg] = 2.0 * np.exp(vn * vn) - wofz(-1j * vn)
    return out[0] if scalar else out


def erfc_complex(z):
    """Complementary error function for complex argument, elementwise."""
    z = np.asarray(z, dtype=complex)
    return np.exp(-z * z) * erfcx_complex(z)


def _two_sided_overlap(beta, center, b_lin, lam):
    """integral exp(i*beta*(y-center)^2 + i*b_lin*y - lam*|y|) dy.

    beta, lam > 0 real; the Fresnel-type Gaussian against the two-sided
    exponential splits at y = 0 into two half-line integrals, each a scaled
    complementary error function.
    """
    q_sqrt = np.sqrt(beta) * np.exp(-0.25j * np.pi)  # principal sqrt(-i*beta)
    u_plus = lam + 2j * beta * center - 1j * b_lin
    u_minus = lam - 2j * beta * center + 1j * b_lin
    e = erfcx_complex(u_plus / (2.0 * q_sqrt)) + erfcx_complex(u_minus / (2.0 * q_sqrt))
    return np.exp(1j * beta * center * center) * 0.5 * math.sqrt(math.pi) / q_sqrt * e


# ----------------------------------------------------------------------
# driven-kernel building blocks (shared conventions with the semiclassical
# propagator: length gauge, potential -x*cos t, principal sqrt at real times)
# ----------------------------------------------------------------------

def _drive(t, driven=True):
    """sin t, cos t and the Volkov phase phi(t) = (sin t cos t - t)/4.

    The classical action between (0, s) and (0, t) under the drive is
    phi(t) - phi(s) + (cos t - cos s)^2/(2(t - s)).  With the field off all
    three vanish, and the same formulas give the free propagator.
    """
    t = np.asarray(t, dtype=float)
    if not driven:
        zero = np.zeros_like(t)
        return zero, zero, zero
    sin_t, cos_t = np.sin(t), np.cos(t)
    return sin_t, cos_t, 0.25 * (sin_t * cos_t - t)


def _inhomogeneity(t, gamma, h, driven):
    """(U(t,0) psi0)(x=0): the freely spread bound state at the origin."""
    t = np.asarray(t, dtype=float)
    beta = 1.0 / (2.0 * h * t)
    lam = gamma / h
    _, cos_t, phi = _drive(t, driven)
    _, cos_0, _ = _drive(0.0, driven)
    pref = 1.0 / np.sqrt(2j * np.pi * h * t)
    return (pref * math.sqrt(gamma / h) * np.exp((1j / h) * phi)
            * _two_sided_overlap(beta, cos_t - cos_0, 0.0, lam))


def _bound_overlap(t_f, t_src, gamma, h, driven):
    """integral psi0(x) U(x,t_f;0,t_src) dx for source times t_src < t_f."""
    t_src = np.asarray(t_src, dtype=float)
    big_t = t_f - t_src
    beta = 1.0 / (2.0 * h * big_t)
    lam = gamma / h
    sin_f, cos_f, phi_f = _drive(t_f, driven)
    _, cos_s, phi_s = _drive(t_src, driven)
    pref = 1.0 / np.sqrt(2j * np.pi * h * big_t)
    return (pref * math.sqrt(gamma / h) * np.exp((1j / h) * (phi_f - phi_s))
            * _two_sided_overlap(beta, cos_s - cos_f, sin_f / h, lam))


# 16-point Gauss-Legendre rule on [-1, 1], shared by every quadrature panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _free_evolution_overlap(t_f, gamma, h, driven):
    """<psi0| U(t_f, 0) |psi0> by quadrature over the source position.

    Each half-line is cut into equal Gauss-Legendre panels, at least one per
    half oscillation of the chirp exp(i*beta*(y - shift)^2) that the inner
    overlap carries (beta = 1/(2*h*t_f)), and never fewer than 16.
    """
    lam = gamma / h
    span = 40.0 / lam
    beta = 1.0 / (2.0 * h * t_f)
    pref = 1.0 / np.sqrt(2j * np.pi * h * t_f)
    sin_f, cos_f, phi_f = _drive(t_f, driven)
    _, cos_0, _ = _drive(0.0, driven)
    shift = cos_f - cos_0
    panels = max(16, math.ceil(beta * (span + abs(shift)) ** 2 / math.pi))
    half_width = 0.5 * span / panels

    total = 0.0 + 0.0j
    for lo in (-span, 0.0):
        mid = lo + half_width * (2.0 * np.arange(panels) + 1.0)
        y = mid[:, None] + half_width * _GL_NODES
        inner = (pref * math.sqrt(gamma / h) * np.exp((1j / h) * phi_f)
                 * _two_sided_overlap(beta, y - shift, sin_f / h, lam))
        vals = math.sqrt(gamma / h) * np.exp(-lam * np.abs(y)) * inner
        total += half_width * np.sum(vals * _GL_WEIGHTS)
    return total


# ----------------------------------------------------------------------
# the Volterra march
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VolterraGrid:
    """Solved boundary function psi(0, t_j) on a uniform grid."""

    params: ModelParams
    dt: float
    n_steps: int
    t: np.ndarray
    f: np.ndarray
    driven: bool = True


def default_time_step(params: ModelParams, factor=40.0):
    """Step resolving both the field period and the bound-state phase.

    The bound phase rotates at gamma^2/(2h), the fastest scale at large z;
    the rule dt = min(2*pi, h/gamma^2)/factor over-resolves both scales.
    """
    return min(2.0 * math.pi, params.h / params.gamma**2) / factor


def solve_boundary_function(params: ModelParams, t_f, dt=None, driven=True,
                            tolerance=None) -> VolterraGrid:
    """March the weakly singular Volterra equation for f(t) = psi(0, t).

    Parameters
    ----------
    params : ModelParams
    t_f : float
        Final time; whole cycles (2*pi*n) recommended.
    dt : float, optional
        Maximum step; defaults to :func:`default_time_step`.  The actual
        step divides t_f exactly.
    driven : bool
        With False the drive term is removed from the kernel (the mu -> 0
        limit at fixed gamma, h); the solution is then the stationary bound
        state, which makes a stringent unitarity check.
    tolerance : float, optional
        When set, re-solves on a doubled step and raises ConvergenceError
        if the two boundary functions differ by more than ``tolerance``
        relative to the bound-state amplitude.
    """
    if dt is None:
        dt = default_time_step(params)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got dt={dt!r}")
    gamma, h = params.gamma, params.h
    n = int(math.ceil(t_f / dt - 1e-12))
    if tolerance is not None:
        n = max(4, n + n % 2)  # the half-resolution companion needs n even
    dt = t_f / n
    t = dt * np.arange(n + 1)

    f = _march(t, dt, n, gamma, h, driven)
    grid = VolterraGrid(params=params, dt=dt, n_steps=n, t=t, f=f, driven=driven)

    if tolerance is not None:
        coarse = _march(t[::2], 2.0 * dt, n // 2, gamma, h, driven)
        scale = math.sqrt(gamma / h)
        err = float(np.max(np.abs(coarse - f[::2])) / scale)
        if err > tolerance:
            raise ConvergenceError(
                "boundary-function self-consistency check failed "
                f"(relative deviation {err:.3e} > tolerance {tolerance:.3e}); "
                "decrease dt",
                diagnostics={"dt": dt, "deviation": err, "tolerance": tolerance})
    return grid


# exp(i*x) = exp(i*q*step) * exp(i*r) with step = 2*pi/4096, q = round(x/step)
# and |r| <= step/2: the first factor is a table entry at q & 4095, the second
# a Taylor polynomial through r^4 (truncation error below 1e-21).  step is
# split Cody-Waite style: _CIS_STEP_HI has 33 significant bits, so q*step_hi
# is exact and r keeps full precision for |x| < 2^20*step ~ 1600.
_CIS_MASK = 4095
_CIS_STEP = 2.0 * math.pi / (_CIS_MASK + 1)
_CIS_STEP_HI = round(_CIS_STEP * 2.0**42) / 2.0**42
# 2*pi/4096 - step_hi, including the part of pi that math.pi rounds off
_CIS_STEP_LO = ((math.pi - 2048.0 * _CIS_STEP_HI) + 1.2246467991473532e-16) / 2048.0
_CIS_TABLE = (np.exp(1j * _CIS_STEP_HI * np.arange(_CIS_MASK + 1))
              * np.exp(1j * _CIS_STEP_LO * np.arange(_CIS_MASK + 1)))


class _Cis:
    """weight * exp(i*x) for arrays of up to ``size`` elements.

    Table-driven (see _CIS_STEP): about 3e-16 absolute error for
    |x| < 1600, and cis(0) == 1 exactly.  The work buffers are allocated
    once; fresh temporaries of tile size cost more than the arithmetic.
    """

    def __init__(self, size):
        self._q, self._r, self._r2, self._tmp = np.empty((4, size))
        self._idx = np.empty(size, dtype=np.int64)
        self._poly = np.empty(size, dtype=complex)

    def __call__(self, x, weight=1.0, out=None):
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty(x.shape, dtype=complex)
        q, r, r2, tmp, idx, poly = (buf[:x.size].reshape(x.shape) for buf in (
            self._q, self._r, self._r2, self._tmp, self._idx, self._poly))
        np.multiply(x, 1.0 / _CIS_STEP, out=q)
        np.rint(q, out=q)
        np.multiply(q, _CIS_STEP_HI, out=r)
        np.subtract(x, r, out=r)
        np.multiply(q, _CIS_STEP_LO, out=tmp)
        np.subtract(r, tmp, out=r)
        np.copyto(idx, q, casting="unsafe")
        np.bitwise_and(idx, _CIS_MASK, out=idx)
        np.multiply(r, r, out=r2)
        # cos r = 1 - r2*(1/2 - r2/24), sin r = r*(1 - r2/6)
        np.multiply(r2, 1.0 / 24.0, out=tmp)
        np.subtract(0.5, tmp, out=tmp)
        np.multiply(tmp, r2, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(tmp, weight, out=poly.real)
        np.multiply(r2, 1.0 / 6.0, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(tmp, r, out=tmp)
        np.multiply(tmp, weight, out=poly.imag)
        np.take(_CIS_TABLE, idx, out=out)
        np.multiply(out, poly, out=out)
        return out


# the march advances _BLOCK rows at a time; their known history is reduced
# in tiles of _BLOCK x _TILE kernel pairs (128 KiB of complex per buffer)
_BLOCK = 32
_TILE = 256


def _lag_windows(table):
    """Zero-copy windows over ``table`` (lags 0..n) for :func:`_lagged`.

    The table is padded with _TILE zeros below lag 0 and reversed, so
    windows[p, b] = table[n - p - b] and negative lags weigh nothing.
    """
    rev = np.concatenate((np.zeros(_TILE), table))[::-1].copy()
    return sliding_window_view(rev, _TILE)


def _lagged(windows, lag0, rows, cols):
    """Toeplitz view M[a, b] = table[lag0 + a - b], a < rows, b < cols."""
    top = windows.shape[0] - 2 - lag0
    return windows[top - rows + 1:top + 1][::-1, :cols]


def _march(t, dt, n, gamma, h, driven):
    """Boundary function f_j, j = 0..n, by product integration.

    With F = exp(-i*phi/h)*f (phi from _drive) the kernel's action leaves
    one real phase per pair, x = (cos t_j - cos t_i)^2/(2h(t_j - t_i)):

        F_j*(1 - c*w_diag) = G_j + c * sum_{i<j} W_ji * exp(i*x_ji) * F_i,

    with G = exp(-i*phi/h)*g and c = i*gamma/sqrt(2*pi*i*h).  Rows advance
    in blocks: the part of the sum over the known history i < j0 is reduced
    tile by tile, the triangle inside the block row by row.
    """
    _, cos_t, phi = _drive(t, driven)
    rot = np.exp((1j / h) * phi)  # f = rot * F

    # exact moments of (t_j - s)^(-1/2) against piecewise-linear interpolation,
    # tabulated by lag L = j - i
    lag = dt * np.arange(n + 2, dtype=float)
    root = np.sqrt(lag)
    m0 = np.zeros(n + 2)
    m1 = np.zeros(n + 2)
    m0[1:] = 2.0 * (root[1:] - root[:-1])
    m1[1:] = 2.0 * lag[1:] * (root[1:] - root[:-1]) - (2.0 / 3.0) * (lag[1:] ** 1.5 - lag[:-1] ** 1.5)
    w_mid = np.zeros(n + 1)
    w_mid[1:] = m1[2:] / dt + m0[1:-1] - m1[1:-1] / dt
    w_diag = m1[1] / dt
    # node i = 0 carries only the leading half-panel weight
    w_first = m0[:n + 1] - m1[:n + 1] / dt
    inv = np.zeros(n + 1)
    inv[1:] = 1.0 / (2.0 * h * lag[1:n + 1])
    w_lags, inv_lags = _lag_windows(w_mid), _lag_windows(inv)

    coupling = 1j * gamma / np.sqrt(2j * np.pi * h)
    denom = 1.0 - coupling * w_diag

    big_g = np.empty(n + 1, dtype=complex)
    big_g[0] = math.sqrt(gamma / h)
    big_g[1:] = _inhomogeneity(t[1:], gamma, h, driven) * np.conj(rot[1:])

    cis = _Cis(_BLOCK * _TILE)
    x_buf = np.empty(_BLOCK * _TILE)
    k_buf = np.empty(_BLOCK * _TILE, dtype=complex)

    def kernel(j0, j1, i0, i1):
        # W_ji * exp(i*x_ji) for rows j0..j1-1 against columns i0..i1-1
        shape = (j1 - j0, i1 - i0)
        size = shape[0] * shape[1]
        x = x_buf[:size].reshape(shape)
        np.subtract(cos_t[j0:j1, None], cos_t[i0:i1], out=x)
        np.multiply(x, x, out=x)
        np.multiply(x, _lagged(inv_lags, j0 - i0, *shape), out=x)
        weight = _lagged(w_lags, j0 - i0, *shape)
        if i0 == 0:
            weight = weight.copy()
            weight[:, 0] = w_first[j0:j1]
        return cis(x, weight, out=k_buf[:size].reshape(shape))

    big_f = np.empty(n + 1, dtype=complex)
    big_f[0] = big_g[0]
    for j0 in range(1, n + 1, _BLOCK):
        j1 = min(j0 + _BLOCK, n + 1)
        acc = np.zeros(j1 - j0, dtype=complex)
        for i0 in range(0, j0, _TILE):
            i1 = min(i0 + _TILE, j0)
            acc += np.einsum("ij,j->i", kernel(j0, j1, i0, i1), big_f[i0:i1])
        k = kernel(j0, j1, j0, j1)
        for a, j in enumerate(range(j0, j1)):
            total = acc[a] + np.dot(k[a, :a], big_f[j0:j])
            big_f[j] = (big_g[j] + coupling * total) / denom
    return rot * big_f


# ----------------------------------------------------------------------
# ground-state projection
# ----------------------------------------------------------------------

def survival_probability(grid: VolterraGrid, t_f=None, osc_nodes_per_cycle=80):
    """Survival amplitude p = <psi0|psi(t_f)> and probability w = |p|^2.

    Duhamel again: the free-evolution overlap plus the time integral of the
    (closed-form) bound-state overlap of the kernel against the boundary
    function.  The integrand has square-root behavior at both endpoints, so
    each half of the interval is integrated in the variable sqrt(distance
    to the endpoint), where it is smooth.

    ``t_f`` may pick an earlier grid time (defaults to the end of the grid).
    """
    params = grid.params
    gamma, h = params.gamma, params.h
    if t_f is None:
        t_f = float(grid.t[-1])
    if not 0.0 < t_f <= grid.t[-1] + 1e-12:
        raise ValueError(f"t_f={t_f!r} outside the solved grid")

    spline = CubicSpline(grid.t, grid.f)
    phase_rate = gamma**2 / (2.0 * h)
    n_osc = max(phase_rate * t_f, t_f) / (2.0 * math.pi)
    m = int(max(4001, 2 * int(osc_nodes_per_cycle * n_osc) + 1))
    half = 0.5 * t_f

    total = 0.0 + 0.0j
    for left_half in (True, False):
        u = np.linspace(0.0, math.sqrt(half), m)
        t_src = u * u if left_half else t_f - u * u
        vals = np.zeros(m, dtype=complex)
        vals[1:] = (_bound_overlap(t_f, t_src[1:], gamma, h, grid.driven)
                    * spline(t_src[1:]) * 2.0 * u[1:])
        total += simpson(vals.real, x=u) + 1j * simpson(vals.imag, x=u)

    p = (_free_evolution_overlap(t_f, gamma, h, grid.driven)
         + 1j * gamma * total)
    return p, float(abs(p) ** 2)


def rate_from_oracle(params: ModelParams, n, dt=None, driven=True,
                     tolerance=None):
    """Gamma = -(2*pi/t_f)*ln|p|^2 from a fresh solve over n whole cycles."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got n={n!r}")
    t_f = 2.0 * math.pi * int(n)
    grid = solve_boundary_function(params, t_f, dt=dt, driven=driven,
                                   tolerance=tolerance)
    _, w = survival_probability(grid)
    if w == 0.0:
        raise InfiniteRateError("survival amplitude vanished; rate diverges")
    return -(2.0 * math.pi / t_f) * math.log(w)


def rate_between_cycles(params: ModelParams, n_first=1, n_last=2, dt=None,
                        driven=True):
    """Per-cycle rate from the decay between two whole-cycle checkpoints.

    -ln(w(n_last)/w(n_first)) / (n_last - n_first) cancels the one-time
    switch-on loss (the bare ground state is not the field-dressed state at
    the projection instants), so it approaches the asymptotic decay rate
    much faster than the single-interval definition; used for cross-method
    comparisons.
    """
    if not 1 <= n_first < n_last:
        raise ValueError("need 1 <= n_first < n_last")
    grid = solve_boundary_function(params, 2.0 * math.pi * n_last, dt=dt,
                                   driven=driven)
    _, w_first = survival_probability(grid, t_f=2.0 * math.pi * n_first)
    _, w_last = survival_probability(grid)
    if w_first == 0.0 or w_last == 0.0:
        raise InfiniteRateError("survival amplitude vanished; rate diverges")
    return -math.log(w_last / w_first) / (n_last - n_first)


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def save_checkpoint(path, grid: VolterraGrid, p=None):
    """Dump (params, dt, boundary function, projection) as an .npz archive.

    Schema (documented in the README): scalar arrays ``schema_version``,
    ``alpha``, ``mu``, ``omega``, ``dt``, ``n_steps``, ``driven``; complex
    array ``f``; optional complex scalar ``p``.
    """
    payload = dict(
        schema_version=np.int64(CHECKPOINT_SCHEMA_VERSION),
        alpha=grid.params.alpha,
        mu=grid.params.mu,
        omega=grid.params.omega,
        dt=grid.dt,
        n_steps=np.int64(grid.n_steps),
        driven=np.bool_(grid.driven),
        f=grid.f,
    )
    if p is not None:
        payload["p"] = np.complex128(p)
    np.savez(path, **payload)


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns (grid, p or None)."""
    with np.load(path) as data:
        version = int(data["schema_version"])
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"unsupported checkpoint schema {version}")
        params = from_physical(float(data["alpha"]), float(data["mu"]),
                               float(data["omega"]))
        dt = float(data["dt"])
        n = int(data["n_steps"])
        grid = VolterraGrid(params=params, dt=dt, n_steps=n,
                            t=dt * np.arange(n + 1), f=data["f"].copy(),
                            driven=bool(data["driven"]))
        p = complex(data["p"]) if "p" in data else None
    return grid, p
