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
The weights are second differences of lag^(3/2); evaluated as differences
they lose digits like eps*lag^2 (4e-9 relative at lag 4000), so beyond the
first few lags they are summed as binomial series in 1/lag and keep every
digit.

The kernel's classical action folds into two separable phases and one
coupled term,

    A(t, s) = phi(t) - phi(s) + (cos t - cos s)^2/(2(t - s)),
    phi(t) = (sin t cos t - t)/4,

so the march solves for F = exp(-i*phi/h)*f and each kernel entry costs one
real phase x = (cos t - cos s)^2/(2h(t - s)) and one exp(i*x), taken from a
4096-entry table and a short Taylor remainder.

The history sum is a lower-triangular matrix of n(n+1)/2 pairs.  The march
solves the rows in halves, recursively, and adds the solved left half's
pull on the right half before solving that.  Near the diagonal the kernel
is summed densely: rows in blocks of 32, their history in 32 x 256 tiles
that stay in cache.  A block of at least 320 rows and columns whose
distance from the diagonal is at least its size is numerically of low rank
(9 to 31 at 1e-13 for z = 8 to 12), and adaptive cross approximation
builds it from that many rows and columns.  Marches of fewer than 1279
steps are all dense.  At z = 8 over two cycles (7,882 steps) the march
evaluates 6.6 million kernel entries instead of 31 million pairs, and F
stays within 3e-13*sqrt(gamma/h) of the dense march on the same weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import wofz

from .errors import ConvergenceError
from .model import ModelParams, decay_rate, volkov_phase

__all__ = [
    "VolterraGrid",
    "erfcx_complex",
    "default_time_step",
    "solve_boundary_function",
    "survival_probability",
    "rate_from_oracle",
    "rate_between_cycles",
]


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
    """sin t, cos t and the Volkov phase phi(t) (model.volkov_phase).

    The classical action between (0, s) and (0, t) under the drive is
    phi(t) - phi(s) + (cos t - cos s)^2/(2(t - s)).  With the field off all
    three vanish, and the same formulas give the free propagator.
    """
    t = np.asarray(t, dtype=float)
    if not driven:
        zero = np.zeros_like(t)
        return zero, zero, zero
    return np.sin(t), np.cos(t), volkov_phase(t)


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
    """Solved boundary function psi(0, t_j) on a uniform grid.

    ``kernel_evals`` counts the kernel entries the solve evaluated, dense
    tiles and compressed blocks' crosses together (the ``tolerance=``
    companion included); the dense march has n(n+1)/2 pairs.
    """

    params: ModelParams
    dt: float
    n_steps: int
    t: np.ndarray
    f: np.ndarray
    driven: bool = True
    kernel_evals: int = 0


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
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got dt={dt!r}")
    gamma, h = params.gamma, params.h
    n = int(math.ceil(t_f / dt - 1e-12))
    if tolerance is not None:
        n = max(4, n + n % 2)  # the half-resolution companion needs n even
    dt = t_f / n
    t = dt * np.arange(n + 1)

    f, evals = _march(t, dt, n, gamma, h, driven)

    if tolerance is not None:
        coarse, coarse_evals = _march(t[::2], 2.0 * dt, n // 2, gamma, h, driven)
        evals += coarse_evals
        scale = math.sqrt(gamma / h)
        err = float(np.max(np.abs(coarse - f[::2])) / scale)
        if err > tolerance:
            raise ConvergenceError(
                "boundary-function self-consistency check failed "
                f"(relative deviation {err:.3e} > tolerance {tolerance:.3e}); "
                "decrease dt",
                diagnostics={"dt": dt, "deviation": err, "tolerance": tolerance})
    return VolterraGrid(params=params, dt=dt, n_steps=n, t=t, f=f,
                        driven=driven, kernel_evals=evals)


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
# the history is split into a hierarchy of blocks (see _partition): the
# leaves, and blocks closer to the diagonal than their own size, stay dense;
# a block of at least _FAR rows and columns whose gap is at least its size
# is compressed by adaptive cross approximation, stopped once the last cross
# is below _ACA_TOL of the approximation (Frobenius norms).  At z = 2.5 to
# 12 a far block of 256 cost about as much compressed as dense, one of 320
# half as much, so marches of fewer than 4*_FAR - 1 steps stay dense.
_FAR = 320
_ACA_TOL = 1e-13

# (1 + u)^(3/2) = sum_m binom[m] u^m for |u| < 1, through u^22.  From lag
# _SERIES_FROM on, w_mid and w_first are (4/3)*L^(3/2) times these series in
# u = 1/L, which converge to 1e-16 there:
#   (L+1)^(3/2) - 2 L^(3/2) + (L-1)^(3/2) = L^(3/2) sum_m 2*binom[2m] u^(2m),
#   L^(3/2) - (L-1)^(3/2) = L^(3/2) (3u/2 - sum_{m>=2} binom[m] (-u)^m)
_SERIES_FROM = 4
_BINOM = np.cumprod([1.0] + [(2.5 - m) / m for m in range(1, 23)])
_MID_SERIES = np.where(np.arange(21) % 2 == 0, 2.0 * _BINOM[:21], 0.0)
_MID_SERIES[0] = 0.0
_FIRST_SERIES = _BINOM * (-1.0) ** np.arange(_BINOM.size)
_FIRST_SERIES[:2] = 0.0


def _weights(n, dt):
    """Product-integration weights against (t_j - s)^(-1/2), lags 0..n.

    With piecewise-linear interpolation between nodes, node i of row j
    (lag L = j - i, in units of dt) carries

        w_mid[L]   = (4/3)*sqrt(dt) * ((L+1)^(3/2) - 2 L^(3/2) + (L-1)^(3/2)),
        w_first[L] = sqrt(dt) * (2 L^(1/2) - (4/3)(L^(3/2) - (L-1)^(3/2)))

    (node 0, which has only the panel after it), and the diagonal node
    w_diag = (4/3)*sqrt(dt).  Both differences lose digits like eps*L^2, so
    from lag _SERIES_FROM on they are summed as series in 1/L, which keep
    every digit.  w_mid[0] = w_first[0] = 0.
    """
    lags = np.arange(n + 1, dtype=float)
    p = np.arange(n + 2, dtype=float) ** 1.5
    w_mid = np.zeros(n + 1)
    w_mid[1:] = (4.0 / 3.0) * (p[2:] - 2.0 * p[1:-1] + p[:-2])
    w_first = np.zeros(n + 1)
    w_first[1:] = 2.0 * np.sqrt(lags[1:]) - (4.0 / 3.0) * (p[1:-1] - p[:-2])
    big = lags[_SERIES_FROM:]
    scale = (4.0 / 3.0) * big ** 1.5
    w_mid[_SERIES_FROM:] = scale * np.polynomial.polynomial.polyval(1.0 / big, _MID_SERIES)
    w_first[_SERIES_FROM:] = scale * np.polynomial.polynomial.polyval(1.0 / big, _FIRST_SERIES)
    root = math.sqrt(dt)
    return root * w_mid, root * w_first, (4.0 / 3.0) * root


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


def _cross_approximation(row, col, m, k):
    """Partially pivoted adaptive cross approximation of an m x k block.

    ``row(a)`` and ``col(b)`` return one row and one column of the block.
    Returns (U, V) with block ~ U.T @ V, or None once the rank grows past
    the point where the crosses cost as much as the dense block.  The
    stopping rule is Bebendorf's: |u_r|*|v_r| <= _ACA_TOL * |U.T @ V|_F.
    """
    limit = m * k // (4 * (m + k))
    # room for 32 crosses (the ranks seen are 9 to 31), doubled when full
    big_u = np.empty((min(limit, 32), m), dtype=complex)
    big_v = np.empty((min(limit, 32), k), dtype=complex)
    unused = np.ones(m, dtype=bool)
    norm2 = 0.0
    a = 0
    for r in range(limit):
        if r == len(big_u):
            big_u = np.concatenate((big_u, np.empty_like(big_u)))
            big_v = np.concatenate((big_v, np.empty_like(big_v)))
        unused[a] = False
        v = row(a)
        v -= np.einsum("l,lk->k", big_u[:r, a], big_v[:r])
        b = int(np.argmax(np.abs(v)))
        if v[b] == 0.0:
            return None
        v /= v[b]
        u = col(b)
        u -= np.einsum("l,lm->m", big_v[:r, b], big_u[:r])
        big_u[r], big_v[r] = u, v
        cross = (np.vdot(u, u) * np.vdot(v, v)).real
        overlap = (np.einsum("lm,m->l", big_u[:r], u.conj())
                   * np.einsum("lk,k->l", big_v[:r], v.conj()))
        norm2 += cross + 2.0 * overlap.sum().real
        if cross <= _ACA_TOL**2 * norm2:
            return big_u[:r + 1], big_v[:r + 1]
        a = int(np.argmax(np.where(unused, np.abs(u), -1.0)))
    return None


def _partition(lo, hi):
    """The march over rows lo..hi-1 as a list of steps, in order.

    ("leaf", lo, hi) solves rows lo..hi-1, whose history before lo is
    already summed; ("dense" or "far", j0, j1, i0, i1) adds
    K[j0:j1, i0:i1] @ F[i0:i1] to the sums of rows j0..j1-1.  Rows are split
    in halves while their quarters can hold a far block.
    """
    if hi - lo < 4 * _FAR:
        return [("leaf", lo, hi)]
    mid = (lo + hi) // 2
    return _partition(lo, mid) + _blocks(mid, hi, lo, mid) + _partition(mid, hi)


def _blocks(j0, j1, i0, i1):
    """Split K[j0:j1, i0:i1] (columns before rows) into far and dense blocks.

    A block is far when it has at least _FAR rows and columns and its gap
    to the diagonal, j0 - (i1 - 1), is at least its size; a block that is
    not far is split in quarters until none of them could be.
    """
    m, k = j1 - j0, i1 - i0
    if min(m, k) >= _FAR and j0 - i1 + 1 >= max(m, k):
        return [("far", j0, j1, i0, i1)]
    if min(m, k) < 2 * _FAR:
        return [("dense", j0, j1, i0, i1)]
    jm, im = (j0 + j1) // 2, (i0 + i1) // 2
    return [step for rows in ((j0, jm), (jm, j1)) for cols in ((i0, im), (im, i1))
            for step in _blocks(*rows, *cols)]


def _march(t, dt, n, gamma, h, driven):
    """Boundary function f_j, j = 0..n, and the kernel entries evaluated.

    With F = exp(-i*phi/h)*f (phi from _drive) the kernel's action leaves
    one real phase per pair, x = (cos t_j - cos t_i)^2/(2h(t_j - t_i)):

        F_j*(1 - c*w_diag) = G_j + c * sum_{i<j} W_ji * exp(i*x_ji) * F_i,

    with G = exp(-i*phi/h)*g and c = i*gamma/sqrt(2*pi*i*h).  The steps
    come from _partition: a leaf is marched in blocks of _BLOCK rows, its
    own history reduced in tiles, the triangle inside a block row by row;
    a dense block is summed in tiles; a far block is summed through its
    cross approximation, or in tiles should that not converge.
    """
    _, cos_t, phi = _drive(t, driven)
    rot = np.exp((1j / h) * phi)  # f = rot * F

    w_mid, w_first, w_diag = _weights(n, dt)
    inv = np.zeros(n + 1)
    inv[1:] = 1.0 / (2.0 * h * (dt * np.arange(1, n + 1)))
    w_lags, inv_lags = _lag_windows(w_mid), _lag_windows(inv)

    coupling = 1j * gamma / np.sqrt(2j * np.pi * h)
    denom = 1.0 - coupling * w_diag

    big_g = np.empty(n + 1, dtype=complex)
    big_g[0] = math.sqrt(gamma / h)
    big_g[1:] = _inhomogeneity(t[1:], gamma, h, driven) * np.conj(rot[1:])

    # cross approximations need whole rows and columns of far blocks
    cis = _Cis(max(_BLOCK * _TILE, n + 1))
    x_buf = np.empty(_BLOCK * _TILE)
    k_buf = np.empty(_BLOCK * _TILE, dtype=complex)
    evals = 0

    def kernel(j0, j1, i0, i1):
        # W_ji * exp(i*x_ji) for rows j0..j1-1 against columns i0..i1-1
        nonlocal evals
        shape = (j1 - j0, i1 - i0)
        size = shape[0] * shape[1]
        evals += size
        x = x_buf[:size].reshape(shape)
        np.subtract(cos_t[j0:j1, None], cos_t[i0:i1], out=x)
        np.multiply(x, x, out=x)
        np.multiply(x, _lagged(inv_lags, j0 - i0, *shape), out=x)
        weight = _lagged(w_lags, j0 - i0, *shape)
        if i0 == 0:
            weight = weight.copy()
            weight[:, 0] = w_first[j0:j1]
        return cis(x, weight, out=k_buf[:size].reshape(shape))

    def kernel_row(j, i0, i1):
        # row j against columns i0..i1-1: lags j - i0 down to j - i1 + 1
        nonlocal evals
        evals += i1 - i0
        lags = slice(j - i1 + 1, j - i0 + 1)
        weight = w_mid[lags][::-1]
        if i0 == 0:
            weight = weight.copy()
            weight[0] = w_first[j]
        return cis((cos_t[j] - cos_t[i0:i1]) ** 2 * inv[lags][::-1], weight)

    def kernel_col(j0, j1, i):
        # column i against rows j0..j1-1: lags j0 - i up to j1 - 1 - i
        nonlocal evals
        evals += j1 - j0
        lags = slice(j0 - i, j1 - i)
        return cis((cos_t[j0:j1] - cos_t[i]) ** 2 * inv[lags],
                   w_first[j0:j1] if i == 0 else w_mid[lags])

    big_f = np.empty(n + 1, dtype=complex)
    big_f[0] = big_g[0]
    acc = np.zeros(n + 1, dtype=complex)

    def dense(j0, j1, i0, i1):
        for r0 in range(j0, j1, _BLOCK):
            r1 = min(r0 + _BLOCK, j1)
            for c0 in range(i0, i1, _TILE):
                c1 = min(c0 + _TILE, i1)
                acc[r0:r1] += np.einsum("ij,j->i", kernel(r0, r1, c0, c1),
                                        big_f[c0:c1])

    def far(j0, j1, i0, i1):
        # False when the cross approximation does not converge
        uv = _cross_approximation(lambda a: kernel_row(j0 + a, i0, i1),
                                  lambda b: kernel_col(j0, j1, i0 + b),
                                  j1 - j0, i1 - i0)
        if uv is None:
            return False
        acc[j0:j1] += np.einsum("lm,l->m", uv[0],
                                np.einsum("lk,k->l", uv[1], big_f[i0:i1]))
        return True

    for kind, *span in _partition(0, n + 1):
        if kind == "leaf":
            lo, hi = span
            for j0 in range(max(lo, 1), hi, _BLOCK):
                j1 = min(j0 + _BLOCK, hi)
                dense(j0, j1, lo, j0)
                k = kernel(j0, j1, j0, j1)
                for a, j in enumerate(range(j0, j1)):
                    total = acc[j] + np.dot(k[a, :a], big_f[j0:j])
                    big_f[j] = (big_g[j] + coupling * total) / denom
        elif kind == "dense" or not far(*span):
            dense(*span)
    return rot * big_f, evals


# ----------------------------------------------------------------------
# ground-state projection
# ----------------------------------------------------------------------

def survival_probability(grid: VolterraGrid, t_f=None):
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
    m = int(max(4001, 2 * int(80 * n_osc) + 1))  # 80 nodes per oscillation
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


def rate_from_oracle(params: ModelParams, n, dt=None):
    """Rate -(2*pi/t_f)*ln|p|^2 over n cycles: rate_between_cycles(params, 0, n)."""
    return rate_between_cycles(params, 0, n, dt=dt)


def rate_between_cycles(params: ModelParams, n_first=1, n_last=2, dt=None):
    """Per-cycle rate from the decay between two whole-cycle checkpoints.

    -ln(w(n_last)/w(n_first)) / (n_last - n_first) cancels the one-time
    switch-on loss (the bare ground state is not the field-dressed state at
    the projection instants), so it approaches the asymptotic decay rate
    much faster than the single-interval definition; used for cross-method
    comparisons.  One solve serves both projections; n_first = 0 is the
    single-interval rate.  Failures as in :func:`drivendelta.model.decay_rate`.
    """
    solve = functools.cache(lambda: solve_boundary_function(
        params, 2.0 * math.pi * n_last, dt=dt))
    return decay_rate(
        lambda n: survival_probability(solve(), t_f=2.0 * math.pi * n)[1],
        n_first, n_last)
