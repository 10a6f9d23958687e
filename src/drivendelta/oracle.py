"""Exact reference solver: boundary-value Volterra equation for the driven atom.

In transformed units the wavefunction obeys

    i*h*psi_t = -(h^2/2)*psi_xx - h*gamma*delta(x)*psi - x*cos(t)*psi.

Duhamel's formula against the driven free (Volkov) propagator U reduces the
problem to the origin value f(t) = psi(0, t):

    f(t) = g(t) + i*gamma * integral_0^t U(0,t;0,s) f(s) ds,

a weakly singular Volterra equation of the second kind whose kernel carries
the (t-s)^(-1/2) spreading prefactor.  U is exp(i*S/h)/sqrt(2*pi*i*h*T)
with S = model.volkov_action between two model.drive endpoint records, the
action the semiclassical engine uses too.  The inhomogeneity g and the
projection's bound-state overlaps are one closed form, _two_sided_overlap: a
Gaussian in the free end point against the two-sided exponential bound
state, through the scaled complementary error function of complex argument.
The projection is taken after whole cycles, where the free-evolution
overlap <psi0|U|psi0> is a closed form too (_free_evolution_overlap).

The time march uses product integration (_weights), stable and of
empirical order ~2 despite the singularity, and a kernel entry costs one
real phase, in steps of a 4096-entry table of exp(i*x), and one lookup
with a short polynomial (_march, _Cis).  A solve takes
a count of whole cycles, m = ceil(2*pi/dt) steps each
(solve_boundary_function), so the kernel repeats when both times move by m
steps.  The history sum, n(n+1)/2 pairs, is solved a cycle at a time and
each cycle in halves, recursively: densely near the diagonal, in tiles that
stay in cache, each block of rows there solved as one lower-triangular
linear system, and far from it, where the kernel is analytic in both times,
through its interpolant at p x p Chebyshev points (_Kernel.far), whose p a
block shifted by whole cycles reuses.  README.md gives the costs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError
from .model import (Drive, ModelParams, cycle_count, decay_rate, drive,
                    fits_in_memory, power)

__all__ = [
    "VolterraGrid",
    "default_time_step",
    "solve_boundary_function",
    "survival_probability",
    "rate_from_oracle",
    "rate_between_cycles",
]


def _two_sided_overlap(end, start, gamma, h, x=None, y=None):
    """The bound state psi0 carried by the driven free propagator U.

    ``end`` and ``start`` are :func:`drivendelta.model.drive` records.  With
    ``y`` given the path starts at y, and the overlap is
    integral psi0(x) U(x, t_f; y, t_i) dx; with ``x`` given it ends at x,
    and the overlap is integral U(x, t_f; y, t_i) psi0(y) dy.  Along the
    free point u, model.volkov_action reads

        S = phi_f - phi_i + fixed + lin*u + (u - center)^2/(2T),

    T = t_f - t_i, with ``fixed`` = x*sin t_f or -y*sin t_i.  With
    beta = 1/(2*h*T) and lam = gamma/h, the overlap is
    sqrt(gamma/h)*exp(i*(phi_f - phi_i + fixed)/h)/sqrt(2*pi*i*h*T) times
    integral exp(i*beta*(u-center)^2 + i*lin*u/h - lam*|u|) du, which
    splits at u = 0 into two half-line integrals, each a scaled
    complementary error function.
    """
    from scipy.special import erfcx

    shift = end.cos - start.cos
    if x is None:
        fixed, center, lin = -y * start.sin, y - shift, end.sin
    else:
        fixed, center, lin = x * end.sin, x + shift, -start.sin
    duration = end.t - start.t
    b_lin = lin / h
    beta = 1.0 / (2.0 * h * duration)
    lam = gamma / h
    pref = (1.0 / np.sqrt(2j * np.pi * h * duration) * math.sqrt(gamma / h)
            * np.exp((1j / h) * (end.phi - start.phi)))
    q_sqrt = np.sqrt(beta) * np.exp(-0.25j * np.pi)  # principal sqrt(-i*beta)
    u_plus = lam + 2j * beta * center - 1j * b_lin
    u_minus = lam - 2j * beta * center + 1j * b_lin
    e = erfcx(u_plus / (2.0 * q_sqrt)) + erfcx(u_minus / (2.0 * q_sqrt))
    return pref * (np.exp(1j * (beta * center * center + fixed / h))
                   * 0.5 * math.sqrt(math.pi) / q_sqrt * e)


def _free_evolution_overlap(n, gamma, h, driven):
    """<psi0| U(t_f, 0) |psi0> after n whole cycles, t_f = 2*pi*n, in closed form.

    There cos t_f = 1 and sin t_f = 0, so U is the free propagator times
    exp(i*(phi_f - phi_i)/h).  In momentum space psi0 is the Lorentzian
    sqrt(lam)*2*lam/(lam^2 + k^2), lam = gamma/h, and -d/d(lam^2) of
    integral exp(-i*a*k^2)/(lam^2 + k^2) dk = (pi/lam)*erfcx(lam*sqrt(i*a))
    gives, with zeta = gamma*sqrt(i*t_f/(2h)) (principal root),

        exp(i*(phi_f - phi_i)/h) * ((1 - 2*zeta^2)*erfcx(zeta) + 2*zeta/sqrt(pi)).
    """
    from scipy.special import erfcx

    t_f = 2.0 * math.pi * n
    end, start = drive(t_f, driven), drive(0.0, driven)
    zeta = gamma * np.sqrt(0.5j * t_f / h)
    return (np.exp((1j / h) * (end.phi - start.phi))
            * ((1.0 - 2.0 * zeta * zeta) * erfcx(zeta) + 2.0 * zeta / math.sqrt(math.pi)))


# ----------------------------------------------------------------------
# the Volterra march
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VolterraGrid:
    """Solved boundary function psi(0, t_j) on a uniform grid.

    ``kernel_evals`` counts the kernel entries the solve evaluated (the
    ``tolerance=`` companion included): each tile entry, and q*q for each
    q x q core a far block tried (_Kernel.far); the dense march has n(n+1)/2.
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
    Where gamma^2 overflows no step resolves that phase: a ValueError.
    """
    # h/gamma^2 is inf where gamma^2 underflows to 0
    gamma_sq = power(params.gamma, 2)
    if gamma_sq == math.inf:
        raise ValueError(f"gamma={params.gamma:g} is too large for the oracle: "
                         "gamma^2 overflows")
    return min(2.0 * math.pi, params.h / gamma_sq if gamma_sq else math.inf) / factor


# a solve's peak memory per step, by tracemalloc at 2.5e4 to 1.3e5 steps (z = 1):
# the O(n) arrays of the march; fixed costs make it more on fewer steps
_SOLVE_BYTES_PER_STEP = 264


def solve_boundary_function(params: ModelParams, cycles, dt=None, driven=True,
                            tolerance=None) -> VolterraGrid:
    """March the weakly singular Volterra equation for f(t) = psi(0, t).

    Parameters
    ----------
    params : ModelParams
    cycles : int
        Whole field cycles to solve, t_f = 2*pi*cycles (model.cycle_count).
    dt : float, optional
        Maximum step; defaults to :func:`default_time_step`.  The grid takes
        m = ceil(2*pi/dt) steps per cycle, n = cycles*m, so that the march
        can reuse the kernel's period; a step longer than a cycle gives one
        step per cycle.  A step count whose solve cannot fit in the
        machine's memory is a ValueError.
    driven : bool
        With False the drive term is removed from the kernel (the mu -> 0
        limit at fixed gamma, h); the solution is then the stationary bound
        state, which makes a stringent unitarity check.
    tolerance : float, optional
        When set, re-solves on a doubled step and raises ConvergenceError
        if the two boundary functions differ by more than ``tolerance``
        relative to the bound-state amplitude.  Its grid takes an even
        number of steps per cycle, at least 4 in all.
    """
    cycles = cycle_count(cycles, "cycles")
    if dt is None:
        dt = default_time_step(params)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got dt={dt!r}")
    gamma, h = params.gamma, params.h
    t_f = 2.0 * math.pi * cycles
    m = 2.0 * math.pi / dt  # stays this float where ceil overflows
    try:
        m = max(1, math.ceil(m - 1e-12))
        if tolerance is not None:
            # the half-resolution companion needs m even, and n >= 4
            m = max(4 // cycles, m + m % 2)
        n = cycles * m
        if not fits_in_memory(n * _SOLVE_BYTES_PER_STEP):
            raise MemoryError
        dt = t_f / n
        t = dt * np.arange(n + 1)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"the {cycles * float(m):.3g} time steps of dt={dt:g} do not "
                         "fit in memory: take a larger dt or fewer cycles") from None

    f, evals = _march(t, gamma, h, driven, m)

    if tolerance is not None:
        coarse, coarse_evals = _march(t[::2], gamma, h, driven, m // 2)
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


# phases are in table steps, y = x/_CIS_STEP with step = 2*pi/4096, and
# exp(i*x) = exp(i*q*step) * exp(i*r*step) with q = round(y) and r = y - q,
# which is exact, |r| <= 1/2: the first factor is a table entry at q & 4095,
# the second a Taylor polynomial in r*step through degree 4 (truncation error
# below 2.3e-18).  The table is built from step split in a 33-bit head, whose
# products with q < 4096 are exact, and its tail.
_CIS_MASK = 4095
_CIS_STEP = 2.0 * math.pi / (_CIS_MASK + 1)
_CIS_STEP_HI = round(_CIS_STEP * 2.0**42) / 2.0**42
# 2*pi/4096 - step_hi, including the part of pi that math.pi rounds off
_CIS_STEP_LO = ((math.pi - 2048.0 * _CIS_STEP_HI) + 1.2246467991473532e-16) / 2048.0
_CIS_TABLE = (np.exp(1j * _CIS_STEP_HI * np.arange(_CIS_MASK + 1))
              * np.exp(1j * _CIS_STEP_LO * np.arange(_CIS_MASK + 1)))
# cos(r*step) = 1 - r^2*(C2 - r^2*C4), sin(r*step) = r*(step - r^2*S3)
_CIS_C2, _CIS_C4 = _CIS_STEP**2 / 2.0, _CIS_STEP**4 / 24.0
_CIS_S3 = _CIS_STEP**3 / 6.0


class _Cis:
    """weight * exp(i*y*_CIS_STEP), written to the complex array ``out``,
    for float arrays y and weight of up to ``size`` elements.

    y is the phase in table steps (see _CIS_STEP).  The error is about
    3e-16 absolute for |y| < 2^52 and cis(0) == 1 exactly: a phase x in
    radians, rounded to y = x/step, carries its own rounding, eps*|x|.  Its
    work buffers are the rows of ``work``, a C-contiguous float array of
    shape (ROWS, size) that the caller allocates once; fresh temporaries of
    tile size cost more than the arithmetic.
    """

    ROWS = 7

    def __init__(self, work):
        self._real = work[:4]
        self._idx = work[4].view(np.int64)
        self._poly = work[5:7].reshape(-1).view(complex)

    def __call__(self, y, weight, out):
        q, r, r2, tmp = self._real[:, :y.size].reshape((4,) + y.shape)
        idx = self._idx[:y.size].reshape(y.shape)
        poly = self._poly[:y.size].reshape(y.shape)
        np.rint(y, out=q)
        np.subtract(y, q, out=r)
        np.copyto(idx, q, casting="unsafe")
        np.bitwise_and(idx, _CIS_MASK, out=idx)
        np.multiply(r, r, out=r2)
        np.multiply(r2, _CIS_C4, out=tmp)
        np.subtract(_CIS_C2, tmp, out=tmp)
        np.multiply(tmp, r2, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(tmp, weight, out=poly.real)
        np.multiply(r2, _CIS_S3, out=tmp)
        np.subtract(_CIS_STEP, tmp, out=tmp)
        np.multiply(tmp, r, out=tmp)
        np.multiply(tmp, weight, out=poly.imag)
        np.take(_CIS_TABLE, idx, out=out)
        np.multiply(out, poly, out=out)
        return out


# the march advances _BLOCK rows at a time; their known history is reduced
# in tiles of _BLOCK x _TILE kernel pairs (128 KiB of complex per buffer)
_BLOCK = 32
_TILE = 256
# a far block (see _blocks) has at least _FAR rows and columns, so marches of
# fewer than 4*_FAR - 1 steps are all dense; _Kernel.far interpolates it.
_FAR = 192
_CHEB_TOL = 1e-13

# (1 - u)^(3/2) = sum_m binom[m] u^m for |u| < 1, through u^22.  From lag
# _SERIES_FROM on, w_mid and w_first are (4/3) L^(-1/2) times these series,
# which converge to 1e-16 there (u = 1/L; w_first's 2 L^(1/2) cancels):
#   (L+1)^(3/2) - 2 L^(3/2) + (L-1)^(3/2) = L^(3/2) sum_{m>=1} 2*binom[2m] u^(2m),
#   L^(3/2) - (L-1)^(3/2) = L^(3/2) (3u/2 - sum_{m>=2} binom[m] u^m)
_SERIES_FROM = 4
_BINOM = np.cumprod([1.0] + [(m - 2.5) / m for m in range(1, 23)])
_MID_SERIES = 2.0 * _BINOM[2:21:2]  # in 1/L^2
_FIRST_SERIES = _BINOM[2:]  # in 1/L
# a far block's lags are at least _FAR; there _MID_SERIES is cut where the
# first term left out is below eps/16 of the leading one at lag _FAR
_FAR_SERIES = _MID_SERIES[:next(
    m for m in range(1, _MID_SERIES.size)
    if abs(_MID_SERIES[m]) * _FAR ** (-2.0 * m)
    < _MID_SERIES[0] * np.finfo(float).eps / 16)]


def _series_weight(inv, v, series):
    """(4/3) L^(-1/2) * sum_m series[m] v^m at real lags L = 1/inv: w_mid
    over sqrt(dt) with v = 1/L^2, w_first with v = 1/L."""
    w = np.full(v.shape, series[-1])
    for c in series[-2::-1]:
        w *= v
        w += c
    w *= np.sqrt(inv)
    return (4.0 / 3.0) * w


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
    inv = 1.0 / lags[_SERIES_FROM:]
    w_mid[_SERIES_FROM:] = _series_weight(inv, inv * inv, _MID_SERIES)
    w_first[_SERIES_FROM:] = _series_weight(inv, inv, _FIRST_SERIES)
    root = math.sqrt(dt)
    return root * w_mid, root * w_first, (4.0 / 3.0) * root


def _lag_windows(table):
    """Zero-copy windows over ``table`` (lags 0..n) for :func:`_lagged`.

    The table is padded with n + 1 zeros below lag 0 and reversed, so
    windows[p, b] = table[n - p - b] and negative lags weigh nothing.  Each
    window is as wide as the table, so a block may span the whole history.
    """
    rev = np.concatenate((np.zeros(table.size), table))[::-1].copy()
    return sliding_window_view(rev, table.size)


def _lagged(windows, lag0, rows, cols):
    """Toeplitz view M[a, b] = table[lag0 + a - b], a < rows, b < cols."""
    top = windows.shape[0] - 2 - lag0
    return windows[top - rows + 1:top + 1][::-1, :cols]


def _chebyshev_points(p):
    """p Chebyshev points of the 2nd kind, 1 to -1: every 2nd of 2p - 1, bit for bit."""
    return np.sin(0.5 * np.pi * np.arange(p - 1, -p, -2) / (p - 1))


def _barycentric(p, lo, hi, x):
    """The len(x) x p matrix that interpolates from the p Chebyshev points of
    [lo, hi] to x (second barycentric formula); a node's own point gets its unit row."""
    weights = np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    m = np.subtract.outer((2.0 * x - (lo + hi)) / (hi - lo), _chebyshev_points(p))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights, m, out=m)
        m /= m.sum(axis=1, keepdims=True)
    m[np.isnan(m)] = 1.0  # on a node: inf/inf, and 0 beside it
    return m


def _real_times(matrix, z):
    """matrix @ z, complex, for a real matrix and a complex z (or a real
    vector), in einsum on one thread: BLAS would busy every CPU.  A matrix z
    is read as its float view, each row's real and imaginary parts side by
    side, in one product over a contiguous transposed copy, so that each
    entry is a dot product of two contiguous rows (half the time of the
    strided product); a vector's two parts go one at a time, which einsum
    sums faster."""
    if z.ndim == 1:
        return (np.einsum("ij,j->i", matrix, z.real)
                + 1j * np.einsum("ij,j->i", matrix, z.imag))
    pairs = np.ascontiguousarray(np.ascontiguousarray(z).view(float).T)
    return np.einsum("ij,kj->ik", matrix, pairs, order="C").view(complex)


# The points of [lo, hi] and the Chebyshev points lie symmetric about its
# center, so row size-1-r of a side's barycentric matrix is row r reversed,
# up to rounding: a solve keeps the top rows only, half the memory.
def _mirror_times(top, size, v):
    """matrix @ v for the size x p matrix whose top rows are ``top``."""
    bottom = _real_times(top[:size - len(top)], v[::-1])[::-1]
    return np.concatenate((_real_times(top, v), bottom))


def _mirror_t_times(top, f):
    """matrix.T @ f for the matrix of :func:`_mirror_times` with f.size rows."""
    rest = f[len(top):][::-1]
    return _real_times(top.T, f[:len(top)]) + _real_times(top[:rest.size].T, rest)[::-1]


class _Kernel:
    """The kernel w_mid[j - i] * exp(i*x_ji) of a march on the grid t, the
    one Toeplitz kernel of every block (see _march).

    Called with (j0, j1, i0, i1), it evaluates rows j0..j1-1 against columns
    i0..i1-1, at most _BLOCK x _TILE, into a buffer that the next call
    overwrites; ``evals`` counts entries as VolterraGrid.kernel_evals does.
    The kernel repeats when both times move by a whole ``period`` of steps
    (one cycle), so a far block shifted by whole periods takes the p that
    the first of its shifts chose (see far)."""

    def __init__(self, t, h, driven, period):
        n, dt = t.size - 1, t[1]
        self.dt, self.h, self.driven, self.evals = dt, h, driven, 0
        self.period = period
        self.far_p = {}  # (lag, first column mod period, rows, columns) -> p
        self.nodes = drive(t, driven)
        self.w_mid, self.w_first, self.w_diag = _weights(n, dt)
        # the phase window 1/(2h*lag*dt), in table steps (see _Cis)
        inv = np.r_[0.0, 1.0 / (2.0 * h * _CIS_STEP * (dt * np.arange(1, n + 1)))]
        self.w_lags, self.inv_lags = _lag_windows(self.w_mid), _lag_windows(inv)
        # as one block the work buffers stay with the allocator between solves;
        # as several, glibc returned them: 10,000 page faults per 41-point scan
        work = np.empty((_Cis.ROWS + 4, _BLOCK * _TILE))
        self.cis = _Cis(work[:_Cis.ROWS])
        self.x_buf = work[_Cis.ROWS]
        self.k_buf = work[_Cis.ROWS + 1:_Cis.ROWS + 3].reshape(-1).view(complex)
        # a leaf block's linear system (see _march): matrix, then right-hand side
        self.system = work[_Cis.ROWS + 3].view(complex)
        self.matrices = {}  # far blocks' interpolation matrices, see _matrix

    def __call__(self, j0, j1, i0, i1):
        shape = (j1 - j0, i1 - i0)
        size = shape[0] * shape[1]
        self.evals += size
        x = self.x_buf[:size].reshape(shape)
        np.subtract(self.nodes.cos[j0:j1, None], self.nodes.cos[i0:i1], out=x)
        np.multiply(x, x, out=x)
        np.multiply(x, _lagged(self.inv_lags, j0 - i0, *shape), out=x)
        # cis runs faster on flat, contiguous operands: a tile's Toeplitz
        # view of the weights flattens to a copy
        weight = _lagged(self.w_lags, j0 - i0, *shape)
        return self.cis(x.reshape(size), weight.reshape(size),
                        out=self.k_buf[:size]).reshape(shape)

    def core(self, q, j0, j1, i0, i1):
        """The kernel at q x q Chebyshev points of rows j0..j1-1 and columns
        i0..i1-1, at real lags, and its largest phase in radians."""
        self.evals += q * q
        x = 0.5 + 0.5 * _chebyshev_points(q)
        rows, cols = j0 + (j1 - j0 - 1) * x, i0 + (i1 - i0 - 1) * x
        cos = drive(self.dt * np.concatenate((rows, cols)), self.driven).cos
        inv = np.divide(1.0, np.subtract.outer(rows, cols))
        phase = np.subtract.outer(cos[:q], cos[q:])
        phase *= phase
        phase *= inv
        phase *= 0.5 / (self.h * self.dt * _CIS_STEP)
        weight = math.sqrt(self.dt) * _series_weight(inv, inv * inv, _FAR_SERIES)
        phase, weight = phase.reshape(-1), weight.reshape(-1)
        out = np.empty(q * q, dtype=complex)
        size = self.x_buf.size  # what cis's work buffers hold
        for a in range(0, q * q, size):
            self.cis(phase[a:a + size], weight[a:a + size], out=out[a:a + size])
        return out.reshape(q, q), float(phase.max()) * _CIS_STEP

    def _matrix(self, p, size=None):
        """The barycentric matrix from p Chebyshev points of a block side of
        ``size`` rows (or columns) to those rows, as its top (size + 1) // 2
        rows (see _mirror_times); with no size, the (p - 1) x p matrix to the
        midpoints that :meth:`far` checks p at.

        The affine map of integer rows to [-1, 1] is exact, so a matrix
        depends on nothing else, and the solve keeps each one it builds
        until the march returns.
        """
        if (p, size) not in self.matrices:
            if size is None:
                x, lo, hi = _chebyshev_points(2 * p - 1)[1::2], -1.0, 1.0
            else:
                x, lo, hi = np.arange((size + 1) // 2), 0, size - 1
            self.matrices[p, size] = _barycentric(p, lo, hi, x)
        return self.matrices[p, size]

    def search(self, j0, j1, i0, i1):
        """p and the p x p core C of a far block.

        p = 17, 33, 65, ... grows until C meets the next core, which nests C,
        between C's points to _CHEB_TOL * max(1, x) * max|core|: the rounding
        error of exp(i*x) grows with the largest phase x.
        """
        p = 17
        while 2 * p - 1 <= min(j1 - j0, i1 - i0):
            fine, x_max = self.core(2 * p - 1, j0, j1, i0, i1)
            core = fine[::2, ::2]
            mid = self._matrix(p)
            interp = _real_times(mid, _real_times(mid, core).T).T
            err = np.max(np.abs(interp - fine[1::2, 1::2]))
            if not err > _CHEB_TOL * max(1.0, x_max) * np.max(np.abs(fine)):
                return p, core
            p = 2 * p - 1
        raise ConvergenceError("the kernel's Chebyshev interpolant did not "
                               f"converge on the far block {(j0, j1, i0, i1)}")

    def far(self, j0, j1, i0, i1, f):
        """K[j0:j1, i0:i1] @ f for a far block, as rows @ C @ cols.T @ f.

        C is the kernel at p x p Chebyshev points of the block, p from
        :meth:`search`.  A block whose shift by whole periods was searched
        before is the same block, so it takes that p and evaluates C alone:
        the nested points make C bit for bit the core the search returns.
        """
        key = (j0 - i0, i0 % self.period, j1 - j0, i1 - i0)
        if key in self.far_p:
            p = self.far_p[key]
            core = self.core(p, j0, j1, i0, i1)[0]
        else:
            p, core = self.search(j0, j1, i0, i1)
            self.far_p[key] = p
        v = np.einsum("ij,j->i", core, _mirror_t_times(self._matrix(p, i1 - i0), f))
        return _mirror_times(self._matrix(p, j1 - j0), j1 - j0, v)


def _partition(lo, hi, period):
    """The march over rows lo..hi-1 as a list of steps, in order.

    ("leaf", lo, hi) solves rows lo..hi-1, whose history before lo is
    already summed; ("dense" or "far", j0, j1, i0, i1) adds
    K[j0:j1, i0:i1] @ F[i0:i1] to the sums of rows j0..j1-1.  Rows that
    span several periods of ``period`` rows are marched a period at a time:
    first the period's history in each earlier one, split by _blocks, then
    the period itself.  So a step shifted by whole periods is a step of the
    same shape.  Rows within a period are split in halves while their
    quarters can hold a far block.
    """
    if hi - lo > period:
        steps = []
        for c0 in range(lo, hi, period):
            for i0 in range(lo, c0, period):
                steps += _blocks(c0, c0 + period, i0, i0 + period)
            steps += _partition(c0, c0 + period, period)
        return steps
    if hi - lo < 4 * _FAR:
        return [("leaf", lo, hi)]
    mid = (lo + hi) // 2
    return (_partition(lo, mid, period) + _blocks(mid, hi, lo, mid)
            + _partition(mid, hi, period))


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


def _march(t, gamma, h, driven, period):
    """Boundary function f_j on the grid t, and the kernel entries evaluated.

    The kernel's action is model.volkov_action from (0, t_i) to (0, t_j),
    phi_j - phi_i + h*x_ji.  With F = exp(-i*phi/h)*f (phi and cos from
    model.drive) it leaves one real phase per pair, folded as
    x_ji = (cos t_j - cos t_i)^2 times the 1/(2h*lag*dt) window of lag j - i
    (in table steps of _Cis, the window over _CIS_STEP):

        F_j*(1 - c*w_diag) = G_j + c * sum_{i<j} W_ji * exp(i*x_ji) * F_i,

    with G = exp(-i*phi/h)*g and c = i*gamma/sqrt(2*pi*i*h).  W_ji is
    w_mid[j - i], but node 0 carries w_first[j]: F_0 = G_0 is known, so its
    terms start the sums, and every block, over nodes 1..n, applies
    _Kernel.  With ``period`` steps per cycle the nodes of cycle c are
    c*period + 1..(c + 1)*period.  The steps come from _partition: a leaf is
    marched in blocks of _BLOCK rows, its own history reduced in tiles, the
    last of which also holds the block's own triangle; the block is then
    one linear system, (1 - c*w_diag)*I - c*K over its rows, K the strictly
    lower triangle, solved by np.linalg.solve.  Its diagonal dominates (off
    the diagonal at most 0.074 of it at the default step), so the LU keeps
    its pivots there.  A dense block is summed in tiles; a far block through
    _Kernel.far.
    """
    kernel = _Kernel(t, h, driven, period)
    rot = np.exp((1j / h) * kernel.nodes.phi)  # f = rot * F

    coupling = 1j * gamma / np.sqrt(2j * np.pi * h)
    denom = 1.0 - coupling * kernel.w_diag

    big_g = np.empty(t.size, dtype=complex)
    big_g[0] = math.sqrt(gamma / h)
    # g(t) = (U(t, 0) psi0)(x = 0)
    big_g[1:] = (_two_sided_overlap(Drive._make(v[1:] for v in kernel.nodes),
                                    drive(0.0, driven),
                                    gamma, h, x=0.0) * np.conj(rot[1:]))

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

    for kind, *span in _partition(1, t.size, kernel.period):
        if kind == "leaf":
            lo, hi = span
            for j0 in range(lo, hi, _BLOCK):
                j1 = min(j0 + _BLOCK, hi)
                c0 = max(lo, j1 - _TILE)
                dense(j0, j1, lo, c0)
                k = kernel(j0, j1, c0, j1)
                acc[j0:j1] += np.einsum("ij,j->i", k[:, :j0 - c0], big_f[c0:j0])
                # (denom*I - coupling*K) F = G + coupling*acc, K the strictly
                # lower triangle: the kernel is 0 on and above the diagonal
                rows = j1 - j0
                matrix = kernel.system[:rows * rows].reshape(rows, rows)
                np.multiply(k[:, j0 - c0:], -coupling, out=matrix)
                matrix.flat[::rows + 1] = denom
                rhs = kernel.system[_BLOCK * _BLOCK:_BLOCK * _BLOCK + rows]
                np.multiply(acc[j0:j1], coupling, out=rhs)
                rhs += big_g[j0:j1]
                big_f[j0:j1] = np.linalg.solve(matrix, rhs)
        elif kind == "dense":
            dense(*span)
        else:
            acc[span[0]:span[1]] += kernel.far(*span, big_f[span[2]:span[3]])
    return rot * big_f, kernel.evals


# ----------------------------------------------------------------------
# ground-state projection
# ----------------------------------------------------------------------

# the projection's nodes per half of [0, t_f], uniform in u = sqrt(distance
# to the end): at least _PROJECTION_NODES, and 2*_PROJECTION_PER_OSC
# intervals per oscillation of the integrand where they are widest in t;
# f between grid times is interpolated from _LAGRANGE_POINTS nodes.
# README.md gives the error budget they meet.
_PROJECTION_NODES = 1001
_PROJECTION_PER_OSC = 20
_LAGRANGE_POINTS = 6


def _lagrange(f, dt, s):
    """f, sampled on the uniform grid dt*arange(f.size), at the times s.

    Each time takes the polynomial through the _LAGRANGE_POINTS nodes
    around it, the window shifted inward at both ends, so it is exact on
    quintics; a grid of fewer nodes takes all of them.
    """
    k = min(_LAGRANGE_POINTS, f.size)
    pos = s / dt
    j = np.clip(np.floor(pos).astype(int) - (k - 1) // 2, 0, f.size - k)
    x = pos - j
    out = np.zeros(s.shape, dtype=f.dtype)
    for a in range(k):
        weight = np.full(s.shape, 1.0 / math.prod(a - b for b in range(k) if b != a))
        for b in range(k):
            if b != a:
                weight *= x - b
        out += weight * f[j + a]
    return out


def _simpson(y, dx):
    """Composite Simpson rule over the last axis of y, an odd number of
    samples dx apart: scipy.integrate.simpson's even-spaced rule."""
    return np.sum(y[..., :-2:2] + 4.0 * y[..., 1::2] + y[..., 2::2], axis=-1) * (dx / 3.0)


def survival_probability(grid: VolterraGrid, n):
    """Survival amplitude p = <psi0|psi(t_f)> and probability w = |p|^2
    after n whole cycles, t_f = 2*pi*n, which the grid must reach.

    Duhamel again: the free-evolution overlap, in closed form at whole
    cycles (_free_evolution_overlap), plus the time integral of the
    (closed-form) bound-state overlap of the kernel against the boundary
    function.  The integrand has square-root behavior at both endpoints, so
    each half of the interval is integrated in the variable sqrt(distance
    to the endpoint), where it is smooth, by Simpson's rule; the boundary
    function between grid times is its local interpolant (_lagrange).
    """
    n = cycle_count(n)
    t_f = 2.0 * math.pi * n
    if t_f > grid.t[-1] * (1.0 + 1e-12):
        raise ValueError(f"n={n!r}: t_f = 2*pi*n = {t_f:.6g} outside the solved grid "
                         f"(t <= {grid.t[-1]:.6g})")
    params = grid.params
    gamma, h = params.gamma, params.h

    phase_rate = power(gamma, 2) / (2.0 * h)
    n_osc = max(phase_rate * t_f, t_f) / (2.0 * math.pi)
    try:
        m = max(_PROJECTION_NODES, 2 * int(_PROJECTION_PER_OSC * n_osc) + 1)
        u = np.linspace(0.0, math.sqrt(0.5 * t_f), m)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"the projection's {2 * _PROJECTION_PER_OSC * n_osc:.3g} "
                         "nodes do not fit in memory") from None
    # rows: the half from 0 and the half from t_f; u = 0 is left out, where
    # the integrand vanishes and the second half's overlap is singular
    t_src = np.stack((u[1:] * u[1:], t_f - u[1:] * u[1:]))
    vals = np.zeros((2, m), dtype=complex)
    vals[:, 1:] = (_two_sided_overlap(drive(t_f, grid.driven),
                                      drive(t_src, grid.driven), gamma, h, y=0.0)
                   * _lagrange(grid.f, grid.dt, t_src) * 2.0 * u[1:])
    total = np.sum(_simpson(vals, u[1]))

    p = _free_evolution_overlap(n, gamma, h, grid.driven) + 1j * gamma * total
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
    solve = functools.cache(lambda: solve_boundary_function(params, n_last, dt=dt))
    return decay_rate(lambda n: survival_probability(solve(), n)[1], n_first, n_last)
