"""Complex-time tunneling paths and the wave-packet survival amplitude.

Ionization proceeds in bursts at the field maxima t = k*pi.  Each burst is
carried by a classical path that starts at the complex time k*pi + t0 with
t0 = i*arcsinh(gamma), drifts under the field, and interferes at t_f = 2*n*pi
with the part of the wavefunction that stayed bound.  Summing the bound
amplitude and the per-burst packet overlaps gives the survival amplitude p
and the decay rate Gamma = -(2*pi/t_f) * ln|p|^2, whose modulation in z
reproduces the channel-closing period 1/(1+2*gamma^2).

The survival amplitude and the rates are closed-form, so they take
ModelParams with array fields and evaluate a whole parameter grid in one
call; a scan over z costs a few array operations per burst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .adiabatic import quasi_energy_averaged
from .errors import (DegeneratePathError, InfiniteRateError,
                     NonTransversalCrossingError, NumericError)
from .model import ModelParams, all_true, unbox

__all__ = [
    "ComplexPath",
    "SurvivalAmplitude",
    "branched_sqrt",
    "tunnel_start_time",
    "make_path",
    "action",
    "action_by_quadrature",
    "delta_phase",
    "volkov_propagator",
    "survival_amplitude",
    "ionization_rate",
]


def branched_sqrt(w):
    """Square root on the sheet sqrt(r*e^{i*phi}) = -sqrt(r)*e^{i*phi/2}, phi in [0, 2*pi).

    The cut lies along the positive real axis; positive reals map to
    -sqrt(r).  This is the sheet on which the packet prefactors of the
    survival amplitude vary continuously with the burst index.  Elementwise
    for arrays; a scalar argument gives a complex.
    """
    w = np.asarray(w, dtype=complex)
    phi = np.angle(w)
    phi = np.where(phi < 0.0, phi + 2.0 * math.pi, phi)
    return unbox(-np.sqrt(np.abs(w)) * np.exp(0.5j * phi))


def tunnel_start_time(gamma):
    """Complex emission time t0 = i*arcsinh(gamma) of a tunneling burst.

    Satisfies cos(t0) = sqrt(1+gamma^2) and sin(t0) = i*gamma, so the
    imaginary initial velocity matches the bound-state momentum i*gamma.
    """
    if not all_true(gamma >= 0.0):
        raise ValueError(f"gamma must be non-negative, got gamma={gamma!r}")
    return unbox(1j * np.arcsinh(gamma))


@dataclass(frozen=True)
class ComplexPath:
    """Boundary-value solution x(t) = -cos t + cos(t_start) + y + v0*(t - t_start).

    ``kind`` is "tunneling" when the start time is complex; the imaginary
    part of the start velocity then equals gamma up to the O(1/t_f) drift
    correction carried by v0.
    """

    t_start: complex
    t_end: complex
    y: complex
    x: complex
    v0: complex
    kind: str = field(default="classical")

    def position(self, t):
        return -np.cos(t) + np.cos(self.t_start) + self.y + self.v0 * (t - self.t_start)

    def velocity(self, t):
        return np.sin(t) + self.v0

    @property
    def is_real(self):
        return (abs(complex(self.t_start).imag) == 0.0
                and abs(complex(self.t_end).imag) == 0.0
                and abs(complex(self.y).imag) == 0.0
                and abs(complex(self.x).imag) == 0.0)


def make_path(t_start, t_end, y, x) -> ComplexPath:
    """Path of the driven free motion through (y, t_start) and (x, t_end)."""
    if t_end == t_start:
        raise DegeneratePathError("path endpoints coincide in time")
    v0 = (x - y + np.cos(t_end) - np.cos(t_start)) / (t_end - t_start)
    kind = "classical"
    if abs(complex(t_start).imag) > 0.0 or abs(complex(t_end).imag) > 0.0:
        kind = "tunneling"
    return ComplexPath(t_start=t_start, t_end=t_end, y=y, x=x, v0=v0, kind=kind)


def _action_antiderivative(path: ComplexPath, t):
    # antiderivative of L0 = xdot^2/2 + x*cos(t) along the path
    ti, y, v0 = path.t_start, path.y, path.v0
    ci = np.cos(ti)
    st, ct = np.sin(t), np.cos(t)
    return (-t / 4.0 - 0.75 * st * ct + 0.5 * v0 * v0 * t
            + (ci + y) * st + v0 * (t - ti) * st)


def action(path: ComplexPath):
    """Classical action of the field-only Lagrangian along the path.

    Closed form; for the driven potential -x*cos(t) the Lagrangian is
    L0 = xdot^2/2 + x*cos(t) and its time integral is elementary.  Contour
    independence in the complex t-plane is inherited from analyticity.
    """
    return (_action_antiderivative(path, path.t_end)
            - _action_antiderivative(path, path.t_start))


def action_by_quadrature(path: ComplexPath, waypoints=None, nodes=240):
    """Action by Gauss-Legendre contour integration; test oracle for :func:`action`.

    ``waypoints`` inserts intermediate contour vertices between t_start and
    t_end (the integrand is entire, so any contour gives the same value).
    """
    vertices = [path.t_start] + list(waypoints or []) + [path.t_end]
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = 0.0 + 0.0j
    for a, b in zip(vertices[:-1], vertices[1:]):
        t = a + (b - a) * (xs + 1.0) / 2.0
        xcl = path.position(t)
        xdot = path.velocity(t)
        lagr = 0.5 * xdot * xdot + xcl * np.cos(t)
        total += np.sum(ws * lagr) * (b - a) / 2.0
    return total


def delta_phase(path, bracket_resolution=1e-3, root_tol=1e-12):
    """Accumulated origin-crossing phase sum(1/|xdot(t_j)|) of a real path.

    Zeros of x(t) are located by sign-change bracketing on a uniform grid of
    ``bracket_resolution`` cycles followed by Brent polishing.  A tangential
    zero in the interior (x touches 0 with xdot = 0) makes the phase
    ill-defined and raises NonTransversalCrossingError; touches exactly at
    the path endpoints do not count as crossings.
    """
    if getattr(path, "is_real", None) is False or not path.is_real:
        raise ValueError("delta_phase requires a real classical path")
    a = float(np.real(path.t_start))
    b = float(np.real(path.t_end))
    n = max(16, int(math.ceil((b - a) / (2.0 * math.pi * bracket_resolution))))
    grid = np.linspace(a, b, n + 1)
    vals = np.real(path.position(grid))
    scale = max(np.max(np.abs(vals)), 1e-30)

    def pos(t):
        return float(np.real(path.position(t)))

    phi = 0.0
    for i in range(n):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            if i == 0:
                continue  # endpoint touch
            root = grid[i]
        elif va * vb < 0.0:
            root = brentq(pos, grid[i], grid[i + 1], xtol=root_tol)
        else:
            continue
        speed = abs(float(np.real(path.velocity(root))))
        if speed < 1e-8:
            raise NonTransversalCrossingError(
                f"tangential origin crossing at t={root!r}")
        phi += 1.0 / speed

    # tangential contact: the path becomes stationary ON the origin without
    # changing sign; locate interior velocity zeros and inspect |x| there
    def vel(t):
        return float(np.real(path.velocity(t)))

    speeds = np.real(path.velocity(grid))
    step = grid[1] - grid[0]
    for i in range(n):
        if speeds[i] * speeds[i + 1] < 0.0:
            t_star = brentq(vel, grid[i], grid[i + 1], xtol=root_tol)
            if t_star - a < step or b - t_star < step:
                continue  # endpoint touch does not count as a crossing
            if abs(float(np.real(path.position(t_star)))) < 1e-9 * scale:
                raise NonTransversalCrossingError(
                    f"tangential origin contact near t={t_star!r}")
    return phi


def volkov_propagator(x, t_f, y, t_i, params: ModelParams, delta_phi=None):
    """Semiclassical propagator of the driven atom between (y, t_i) and (x, t_f).

    Equals exp(i*S/h + i*gamma*phi) / sqrt(2*pi*i*h*(t_f - t_i)).  For real
    times the principal square root applies and phi is the origin-crossing
    phase of the classical path (computed here unless ``delta_phi`` is
    given).  When the start time is truly complex the radicand leaves the
    imaginary axis and the branched sheet of :func:`branched_sqrt` is used;
    the relevant tunneling paths do not cross the origin, so phi = 0 then.
    """
    if t_f == t_i:
        raise DegeneratePathError("propagator endpoints coincide in time")
    path = make_path(t_i, t_f, y, x)
    h = params.h
    s_cl = action(path)
    if delta_phi is None:
        delta_phi = delta_phase(path) if path.is_real else 0.0
    radicand = 2j * math.pi * h * (t_f - t_i)
    if abs(complex(t_f - t_i).imag) > 0.0:
        root = branched_sqrt(radicand)
    else:
        root = np.sqrt(radicand)
    return np.exp(1j * s_cl / h + 1j * params.gamma * delta_phi) / root


@dataclass(frozen=True)
class PacketTerm:
    """One ionization-burst contribution to the survival amplitude."""

    k: int
    zeta: complex
    prefactor: complex
    value: complex


@dataclass(frozen=True)
class SurvivalAmplitude:
    """Ground-state survival amplitude after n whole field cycles."""

    params: ModelParams
    n_cycles: int
    t_f: float
    bound_term: complex
    packet_terms: tuple

    @property
    def p(self) -> complex:
        return self.bound_term + sum(t.value for t in self.packet_terms)


def survival_amplitude(params: ModelParams, n, include_odd=False) -> SurvivalAmplitude:
    """Bound amplitude plus interfering tunneling packets at t_f = 2*n*pi.

    The burst at t = k*pi contributes

        -4*h / (gamma * branched_sqrt(2*i*pi*h*tau_k)) * exp(zeta_k),
        tau_k = t_f - t0 - k*pi,

    where zeta_k collects the classical action of the packet path from
    (0, k*pi + t0) to (0, t_f) and the bound-state phase accumulated up to
    the emission time.  Packets with odd k end up displaced by about two
    units and overlap the bound state only weakly; they are skipped unless
    ``include_odd`` is set.  With array parameters every term is an array
    over the grid.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got n={n!r}")
    n = int(n)
    g, h = params.gamma, params.h
    t_f = 2.0 * math.pi * n
    e_m = quasi_energy_averaged(params).e_m
    t0 = tunnel_start_time(g)
    c0 = unbox(np.sqrt(1.0 + g * g))   # cos(t0)
    s0 = 1j * g                          # sin(t0)

    bound = unbox(np.exp(-1j * e_m * t_f / h))
    terms = []
    for k in range(2 * n):
        if (k % 2 == 1) and not include_odd:
            continue
        tau = t_f - t0 - k * math.pi
        prefactor = -4.0 * h / (g * branched_sqrt(2j * math.pi * h * tau))
        zeta = ((-1j / (4.0 * h * tau))
                * (tau * tau + tau * c0 * s0 + 4.0 * c0 * (-1.0) ** k
                   - 2.0 - 2.0 * c0 * c0)
                - 1j * e_m * (t0 + k * math.pi) / h)
        terms.append(PacketTerm(k=k, zeta=zeta, prefactor=prefactor,
                                value=unbox(prefactor * np.exp(zeta))))
    return SurvivalAmplitude(params=params, n_cycles=n, t_f=t_f,
                             bound_term=bound, packet_terms=tuple(terms))


def _checked(rate, *ws):
    """A grid of rates as it is; a scalar rate as a float, or the reason it failed."""
    if isinstance(rate, np.ndarray) and rate.ndim:
        return rate
    if any(w == 0.0 for w in ws):
        raise InfiniteRateError("survival amplitude vanished; rate diverges")
    if not np.isfinite(rate):
        raise NumericError(f"packet sum overflowed; rate is {rate!r}")
    return float(rate)


def ionization_rate(params: ModelParams, n, include_odd=False):
    """Decay rate Gamma = -(2*pi/t_f) * ln|p|^2 over n whole cycles.

    A scalar call raises InfiniteRateError where p vanishes and NumericError
    where the packet sum overflows.  On a parameter grid the result is an
    array that is not finite at such points instead.
    """
    with np.errstate(all="ignore"):
        amp = survival_amplitude(params, n, include_odd=include_odd)
        w = np.abs(amp.p) ** 2
        rate = -(2.0 * math.pi / amp.t_f) * np.log(w)
    return _checked(rate, w)


def rate_between_cycles(params: ModelParams, n_first=1, n_last=2,
                        include_odd=False):
    """Per-cycle rate -ln(w(n_last)/w(n_first)) / (n_last - n_first).

    Semiclassical counterpart of the oracle's between-cycles rate; the
    bound-term contribution reduces exactly to 2*pi*D_avg while packet
    interference supplies the channel-closing modulation.  Failures are
    reported as in :func:`ionization_rate`.
    """
    if not 1 <= n_first < n_last:
        raise ValueError("need 1 <= n_first < n_last")
    with np.errstate(all="ignore"):
        w_first = np.abs(survival_amplitude(params, n_first, include_odd=include_odd).p) ** 2
        w_last = np.abs(survival_amplitude(params, n_last, include_odd=include_odd).p) ** 2
        rate = -np.log(w_last / w_first) / (n_last - n_first)
    return _checked(rate, w_first, w_last)
