"""Complex-time tunneling bursts and the wave-packet survival amplitude.

Ionization proceeds in bursts at the field maxima t = k*pi.  Each burst is
carried by a classical path that starts at the complex time k*pi + t0 with
t0 = i*arcsinh(gamma), drifts under the field, and interferes at t_f = 2*n*pi
with the part of the wavefunction that stayed bound.  Summing the bound
amplitude and the per-burst packet overlaps gives the survival amplitude p
and the decay rate Gamma = -(2*pi/t_f) * ln|p|^2, whose modulation in z
reproduces the channel-closing period 1/(1+2*gamma^2).

The survival amplitude and the rates are closed-form, so they take
ModelParams with array fields and evaluate a whole parameter grid in one
call; the bursts are one more array axis, so a scan over z costs a few
array operations in all, whatever the number of cycles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import bound_propagator_factor, quasi_energy_averaged
from .model import (Drive, ModelParams, all_true, cycle_count, decay_rate, drive,
                    fits_in_memory, unbox, volkov_action)

__all__ = [
    "SurvivalAmplitude",
    "branched_sqrt",
    "tunnel_start_time",
    "action_by_quadrature",
    "volkov_propagator",
    "survival_amplitude",
    "ionization_rate",
    "rate_between_cycles",
]

# Gauss-Legendre rules, built on first use: leggauss(240) takes about 10 ms
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


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


def action_by_quadrature(t_start, t_end, y=0.0, x=0.0, waypoints=None):
    """Action from (y, t_start) to (x, t_end) by 240-node Gauss-Legendre
    contour quadrature; the test oracle for :func:`drivendelta.model.volkov_action`.

    Integrates L0 = xdot^2/2 + x*cos(t) along the classical path
    x(t) = -cos t + cos(t_start) + y + v0*(t - t_start) through both points.
    ``waypoints`` inserts intermediate contour vertices between t_start and
    t_end (the integrand is entire, so any contour gives the same value).
    """
    if t_end == t_start:
        raise ValueError("path endpoints coincide in time")
    v0 = (x - y + np.cos(t_end) - np.cos(t_start)) / (t_end - t_start)
    vertices = [t_start] + list(waypoints or []) + [t_end]
    xs, ws = _gauss_legendre(240)
    total = 0.0 + 0.0j
    for a, b in zip(vertices[:-1], vertices[1:]):
        t = a + (b - a) * (xs + 1.0) / 2.0
        xcl = -np.cos(t) + np.cos(t_start) + y + v0 * (t - t_start)
        xdot = np.sin(t) + v0
        lagr = 0.5 * xdot * xdot + xcl * np.cos(t)
        total += np.sum(ws * lagr) * (b - a) / 2.0
    return total


def volkov_propagator(x, t_f, y, t_i, params: ModelParams):
    """Semiclassical propagator of the driven atom between (y, t_i) and (x, t_f).

    Equals exp(i*S/h) / sqrt(2*pi*i*h*(t_f - t_i)) with S the action
    (:func:`drivendelta.model.volkov_action`) of the path through both
    points.  A real duration takes the principal square root; when the start
    time is truly complex the radicand leaves the imaginary axis and the
    branched sheet of :func:`branched_sqrt` is used.
    The phase a path picks up where it crosses the delta potential at the
    origin is not included: the tunneling paths of the survival amplitude
    do not cross it.
    """
    if t_f == t_i:
        raise ValueError("propagator endpoints coincide in time")
    h = params.h
    s_cl = volkov_action(drive(t_f), drive(t_i), x, y)
    radicand = 2j * math.pi * h * (t_f - t_i)
    if abs(complex(t_f - t_i).imag) > 0.0:
        root = branched_sqrt(radicand)
    else:
        root = np.sqrt(radicand)
    return np.exp(1j * s_cl / h) / root


def _burst_starts(gamma, k):
    """The drive at the starts t_k = t0 + k*pi of the bursts k, as one Drive.

    ``k`` is an int array that broadcasts against gamma.  Closed forms, with
    no trigonometry of t_k: cos t_k = (-1)^k sqrt(1 + gamma^2),
    sin t_k = (-1)^k i*gamma and phi(t_k) = phi(t0) - k*pi/4.
    """
    t0 = tunnel_start_time(gamma)
    sign = 1 - 2 * (k % 2)
    return Drive(t0 + k * math.pi, sign * (1j * gamma),
                 sign * np.sqrt(1.0 + gamma * gamma), drive(t0).phi - 0.25 * math.pi * k)


@dataclass(frozen=True)
class SurvivalAmplitude:
    """Survival amplitude at t_f = 2*pi*n: the bound term and, burst axis first,
    each burst k's zeta, prefactor and packet term prefactor*exp(zeta)."""

    t_f: float
    bound_term: complex
    k: np.ndarray
    zeta: np.ndarray
    prefactor: np.ndarray
    packet_terms: np.ndarray

    @property
    def p(self) -> complex:
        return unbox(self.bound_term + self.packet_terms.sum(axis=0))


# a packet sum's peak memory per burst and grid point, by tracemalloc at
# 1e3 to 1e6 terms: 66 B on grids of many bursts, up to 154 B at one point
_SUM_BYTES_PER_TERM = 160


def survival_amplitude(params: ModelParams, n, include_odd=False) -> SurvivalAmplitude:
    """Bound amplitude plus interfering tunneling packets at t_f = 2*n*pi.

    The burst at t = k*pi contributes

        -4*h / (gamma * branched_sqrt(2*i*pi*h*tau_k)) * exp(zeta_k),
        tau_k = t_f - t0 - k*pi,

    where zeta_k = i*A_k/h - i*e_m*t_k/h collects the classical action
    A_k = model.volkov_action of the packet path from (0, t_k = k*pi + t0)
    to (0, t_f) and the phase of the decaying bound state up to the
    emission time.  Packets with odd k end up displaced by about two units
    and overlap the bound state only weakly; they are skipped unless
    ``include_odd`` is set.  The bursts are one array axis, in front of the
    grid's; a sum too large for the machine's memory is a ValueError.
    """
    n = cycle_count(n)
    g, h = params.gamma, params.h
    grid = np.broadcast(g, params.z)
    step = 1 if include_odd else 2
    if not fits_in_memory(2 * n // step * grid.size * _SUM_BYTES_PER_TERM):
        raise ValueError(f"the packet terms of {n:.3g} cycles do not fit in memory: "
                         "take fewer cycles or fewer grid points")
    t_f = 2.0 * math.pi * n
    e_m = quasi_energy_averaged(params).e_m

    k = np.arange(0, 2 * n, step)
    start = _burst_starts(g, k.reshape(k.shape + (1,) * grid.ndim))
    prefactor = -4.0 * h / (g * branched_sqrt(2j * math.pi * h * (t_f - start.t)))
    zeta = 1j * volkov_action(drive(t_f), start) / h - 1j * e_m * start.t / h
    return SurvivalAmplitude(t_f, unbox(bound_propagator_factor(params, t_f)), k=k,
                             zeta=zeta, prefactor=prefactor,
                             packet_terms=prefactor * np.exp(zeta))


def ionization_rate(params: ModelParams, n, include_odd=False):
    """Rate -(2*pi/t_f) * ln|p|^2 over n cycles: rate_between_cycles(params, 0, n)."""
    return rate_between_cycles(params, 0, n, include_odd=include_odd)


def rate_between_cycles(params: ModelParams, n_first=1, n_last=2,
                        include_odd=False):
    """Per-cycle rate -ln(w(n_last)/w(n_first)) / (n_last - n_first).

    Semiclassical counterpart of the oracle's between-cycles rate; the
    bound-term contribution reduces exactly to 2*pi*D_avg while packet
    interference supplies the channel-closing modulation.  n_first = 0 is
    the single-interval rate; failures are reported as in
    :func:`drivendelta.model.decay_rate`.
    """
    return decay_rate(
        lambda n: np.abs(survival_amplitude(params, n, include_odd=include_odd).p) ** 2,
        n_first, n_last)
