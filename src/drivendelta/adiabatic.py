"""Adiabatic (WKB) ionization rates, AC-Stark shift and complex quasi-energy.

The instantaneous tunneling rate through the field-tilted barrier is

    D(eta) = (gamma^2/h) * exp(-2*gamma^3 / (3*eta*h)),   eta = |cos t|,

whose cycle average concentrates at the field maxima for small h.  The
decaying bound state is encoded by a complex quasi-energy whose imaginary
part is -h*D/2, and a generic saddle-point evaluator provides the
asymptotics cross-check.  The rate, shift and quasi-energy formulas accept
ModelParams with array fields (a parameter grid) as well as scalar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateSaddleError, NumericError
from .model import ModelParams, all_true, unbox

__all__ = [
    "QuasiEnergy",
    "rate_instantaneous",
    "rate_cycle_averaged",
    "cycle_average_quadrature",
    "stark_shift",
    "stark_shift_averaged",
    "quasi_energy",
    "quasi_energy_averaged",
    "bound_propagator_factor",
    "saddle_point_integral",
]

# |cos t| below this is treated as exactly zero field (rate underflows anyway)
_ETA_FLOOR = 1e-300


@dataclass(frozen=True)
class QuasiEnergy:
    """Complex adiabatic energy E = e0 + e_ac + e_i of the decaying bound state.

    ``e_i`` is purely imaginary with negative imaginary part whenever the
    field is on: Im(e_i) = -h*D/2 encodes the decay at rate D.
    """

    e0: float
    e_ac: float
    e_i: complex

    @property
    def e_m(self) -> complex:
        return self.e0 + self.e_ac + self.e_i


def rate_instantaneous(params: ModelParams, eta):
    """Tunneling rate D(eta) at instantaneous field fraction eta in (0, 1]."""
    if not all_true(eta > 0.0):
        raise ValueError(f"eta must be positive, got eta={eta!r}")
    g, h = params.gamma, params.h
    return unbox((g * g / h) * np.exp(-2.0 * g**3 / (3.0 * eta * h)))


def rate_cycle_averaged(params: ModelParams):
    """Cycle-averaged rate: saddle-point value sqrt(3h/(pi gamma^3)) * D(1)."""
    g, h = params.gamma, params.h
    return unbox(np.sqrt(3.0 * h / (math.pi * g**3))
                 * rate_instantaneous(params, 1.0))


def cycle_average_quadrature(params: ModelParams, rel_tol=1e-10):
    """Cycle average (1/2pi) * integral of D(|cos t|) over one period.

    Adaptive quadrature reference for :func:`rate_cycle_averaged`; the two
    agree to O(h).  Raises NumericError if the error estimate exceeds
    ``rel_tol`` relative to the result.
    """
    def integrand(t):
        eta = abs(math.cos(t))
        if eta < _ETA_FLOOR:
            return 0.0
        return rate_instantaneous(params, eta)

    val, err = quad(integrand, 0.0, 2.0 * math.pi,
                    points=[0.5 * math.pi, math.pi, 1.5 * math.pi],
                    limit=200, epsabs=0.0, epsrel=1e-12)
    mean = val / (2.0 * math.pi)
    if not math.isfinite(mean) or err > rel_tol * abs(val):
        raise NumericError(
            f"cycle-average quadrature did not converge: value={mean!r}, "
            f"error estimate={err / (2.0 * math.pi)!r}")
    return mean


def stark_shift(params: ModelParams, eta):
    """Instantaneous AC-Stark shift -5*h^2*eta^2/(8*gamma^4), eta in [0, 1]."""
    if not all_true((eta >= 0.0) & (eta <= 1.0)):
        raise ValueError(f"eta must lie in [0, 1], got eta={eta!r}")
    g, h = params.gamma, params.h
    return -5.0 * h * h * eta * eta / (8.0 * g**4)


def stark_shift_averaged(params: ModelParams):
    """Cycle-averaged Stark shift; exactly half the full-field value."""
    return 0.5 * stark_shift(params, 1.0)


def quasi_energy(params: ModelParams, eta) -> QuasiEnergy:
    """Instantaneous complex quasi-energy at field fraction eta in (0, 1]."""
    d = rate_instantaneous(params, eta)
    return QuasiEnergy(
        e0=-0.5 * params.gamma**2,
        e_ac=stark_shift(params, eta),
        e_i=-0.5j * params.h * d,
    )


def quasi_energy_averaged(params: ModelParams) -> QuasiEnergy:
    """Cycle-averaged quasi-energy; valid for propagation over whole cycles."""
    return QuasiEnergy(
        e0=-0.5 * params.gamma**2,
        e_ac=stark_shift_averaged(params),
        e_i=-0.5j * params.h * rate_cycle_averaged(params),
    )


def bound_propagator_factor(params: ModelParams, t_end, t_start=0.0):
    """Phase/decay factor exp(-i*E_avg*(t_end - t_start)/h) of the bound part.

    Durations may be complex (analytic continuation onto the tunneling
    contour); for a real duration t the squared modulus is exp(-D_avg*t).
    """
    e_m = quasi_energy_averaged(params).e_m
    return np.exp(-1j * e_m * (t_end - t_start) / params.h)


def _second_derivative(f, t0):
    # central difference with cube-root-of-eps step scaling
    step = (np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, abs(t0))
    return (f(t0 + step) - 2.0 * f(t0) + f(t0 - step)) / (step * step)


def saddle_point_integral(f, g, h_param, stationary_points, f2=None,
                          mode="descent"):
    """Leading-order saddle-point value of an exponential integral.

    mode="descent" approximates  integral g(t)*exp(-f(t)/h) dt  by

        sum_j sqrt(2*pi*h / f''(t_j)) * g(t_j) * exp(-f(t_j)/h)

    over the supplied stationary points; mode="stationary_phase" is the
    oscillatory analog with exp(+i*f/h) and sqrt(2*pi*i*h/f'').

    Parameters
    ----------
    f, g : callables
        Exponent and prefactor functions.
    h_param : float
        Small parameter.
    stationary_points : sequence
        Locations t_j with f'(t_j) = 0 (minima for descent).
    f2 : sequence, optional
        Second derivatives f''(t_j); finite differences are used when
        omitted.
    """
    if mode not in ("descent", "stationary_phase"):
        raise ValueError(f"unknown mode {mode!r}")
    points = list(stationary_points)
    if f2 is None:
        f2 = [_second_derivative(f, t0) for t0 in points]
    total = 0.0 + 0.0j
    for t0, d2 in zip(points, f2):
        if d2 == 0.0:
            raise DegenerateSaddleError(
                f"vanishing second derivative at stationary point {t0!r}")
        if mode == "descent":
            total += np.sqrt(2.0 * np.pi * h_param / d2) * g(t0) * np.exp(-f(t0) / h_param)
        else:
            total += np.sqrt(2.0j * np.pi * h_param / d2) * g(t0) * np.exp(1j * f(t0) / h_param)
    if total.imag == 0.0:
        return total.real
    return total
