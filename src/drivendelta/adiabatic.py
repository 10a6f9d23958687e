"""Adiabatic (WKB) ionization rates, AC-Stark shift and complex quasi-energy.

The instantaneous tunneling rate through the field-tilted barrier is

    D(eta) = (gamma^2/h) * exp(-2*gamma^3 / (3*eta*h)),   eta = |cos t|,

whose cycle average concentrates at the field maxima for small h.  The
decaying bound state is encoded by a complex quasi-energy whose imaginary
part is -h*D/2; adaptive quadrature of the cycle average cross-checks the
saddle-point value.  The rate, shift and quasi-energy formulas accept
ModelParams with array fields (a parameter grid) as well as scalar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import ModelParams, all_true, power, unbox

__all__ = [
    "QuasiEnergy",
    "rate_instantaneous",
    "rate_cycle_averaged",
    "cycle_average_quadrature",
    "stark_shift",
    "stark_shift_averaged",
    "quasi_energy_averaged",
    "bound_propagator_factor",
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
    return unbox((g * g / h) * np.exp(-2.0 * power(g, 3) / (3.0 * eta * h)))


def rate_cycle_averaged(params: ModelParams):
    """Cycle-averaged rate: saddle-point value sqrt(3h/(pi gamma^3)) * D(1)."""
    g, h = params.gamma, params.h
    return unbox(np.sqrt(3.0 * h / (math.pi * power(g, 3)))
                 * rate_instantaneous(params, 1.0))


def cycle_average_quadrature(params: ModelParams):
    """Cycle average (1/2pi) * integral of D(|cos t|) over one period.

    Adaptive quadrature reference for :func:`rate_cycle_averaged`; the two
    agree to O(h).  Raises NumericError if the error estimate exceeds 1e-10
    relative to the result.
    """
    from scipy.integrate import quad

    def integrand(t):
        eta = abs(math.cos(t))
        if eta < _ETA_FLOOR:
            return 0.0
        return rate_instantaneous(params, eta)

    val, err = quad(integrand, 0.0, 2.0 * math.pi,
                    points=[0.5 * math.pi, math.pi, 1.5 * math.pi],
                    limit=200, epsabs=0.0, epsrel=1e-12)
    mean = val / (2.0 * math.pi)
    if not math.isfinite(mean) or err > 1e-10 * abs(val):
        raise NumericError(
            f"cycle-average quadrature did not converge: value={mean!r}, "
            f"error estimate={err / (2.0 * math.pi)!r}")
    return mean


def stark_shift(params: ModelParams, eta):
    """Instantaneous AC-Stark shift -5*h^2*eta^2/(8*gamma^4), eta in [0, 1]."""
    if not all_true((eta >= 0.0) & (eta <= 1.0)):
        raise ValueError(f"eta must lie in [0, 1], got eta={eta!r}")
    g, h = params.gamma, params.h
    return -5.0 * h * h * eta * eta / (8.0 * power(g, 4))


def stark_shift_averaged(params: ModelParams):
    """Cycle-averaged Stark shift; exactly half the full-field value."""
    return 0.5 * stark_shift(params, 1.0)


def quasi_energy_averaged(params: ModelParams) -> QuasiEnergy:
    """Cycle-averaged quasi-energy; valid for propagation over whole cycles."""
    return QuasiEnergy(
        e0=-0.5 * power(params.gamma, 2),
        e_ac=stark_shift_averaged(params),
        e_i=-0.5j * params.h * rate_cycle_averaged(params),
    )


def bound_propagator_factor(params: ModelParams, t_end):
    """Phase/decay factor exp(-i*E_avg*t_end/h) of the bound part from t = 0.

    Durations may be complex (analytic continuation onto the tunneling
    contour); for a real duration t the squared modulus is exp(-D_avg*t).
    """
    e_m = quasi_energy_averaged(params).e_m
    return np.exp(-1j * e_m * t_end / params.h)

