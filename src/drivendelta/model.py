"""Parameter algebra for the driven 1D delta-function atom.

A single bound state of depth ``alpha`` is driven by a monochromatic field
of amplitude ``mu`` and angular frequency ``omega`` (atomic units).  All
dynamics downstream of this module run in transformed units where the field
period is 2*pi and the effective Planck parameter is ``h = omega^3/mu^2``.
The physically meaningful dimensionless pair is the Keldysh factor ``gamma``
and the ponderomotive photon number ``z``.

The parameter algebra accepts arrays as well as scalars: ``from_dimensionless``
on a z grid gives one ModelParams whose fields are arrays, and the rate
formulas downstream evaluate the whole grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteRateError, NumericError

__all__ = [
    "ModelParams",
    "from_physical",
    "from_dimensionless",
    "channel_threshold",
    "volkov_phase",
    "decay_rate",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical triple plus the derived dimensionless set.

    Every field is a float, or an array of one shape for a parameter grid.

    Attributes
    ----------
    alpha, mu, omega : float
        Binding strength, field amplitude, angular frequency (atomic units).
    gamma : float
        Keldysh factor alpha*omega/mu.
    z : float
        Ponderomotive energy over photon energy, mu^2/(4*omega^3).
    h : float
        Effective Planck parameter omega^3/mu^2 = 1/(4*z).
    n_io : float
        Ionization photon number alpha^2/(2*omega) = 2*gamma^2*z.
    """

    alpha: float
    mu: float
    omega: float
    gamma: float
    z: float
    h: float
    n_io: float

    def point(self, i):
        """Point i of a one-dimensional parameter grid, as scalar ModelParams."""
        return ModelParams(**{name: float(value[i]) if np.ndim(value) else value
                              for name, value in vars(self).items()})


def unbox(x):
    """A 0-d numpy result as a Python float or complex; arrays unchanged.

    Lets one array formula serve scalar callers with their scalar types.
    """
    if isinstance(x, (np.ndarray, np.generic)) and x.ndim == 0:
        return x.item()
    return x


def all_true(mask):
    """Whether a comparison holds everywhere, for scalar and array operands."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not all_true(value > 0.0):
            if isinstance(value, np.ndarray):
                value = value[~(value > 0.0)].flat[0].item()
            raise ValueError(f"{name} must be positive, got {name}={value!r}")


def from_physical(alpha, mu, omega):
    """Build ModelParams from the physical triple (atomic units; scalars or arrays)."""
    _require_positive(alpha=alpha, mu=mu, omega=omega)
    gamma = alpha * omega / mu
    z = mu * mu / (4.0 * omega**3)
    h = omega**3 / (mu * mu)
    n_io = alpha * alpha / (2.0 * omega)
    return ModelParams(alpha=alpha, mu=mu, omega=omega,
                       gamma=gamma, z=z, h=h, n_io=n_io)


def from_dimensionless(gamma, z):
    """Build ModelParams from (gamma, z).

    The physical embedding is gauge-free in (gamma, z); we fix omega = 1,
    so mu = 2*sqrt(z) and alpha = gamma*mu.  gamma and z may be arrays
    (broadcast against each other).
    """
    _require_positive(gamma=gamma, z=z)
    omega = 1.0
    mu = unbox(2.0 * omega * np.sqrt(z * omega))
    alpha = gamma * mu / omega
    return from_physical(alpha, mu, omega)


def channel_threshold(k, gamma):
    """Closing value z_k = k/(1 + 2*gamma^2) of channel k (a scalar or an array)."""
    if not all_true((np.floor(k) == k) & (k >= 1)):
        raise ValueError(f"k must be a positive integer, got k={k!r}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got gamma={gamma!r}")
    return k / (1.0 + 2.0 * gamma * gamma)


def volkov_phase(t):
    """Volkov phase phi(t) = (sin t cos t - t)/4 of the drive; t may be complex.

    The classical action of the driven free motion from (y, t_i) to (x, t_f)
    is phi(t_f) - phi(t_i) + x*sin(t_f) - y*sin(t_i)
    + (x - y + cos t_f - cos t_i)^2 / (2*(t_f - t_i)).
    """
    return 0.25 * (np.sin(t) * np.cos(t) - t)


def rate_failure(rate):
    """The engine error behind a non-finite rate; +inf is a vanished probability."""
    if rate == math.inf:
        return InfiniteRateError("survival amplitude vanished; rate diverges")
    return NumericError(f"survival probability is not finite; rate is {rate}")


def decay_rate(probability, n_first, n_last):
    """Per-cycle decay rate -ln(w(n_last)/w(n_first)) / (n_last - n_first).

    ``probability(n)`` is the survival probability w(n) = |p|^2 after n
    whole cycles (a float, or an array over a parameter grid).  w(0) = 1, so
    n_first = 0 gives the single-interval rate -(2*pi/t_f) * ln|p|^2.  A
    scalar rate is a float and raises InfiniteRateError where a probability
    is zero, NumericError where it is otherwise not finite; a grid rate is
    an array that is not finite at such points.
    """
    if not (int(n_first) == n_first and int(n_last) == n_last
            and 0 <= n_first < n_last):
        raise ValueError("need integers 0 <= n_first < n_last, "
                         f"got n_first={n_first!r}, n_last={n_last!r}")
    with np.errstate(all="ignore"):
        w_first = probability(n_first) if n_first else 1.0
        w_last = probability(n_last)
        rate = -np.log(np.divide(w_last, w_first)) / (n_last - n_first)
    if isinstance(rate, np.ndarray) and rate.ndim:
        return rate
    if w_first == 0.0 or w_last == 0.0:
        rate = math.inf  # a vanished probability, whatever the other one is
    if not math.isfinite(rate):
        raise rate_failure(rate)
    return float(rate)
