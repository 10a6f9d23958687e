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

__all__ = [
    "ModelParams",
    "GroundState",
    "from_physical",
    "from_dimensionless",
    "ground_state",
    "channel_threshold",
    "energy_balance",
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


@dataclass(frozen=True)
class GroundState:
    """The single bound state in transformed units.

    ``psi0(x) = norm_coeff * exp(-gamma*|x|/h)`` with energy ``-gamma^2/2``.
    """

    energy: float
    norm_coeff: float
    gamma: float
    h: float

    def wavefunction(self, x):
        import numpy as np

        return self.norm_coeff * np.exp(-(self.gamma / self.h) * np.abs(x))


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


def ground_state(params: ModelParams) -> GroundState:
    """Bound state of the undriven atom in transformed units."""
    return GroundState(
        energy=-0.5 * params.gamma**2,
        norm_coeff=math.sqrt(params.gamma / params.h),
        gamma=params.gamma,
        h=params.h,
    )


def channel_threshold(k, gamma):
    """Closing value z_k = k/(1 + 2*gamma^2) of the k-photon channel."""
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got k={k!r}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got gamma={gamma!r}")
    return k / (1.0 + 2.0 * gamma * gamma)


def energy_balance(k, gamma, z):
    """Residual kinetic energy (units of the photon energy) of channel k.

    Positive for an open channel, zero exactly at z = z_k, negative when
    the channel is ponderomotively closed.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got k={k!r}")
    return k - 2.0 * gamma * gamma * z - z
