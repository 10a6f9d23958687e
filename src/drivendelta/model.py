"""Parameter algebra for the driven 1D delta-function atom.

A single bound state of depth ``alpha`` is driven by a monochromatic field
of amplitude ``mu`` and angular frequency ``omega`` (atomic units).  All
dynamics downstream of this module run in transformed units where the field
period is 2*pi and the effective Planck parameter is ``h = omega^3/mu^2``.
The physically meaningful dimensionless pair is the Keldysh factor ``gamma``
and the ponderomotive photon number ``z``; ModelParams holds that pair, and
h = 1/(4*z) follows from it.

The parameter algebra accepts arrays as well as scalars: ``from_dimensionless``
on a z grid gives one ModelParams whose z is an array (gamma too, unless it
is fixed), and the rate formulas downstream evaluate the whole grid in one
call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "from_physical",
    "from_dimensionless",
    "Drive",
    "drive",
    "volkov_action",
    "failure_reason",
    "decay_rate",
]


@dataclass(frozen=True)
class ModelParams:
    """The dimensionless pair every engine reads.

    Each field is a float, or an array for a parameter grid; a fixed gamma
    stays one float on a z grid.

    Attributes
    ----------
    gamma : float
        Keldysh factor alpha*omega/mu.
    z : float
        Ponderomotive energy over photon energy, mu^2/(4*omega^3).
    """

    gamma: float
    z: float

    @property
    def h(self):
        """Effective Planck parameter omega^3/mu^2 = 1/(4*z)."""
        return 0.25 / self.z

    def point(self, i):
        """Point i of a one-dimensional parameter grid, as scalar ModelParams."""
        return ModelParams(*(float(value[i]) if np.ndim(value) else value
                             for value in (self.gamma, self.z)))


def unbox(x):
    """A 0-d numpy result as a Python float or complex; arrays unchanged.

    Lets one array formula serve scalar callers with their scalar types.
    """
    if isinstance(x, (np.ndarray, np.generic)) and x.ndim == 0:
        return x.item()
    return x


def power(x, k):
    """x**k, bit for bit, for a float or an array; inf where it overflows,
    where a Python float's ** raises OverflowError."""
    with np.errstate(over="ignore"):
        return unbox(np.float64(x) ** k)


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
    """ModelParams of the physical triple (atomic units; scalars or arrays):
    gamma = alpha*omega/mu and z = mu^2/(4*omega^3)."""
    _require_positive(alpha=alpha, mu=mu, omega=omega)
    return from_dimensionless(alpha * omega / mu, mu * mu / (4.0 * omega**3))


def from_dimensionless(gamma, z):
    """ModelParams of (gamma, z), stored as given once both are positive.

    gamma and z may be scalars or arrays; a scalar is kept as one.
    """
    _require_positive(gamma=gamma, z=z)
    return ModelParams(gamma=gamma, z=z)


class Drive(NamedTuple):
    """One endpoint of a driven path: its time and the drive there."""

    t: object
    sin: object
    cos: object
    phi: object


def drive(t, driven=True):
    """The endpoint record of time t: t, sin t, cos t and the Volkov phase.

    phi(t) = (sin t cos t - t)/4.  t may be complex, or an array.  With
    ``driven`` False the field is off: sin, cos and phi are zero, and
    :func:`volkov_action` is the free action.
    """
    if not driven:
        zero = np.zeros_like(t)
        return Drive(t, zero, zero, zero)
    sin, cos = np.sin(t), np.cos(t)
    return Drive(t, sin, cos, 0.25 * (sin * cos - t))


def volkov_action(end, start, x=0.0, y=0.0):
    """Classical action of the driven free motion from (y, start.t) to (x, end.t).

    ``end`` and ``start`` are :func:`drive` records; the action is
    phi_f - phi_i + x sin t_f - y sin t_i
    + (x - y + cos t_f - cos t_i)^2 / (2 (t_f - t_i)).
    """
    return (end.phi - start.phi + x * end.sin - y * start.sin
            + (x - y + end.cos - start.cos) ** 2 / (2.0 * (end.t - start.t)))


def failure_reason(rate):
    """Why a rate is not finite; +inf is a vanished probability."""
    if rate == math.inf:
        return "survival amplitude vanished; rate diverges"
    return f"survival probability is not finite; rate is {rate}"


def cycle_count(value, name="n", least=1):
    """``value`` as an int count of whole cycles, at least ``least``; a bool, a
    string, a fraction, nan, inf or a count of 2**1023 or more (2*pi*n
    overflows there) is the one ValueError of every cycle count."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not least <= value < 2**1023 or not float(value).is_integer()):
        raise ValueError(f"{name} must be an integer >= {least}, got {name}={value!r}")
    return int(value)


def decay_rate(probability, n_first, n_last):
    """Per-cycle decay rate -ln(w(n_last)/w(n_first)) / (n_last - n_first).

    ``probability(n)`` is the survival probability w(n) = |p|^2 after n
    whole cycles (a float, or an array over a parameter grid).  w(0) = 1, so
    n_first = 0 gives the single-interval rate -(2*pi/t_f) * ln|p|^2.  The
    rate is a float, or an array over the grid.  A failed point is not an
    exception but a rate that is not finite (see :func:`failure_reason`):
    +inf where either probability vanished, 0/0 included.
    """
    n_first, n_last = cycle_count(n_first, "n_first", 0), cycle_count(n_last, "n_last")
    if n_first >= n_last:
        raise ValueError(f"need n_first < n_last, got n_first={n_first}, n_last={n_last}")
    with np.errstate(all="ignore"):
        w_first = probability(n_first) if n_first else 1.0
        w_last = probability(n_last)
        # + 0.0: where w_last == w_first, -log(1) is -0.0, which prints as -0
        rate = -np.log(np.divide(w_last, w_first)) / (n_last - n_first) + 0.0
    return unbox(np.where((w_first == 0.0) | (w_last == 0.0), np.inf, rate))
