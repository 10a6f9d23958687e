"""Ionization rates of a driven 1D delta-function atom.

Two independent routes to the same observable: the complex-time
wave-packet interference formula (:mod:`drivendelta.semiclassical`) and an
exact Volterra-integral-equation solver (:mod:`drivendelta.oracle`), with
shared parameter algebra, adiabatic WKB rates, and rate-curve analysis.
"""

__version__ = "0.1.0"
