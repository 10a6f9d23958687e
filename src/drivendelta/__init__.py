"""Ionization rates of a driven 1D delta-function atom.

Two independent routes to the same observable: the complex-time
wave-packet interference formula (:mod:`drivendelta.semiclassical`) and an
exact Volterra-integral-equation solver (:mod:`drivendelta.oracle`), with
shared parameter algebra, adiabatic WKB rates, and rate-curve analysis.
"""

from .adiabatic import (
    QuasiEnergy,
    bound_propagator_factor,
    cycle_average_quadrature,
    quasi_energy_averaged,
    rate_cycle_averaged,
    rate_instantaneous,
    stark_shift,
    stark_shift_averaged,
)
from .analysis import (
    RateScan,
    appendix_c_demo,
    barrier_traversal_time,
    modulation_period,
    savitzky_golay,
    scan_rate,
    windowed_background_mean,
    wkb_background,
    write_scan_csv,
    write_scan_json,
)
from .model import (
    GroundState,
    ModelParams,
    channel_threshold,
    energy_balance,
    from_dimensionless,
    from_physical,
    ground_state,
)
from .oracle import (
    VolterraGrid,
    default_time_step,
    erfc_complex,
    erfcx_complex,
    load_checkpoint,
    rate_between_cycles as oracle_rate_between_cycles,
    rate_from_oracle,
    save_checkpoint,
    solve_boundary_function,
    survival_probability,
)
from .semiclassical import (
    ComplexPath,
    SurvivalAmplitude,
    action,
    action_by_quadrature,
    branched_sqrt,
    ionization_rate,
    make_path,
    rate_between_cycles as semiclassical_rate_between_cycles,
    survival_amplitude,
    tunnel_start_time,
    volkov_propagator,
)

__version__ = "0.1.0"
