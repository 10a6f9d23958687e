"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The oracle-backed
criteria take a few minutes; everything else completes in seconds.

Criterion 7 compares the two engines in the regime its wording pins down
(whole-cycle projections at n in {1, 2}).  The exact solver shows that the
first cycles are dominated by the one-time switch-on redistribution (the
bare bound state is not the field-dressed state), which the adiabatic
wave-packet theory models only partially.  Where that transient has died
out (verified at z = 10 with later-cycle baselines, see
test_criterion_7_supplement) the two methods agree well inside the stated
tolerances; at the stated short baselines the largest-z points do not.
The criterion is asserted as stated and its failure there is expected and
analyzed rather than masked.
"""

import functools
import math

import numpy as np

from drivendelta.adiabatic import (
    cycle_average_quadrature,
    rate_cycle_averaged,
)
from drivendelta.analysis import (
    appendix_c_demo,
    engine_rates,
    modulation_offset,
    modulation_period,
    scan_rate,
    wkb_background,
)
from drivendelta.model import from_dimensionless
from drivendelta.oracle import (
    default_time_step,
    solve_boundary_function,
    survival_probability,
)
from drivendelta.semiclassical import (
    action_by_quadrature,
    survival_amplitude,
    tunnel_start_time,
)
from drivendelta.adiabatic import quasi_energy_averaged

GAMMA = 0.7
PERIOD = 1.0 / (1.0 + 2.0 * GAMMA**2)


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    return ok


@functools.lru_cache(maxsize=None)
def _scan(n_cycles):
    z = np.arange(6.0, 20.0 + 0.005, 0.01)
    return scan_rate("semiclassical", "fixed_gamma", GAMMA, z,
                     n_cycles=n_cycles)


# ----------------------------------------------------------------------
# 1. modulation period
# ----------------------------------------------------------------------

def test_criterion_1_modulation_period():
    scan = _scan(1)
    mean, std = modulation_period(scan)
    expected = PERIOD
    ok = abs(mean / expected - 1.0) <= 0.02
    assert _verdict(1, ok,
                    f"peak spacing {mean:.6f} +- {std:.4f} vs {expected:.6f} "
                    f"(deviation {abs(mean / expected - 1):.2%}, tol 2%)")


# ----------------------------------------------------------------------
# 2. background identity
# ----------------------------------------------------------------------

def test_criterion_2_background(windowed_background_mean):
    # algebraic identity: the bound term alone decays at exactly 2*pi*D_avg.
    # The exp->log round trip floors at eps/(D_avg*t_f), so the 1e-12
    # relative check is made where a double can represent it (z <= 14 here;
    # at z = 20 the decay per cycle is ~5e-7 and the floor is ~2e-10).
    worst_identity = 0.0
    for z in (6.0, 10.0, 14.0):
        params = from_dimensionless(GAMMA, z)
        amp = survival_amplitude(params, 1)
        g_bound = -(2.0 * math.pi / amp.t_f) * math.log(abs(amp.bound_term) ** 2)
        rel = abs(g_bound / (2.0 * math.pi * rate_cycle_averaged(params)) - 1.0)
        worst_identity = max(worst_identity, rel)
    identity_ok = worst_identity <= 1e-12

    # window average of the full curve tracks the WKB background for z >= 8
    scan = _scan(1)
    back_est = windowed_background_mean(scan.z_values, scan.gamma_raw, PERIOD)
    back_wkb = np.array([wkb_background(GAMMA, z) for z in scan.z_values])
    mask = (scan.z_values >= 8.0) & np.isfinite(back_est)
    dev = np.abs(back_est[mask] / back_wkb[mask] - 1.0)
    window_ok = bool(np.max(dev) <= 0.30)
    ok = identity_ok and window_ok
    assert _verdict(2, ok,
                    f"bound-term identity rel err {worst_identity:.2e} "
                    f"(tol 1e-12); window-averaged curve within "
                    f"{np.max(dev):.1%} of 2*pi*D_avg for z >= 8 (tol 30%)")


# ----------------------------------------------------------------------
# 3. packet exponents vs contour-integrated action
# ----------------------------------------------------------------------

def test_criterion_3_zeta_vs_action():
    worst = 0.0
    for gamma in (0.7, 1.1):
        for z in (5.0, 10.0):
            params = from_dimensionless(gamma, z)
            e_m = quasi_energy_averaged(params).e_m
            t0 = tunnel_start_time(gamma)
            amp = survival_amplitude(params, 2, include_odd=True)
            for k, zeta in zip(amp.k, amp.zeta):
                start = t0 + k * math.pi
                s_num = action_by_quadrature(start, amp.t_f)
                zeta_num = (1j * s_num - 1j * e_m * start) / params.h
                worst = max(worst, abs(zeta - zeta_num) / abs(zeta_num))
    ok = worst <= 1e-8
    assert _verdict(3, ok,
                    f"max rel deviation {worst:.2e} over gamma in {{0.7,1.1}}, "
                    f"z in {{5,10}}, k in {{0..3}} (tol 1e-8)")


# ----------------------------------------------------------------------
# 4. complex-time identities
# ----------------------------------------------------------------------

def test_criterion_4_complex_time_identities():
    worst = 0.0
    for gamma in np.linspace(0.005, 5.0, 200):
        t0 = tunnel_start_time(gamma)
        scale = 1.0 + gamma * gamma
        worst = max(worst,
                    abs(np.cos(t0) - math.sqrt(1.0 + gamma**2)) / scale,
                    abs(np.sin(t0) - 1j * gamma) / scale)
    demo = appendix_c_demo()
    demo_err = abs(demo - 1j * math.pi)
    ok = worst <= 1e-14 and demo_err <= 1e-10
    assert _verdict(4, ok,
                    f"cos/sin(t0) identities max err {worst:.1e} (tol 1e-14); "
                    f"barrier time {demo:.12g} vs i*pi, err {demo_err:.1e} "
                    f"(tol 1e-10)")


# ----------------------------------------------------------------------
# 5. saddle-point consistency
# ----------------------------------------------------------------------

def test_criterion_5_saddle_consistency():
    ratios = []
    for h in (0.05, 0.025, 0.0125):
        params = from_dimensionless(GAMMA, 1.0 / (4.0 * h))
        ratios.append(rate_cycle_averaged(params)
                      / cycle_average_quadrature(params))
    monotone = ratios[0] > ratios[1] > ratios[2] > 1.0
    in_band = 0.9 <= ratios[2] <= 1.1
    ok = monotone and in_band
    assert _verdict(5, ok,
                    "saddle/quadrature ratios "
                    + ", ".join(f"{r:.4f}" for r in ratios)
                    + " over h = 0.05, 0.025, 0.0125 "
                    "(monotone to 1, final in [0.9, 1.1])")


# ----------------------------------------------------------------------
# 6. oracle sanity
# ----------------------------------------------------------------------

def test_criterion_6_oracle_sanity():
    # field-off unitarity over ten cycles at converged step
    params_off = from_dimensionless(GAMMA, 0.5)
    grid = solve_boundary_function(
        params_off, 10,
        dt=default_time_step(params_off, factor=160.0), driven=False)
    _, w_off = survival_probability(grid, 10)
    unitarity = abs(math.sqrt(w_off) - 1.0)
    unitarity_ok = unitarity <= 1e-6

    # self-convergence under step halving with a stable empirical order
    orders = []
    bounded = True
    for z in (5.0, 8.0):
        params = from_dimensionless(GAMMA, z)
        ps = []
        for factor in (20.0, 40.0, 80.0):
            g = solve_boundary_function(params, 1,
                                        dt=default_time_step(params, factor))
            p, w = survival_probability(g, 1)
            ps.append(p)
            bounded = bounded and (w <= 1.0 + 10.0 * 1e-5)
        d1, d2 = abs(ps[0] - ps[1]), abs(ps[1] - ps[2])
        orders.append(math.log2(d1 / d2))
    order_ok = all(1.0 <= o <= 4.0 for o in orders) \
        and abs(orders[0] - orders[1]) < 1.5
    ok = unitarity_ok and order_ok and bounded
    assert _verdict(6, ok,
                    f"field-off | |p|-1 | = {unitarity:.2e} over 10 cycles "
                    f"(tol 1e-6); empirical orders "
                    + ", ".join(f"{o:.2f}" for o in orders)
                    + f"; norm bound {'held' if bounded else 'violated'}")


# ----------------------------------------------------------------------
# 7. cross-method agreement
# ----------------------------------------------------------------------

def _window_agreement(z_star, n_first=1, n_last=2):
    """Window mean ratio oracle/semiclassical, modulation peak offset, and
    whether both are within criterion 7's tolerances, from the rates
    (cycles n_first -> n_last) of both engines across +-0.4 around z_star,
    computed as `compare` computes them."""
    z = np.round(np.arange(z_star - 0.4, z_star + 0.4001, 0.1), 9)
    params = from_dimensionless(GAMMA, z)
    (sc, sc_failed), (orc, orc_failed) = (
        engine_rates(engine, params, n_first, n_last)
        for engine in ("semiclassical", "oracle"))
    assert not sc_failed and not orc_failed, (sc_failed, orc_failed)
    ratio = float(np.mean(orc) / np.mean(sc))
    offset = modulation_offset(z, sc, orc, PERIOD)
    return ratio, offset, 0.5 <= ratio <= 2.0 and abs(offset) <= 0.1


def test_criterion_7_cross_method():
    details = []
    ok = True
    for z_star in (8.0, 10.0, 12.0, 14.0):
        ratio, offset, point_ok = _window_agreement(z_star)
        ok = ok and point_ok
        details.append(f"z={z_star:g}: ratio={ratio:.2f}, "
                       f"peak offset={offset:+.3f}{'' if point_ok else ' <-'}")
    assert _verdict(7, ok,
                    "cycle-smoothed (cycles 1->2) oracle vs semiclassical, "
                    "tolerances [0.5,2] and 0.1 | " + "; ".join(details))


def test_criterion_7_supplement_steady_state_z10():
    """Criterion 7's window at z = 10 over cycles 3 -> 5, past the switch-on
    transient, within the criterion's tolerances.

    Not an acceptance criterion by itself, and not a sign that the engines
    agree.  Its 0.1 grid aliases harmonic 4 of the semiclassical per-cycle
    rate onto a period next to the fundamental's, so the fit's +0.071
    offset is the phase of aliased harmonic 4: over 801 points of the same
    window the semiclassical fundamental is 0.021 of the background
    (README, criterion 7).
    """
    ratio, offset, ok = _window_agreement(10.0, 3, 5)
    print(f"\nACCEPTANCE 7 supplement: steady-state z=10 ratio={ratio:.2f}, "
          f"peak offset={offset:+.3f} -> {'PASS' if ok else 'FAIL'}")
    assert ok


# ----------------------------------------------------------------------
# 8. threshold regularity
# ----------------------------------------------------------------------

def test_criterion_8_threshold_regularity():
    scan = _scan(1)
    finite = bool(np.all(np.isfinite(scan.gamma_raw)))
    bounded = float(np.max(np.abs(scan.gamma_raw)))
    # continuity: increments stay small through every threshold
    max_jump = float(np.max(np.abs(np.diff(scan.gamma_raw))))
    ok = finite and bounded < 1.0 and max_jump < 0.02
    assert _verdict(8, ok,
                    f"scan finite={finite}, max|Gamma|={bounded:.3g}, "
                    f"max step-to-step jump {max_jump:.2e} across "
                    f"{scan.thresholds.size} thresholds")


# ----------------------------------------------------------------------
# 9. fine structure
# ----------------------------------------------------------------------

def _extrema_count(series):
    d = np.diff(series)
    return int(np.sum(d[1:] * d[:-1] < 0.0))


def test_criterion_9_fine_structure():
    n1 = _extrema_count(_scan(1).gamma_raw)
    n2 = _extrema_count(_scan(2).gamma_raw)
    ok = n2 > n1
    assert _verdict(9, ok,
                    f"local extrema per scan: n=1 cycle {n1}, n=2 cycles {n2} "
                    "(strictly more structure at n=2)")
