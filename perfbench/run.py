#!/usr/bin/env python3
"""drivendelta benchmark: one workload through the public CLI, timed and checked.

    python3 perfbench/run.py --workload sc_scan --seed 1 --seconds 25 --trace 0

Run it from anywhere; it imports drivendelta from ``src/`` next to this
directory and nowhere else.  The workload's CLI command runs in this
process, through ``drivendelta.cli.main``, again and again until
``--seconds`` have passed; every repetition's outputs are checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
machine, the libraries and the raw samples.  README.md defines every
workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")

GAMMA = 0.7
# the seed shifts a scan grid by (seed % GRID_SHIFTS) / GRID_SHIFTS of a step;
# the oracle reference holds one curve per shift
GRID_SHIFTS = 8
# paper criterion 1: detected modulation period within 2% of 1/(1+2 gamma^2)
PERIOD_TOLERANCE = 0.02
SETUP_REPEATS = 5
# calibration_s() on the machine this benchmark was written on (2-CPU Intel
# Xeon VM, Python 3.11, numpy 2.4) while its host was quiet; the ratio to
# the current calibration converts measured times to reference seconds
REFERENCE_CAL_S = 0.020

WORKLOADS = {
    "sc_scan": {"engine": "semiclassical", "z": (6.0, 20.0, 0.001),
                "cycles": 1},
    "oracle_scan_small": {"engine": "oracle", "z": (0.5, 2.5, 0.05),
                          "cycles": 1},
    "oracle_compare": {"engine": None, "z": (8.0, 8.0, 1.0), "cycles": 2},
}
# a short grid run once before timing, so lazy imports and caches are warm
WARMUP_Z = "1.0:1.2:0.1"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "points_per_s": "1/s", "peak_rss_mb": "MiB", "rate_err": "ratio"}
LAYER_TIMES = ["oracle.solve", "oracle.project", "semiclassical.rate",
               "adiabatic.background", "analysis.scan", "analysis.smooth",
               "cli.emit", "cli.main"]
LAYER_COUNTS = ["oracle.solve.calls", "oracle.solve.steps",
                "oracle.solve.pairs", "oracle.project.calls",
                "semiclassical.rate.calls", "semiclassical.packet_terms",
                "adiabatic.background.calls", "analysis.samples",
                "analysis.missing", "analysis.peaks", "cli.emit.bytes",
                "model.params.calls"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def z_grid(name, seed):
    """(lo, hi, step) of a workload's z grid; the scans shift with the seed."""
    lo, hi, step = WORKLOADS[name]["z"]
    if WORKLOADS[name]["engine"] is not None:
        shift = (seed % GRID_SHIFTS) / GRID_SHIFTS * step
        lo, hi = lo + shift, hi + shift
    return lo, hi, step


def z_points(name, seed):
    lo, hi, step = z_grid(name, seed)
    return int(round((hi - lo) / step)) + 1


def cli_argv(name, seed, stem, z_spec=None):
    work = WORKLOADS[name]
    if z_spec is None:
        z_spec = "{!r}:{!r}:{!r}".format(*z_grid(name, seed))
    common = ["--gamma", repr(GAMMA), "--z", z_spec,
              "--cycles", str(work["cycles"])]
    if work["engine"] is None:
        return ["compare", *common, "--out", stem + ".csv"]
    return ["scan", "--engine", work["engine"], *common,
            "--format", "both", "--out", stem]


def load_reference(name, seed):
    """Committed oracle rates at 4x finer dt on this workload's grid, or None."""
    engine = WORKLOADS[name]["engine"]
    if engine == "semiclassical":
        return None
    path = os.path.join(REFERENCE_DIR, name + ".json")
    if not os.path.isfile(path):
        raise BenchError(f"missing reference {path}; see make_reference.py")
    with open(path) as fh:
        doc = json.load(fh)
    key = "0" if engine is None else str(seed % GRID_SHIFTS)
    return {"gamma": doc["gamma"], "cycles": doc["cycles"],
            "rows": doc["grids"][key]}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def cap_threads():
    """Keep BLAS/OpenMP pools within the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_cli():
    sys.path.insert(0, SRC)
    try:
        import drivendelta.cli
    except ImportError as exc:
        raise BenchError(f"cannot import drivendelta from {SRC}: {exc}")
    where = os.path.abspath(drivendelta.cli.__file__)
    if not where.startswith(SRC + os.sep):
        raise BenchError(f"drivendelta was imported from {where}, not {SRC}")
    return drivendelta.cli


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nproc):
    import numpy
    import scipy

    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": model,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def calibration_s():
    """Seconds for a fixed unit of interpreter and numpy work; best of 3."""
    import numpy

    x = numpy.linspace(0.0, 1.0, 20000)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150000):
            total += i * i
        for _ in range(16):
            numpy.exp(1j * x).sum()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Scales measured times to reference seconds.

    The host's load changes this process's speed by up to 2x within
    seconds.  A calibration before and after each timed interval measures
    the speed it ran at; the interval's time is multiplied by
    ``REFERENCE_CAL_S`` over the mean of the two.  Each calibration ends
    one interval and begins the next, so the work between two timed
    intervals (checking outputs) falls into the next one's calibration
    window but not into its time.
    """

    def __init__(self):
        self.last = calibration_s()

    def scale(self):
        """Reference seconds per measured second since the last call."""
        now = calibration_s()
        scale = REFERENCE_CAL_S / (0.5 * (self.last + now))
        self.last = now
        return scale


def measure_setup(clock):
    """Median time from a fresh interpreter to a built CLI parser, in
    reference seconds."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import drivendelta.cli; drivendelta.cli.build_parser(); "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    # CLOCK_MONOTONIC is shared by all processes, so the child's reading
    # marks the built parser and leaves its exit out of the time
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError("set-up interpreter failed: " + proc.stderr)
        samples.append((float(proc.stdout.split()[-1]) - start) * clock.scale())
    return statistics.median(samples), samples


# ----------------------------------------------------------------------
# one repetition and its checks
# ----------------------------------------------------------------------

class Sample(NamedTuple):
    wall: float     # seconds as measured
    cpu: float
    code: object    # exit code, or the exception that escaped
    stderr: str
    scale: float    # reference seconds per measured second


def run_once(main, argv, clock):
    """Call the CLI once; the clock calibrates after it."""
    err = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a traceback is a failed repetition
        code = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return Sample(wall, cpu, code, err.getvalue(), clock.scale())


def _same_grid(got, want):
    return len(got) == len(want) and all(
        abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(got, want))


def rel_errors(rates, reference_rows):
    return [v / row["rate"] - 1.0 for v, row in zip(rates, reference_rows)]


def check_scan(name, stem, reference):
    """(failed samples, relative errors, problems) of one scan repetition."""
    with open(stem + ".json") as fh:
        doc = json.load(fh)
    raw = [math.nan if v is None else v for v in doc["Gamma_raw"]]
    bad = set(doc["missing_indices"])
    bad.update(i for i, v in enumerate(raw) if not math.isfinite(v))
    problems = []
    if doc["fixed_value"] != GAMMA:
        problems.append(f"scan ran at gamma={doc['fixed_value']}")
    if reference is None:
        # semiclassical: the modulation period is the accuracy guard
        period = 1.0 / (1.0 + 2.0 * GAMMA * GAMMA)
        detected = doc["detected_period"]
        errors = [] if detected is None else [detected["mean"] / period - 1.0]
        if not errors or abs(errors[0]) > PERIOD_TOLERANCE:
            problems.append(f"modulation period off by {errors}")
    else:
        # oracle: the rate is -ln|p|^2 / t, so |p| <= 1 means rate >= 0
        bad.update(i for i, v in enumerate(raw) if v < 0.0)
        want = [row["z"] for row in reference["rows"]]
        if not _same_grid(doc["z"], want) or doc["n_cycles"] != reference["cycles"]:
            problems.append("output grid does not match the reference")
            errors = []
        else:
            errors = rel_errors(raw, reference["rows"])
    return len(bad), errors, problems


def check_compare(stem, reference):
    with open(stem + ".csv", newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]
    bad = sum(1 for row in rows if not all(map(math.isfinite, row.values())))
    problems = []
    want = [row["z"] for row in reference["rows"]]
    if (not _same_grid([row["z"] for row in rows], want)
            or reference["gamma"] != GAMMA
            or any(row["gamma_param"] != GAMMA for row in rows)):
        problems.append("compare grid or gamma does not match the reference")
        return bad, [], problems
    return bad, rel_errors([row["Gamma_oracle"] for row in rows],
                           reference["rows"]), problems


def check(name, stem, reference, points, sample):
    """Failed samples of one repetition, its relative rate errors, and why
    it failed."""
    if sample.code != 0:
        return points, [], [f"exit {sample.code}: {sample.stderr.strip()[-300:]}"]
    try:
        if WORKLOADS[name]["engine"] is None:
            bad, errors, problems = check_compare(stem, reference)
        else:
            bad, errors, problems = check_scan(name, stem, reference)
    except (OSError, ValueError, KeyError) as exc:
        return points, [], [f"unreadable output: {exc}"]
    if problems:
        bad = points
    return min(bad, points), errors, problems


def clear_outputs(stem):
    for suffix in (".csv", ".json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(stem + suffix)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def measure(name, seed, seconds, trace, cli):
    import spans

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}")
    argv = cli_argv(name, seed, stem)
    points = z_points(name, seed)
    reference = load_reference(name, seed)

    clock = Clock()
    run_once(cli.main, cli_argv(name, seed, stem, z_spec=WARMUP_Z), clock)

    tracer = spans.Tracer()
    plain, traced, problems = [], [], []
    attempted = failed = 0
    rate_err = rate_err_max = 0.0
    start = time.perf_counter()
    while True:
        for traced_rep in ((False, True) if trace else (False,)):
            clear_outputs(stem)
            if traced_rep:
                tracer.run = len(traced)
                root = spans.instrument(tracer)
                try:
                    sample = run_once(root, argv, clock)
                finally:
                    tracer.restore()
                traced.append(sample)
            else:
                sample = run_once(cli.main, argv, clock)
                plain.append(sample)
            bad, errors, why = check(name, stem, reference, points, sample)
            attempted += points
            failed += bad
            problems.extend(why)
            # failed samples are counted above; the error is over the rest.
            # Root mean square, not the largest error: the seed moves a
            # scan's grid, and its worst point with it.
            errors = [e for e in errors if math.isfinite(e)]
            if errors:
                rms = math.sqrt(sum(e * e for e in errors) / len(errors))
                rate_err = max(rate_err, rms)
                rate_err_max = max(rate_err_max, max(map(abs, errors)))
        # stop when the next round would end more than half a round late
        elapsed = time.perf_counter() - start
        rounds = len(traced) if trace else len(plain)
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clear_outputs(stem)

    record = {"workload": name, "seed": seed, "argv": argv,
              "seconds": seconds, "trace": trace,
              "measured_wall_samples": [s.wall for s in plain],
              "scales": [s.scale for s in plain],
              "wall_samples": [s.wall * s.scale for s in plain],
              "cpu_samples": [s.cpu * s.scale for s in plain],
              "failed_frac": failed / attempted,
              "rate_err_max": rate_err_max}
    wall = statistics.median(record["wall_samples"])
    if trace:
        metrics = layer_metrics(tracer, traced, wall, problems)
        record["traced_wall_samples"] = [s.wall * s.scale for s in traced]
        tracer.write(stem + ".spans.csv")
    else:
        setup, setup_samples = measure_setup(clock)
        record["setup_samples"] = setup_samples
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "cpu_s": statistics.median(record["cpu_samples"]),
            "points_per_s": points / wall,
            "peak_rss_mb": peak_rss_mb,
            "rate_err": rate_err,
        }
    record["problems"] = sorted(set(problems))[:20]
    units = {**END_TO_END, **layer_units()}
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return record, result


def layer_units():
    units = {f"{layer}.self_s": "s" for layer in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({"oracle.solve.ns_per_pair": "ns", "traced_wall_s": "s",
                  "trace_overhead_s": "s", "trace_unaccounted_s": "s",
                  "trace_spans": "count"})
    return units


def layer_metrics(tracer, traced, plain_wall, problems):
    """Self times of the median traced repetition, and its counts."""
    counts = [dict(tracer.counts[run]) for run in range(len(traced))]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between repetitions")
    walls = [s.wall * s.scale for s in traced]
    mid = sorted(range(len(traced)), key=walls.__getitem__)[(len(traced) - 1) // 2]
    scale = traced[mid].scale
    times = {k: v * scale for k, v in tracer.self_times(mid).items()}
    traced_wall = walls[mid]
    overhead = traced_wall - plain_wall
    unaccounted = traced_wall - sum(times.values())
    if abs(unaccounted) > max(abs(overhead), 1e-3):
        problems.append(f"self times miss {unaccounted:.3g} s of the traced "
                        f"wall time, beyond the overhead {overhead:.3g} s")

    metrics = {f"{layer}.self_s": times.get(layer, 0.0)
               for layer in LAYER_TIMES}
    metrics.update({name: counts[0].get(name, 0) for name in LAYER_COUNTS})
    pairs = counts[0].get("oracle.solve.pairs", 0)
    metrics["oracle.solve.ns_per_pair"] = (
        metrics["oracle.solve.self_s"] / pairs * 1e9 if pairs else 0.0)
    metrics.update({"traced_wall_s": traced_wall, "trace_overhead_s": overhead,
                    "trace_unaccounted_s": unaccounted,
                    "trace_spans": sum(1 for s in tracer.spans if s[0] == mid)})
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    nproc = cap_threads()
    try:
        cli = import_cli()
        facts = machine_facts(nproc)
        if facts["blas_threads"] is not None and facts["blas_threads"] > nproc:
            raise BenchError(f"BLAS runs {facts['blas_threads']} threads "
                             f"on {nproc} CPUs")
        record, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), cli)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record["machine"] = facts
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
