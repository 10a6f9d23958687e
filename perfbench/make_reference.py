#!/usr/bin/env python3
"""Generate the oracle references that the benchmark's rate_err reads.

    python3 perfbench/make_reference.py oracle_compare oracle_scan_small

For every point of a workload's grid (every seed shift, for the scan) the
oracle is solved with the step rule's default factor times 4, that is at a
4x finer dt than the workload uses.  Each row records z, the rate, the
actual dt, the steps n and the kernel pairs; the file records the source
commit.  Writes ``reference/<workload>.json``.  It takes minutes, so it is
run once and its output committed; run.py never recomputes it.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys
import time

import run
import spans

FINER = 4


def source_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def reference_rows(name, seed, cli, factor):
    from drivendelta import model, oracle

    spec = "{!r}:{!r}:{!r}".format(*run.z_grid(name, seed))
    cycles = run.WORKLOADS[name]["cycles"]
    tracer = spans.Tracer()
    spans.instrument(tracer)
    rows = []
    try:
        for index, z in enumerate(cli.range_values(*cli.parse_range(spec))):
            tracer.run = index
            params = model.from_dimensionless(run.GAMMA, float(z))
            dt = oracle.default_time_step(params, factor=factor)
            if run.WORKLOADS[name]["engine"] is None:
                rate = oracle.rate_between_cycles(params, 1, cycles, dt=dt)
            else:
                rate = oracle.rate_from_oracle(params, cycles, dt=dt)
            n = tracer.counts[index]["oracle.solve.steps"]
            rows.append({"z": float(z), "rate": rate,
                         "dt": 2.0 * math.pi * cycles / n, "n": n,
                         "pairs": tracer.counts[index]["oracle.solve.pairs"]})
            print(f"{name} z={z:.6g} n={n} rate={rate:.12g}", flush=True)
    finally:
        tracer.restore()
    return rows


def main(names):
    run.cap_threads()
    cli = run.import_cli()
    from drivendelta import oracle

    default = inspect.signature(oracle.default_time_step).parameters["factor"]
    factor = FINER * default.default
    for name in names:
        engine = run.WORKLOADS[name]["engine"]
        if engine == "semiclassical":
            raise SystemExit(f"{name} has no oracle reference")
        shifts = range(1) if engine is None else range(run.GRID_SHIFTS)
        start = time.perf_counter()
        grids = {str(seed): reference_rows(name, seed, cli, factor)
                 for seed in shifts}
        doc = {"workload": name, "gamma": run.GAMMA,
               "cycles": run.WORKLOADS[name]["cycles"],
               "rate": ("oracle.rate_between_cycles(params, 1, cycles, dt)"
                        if engine is None else
                        "oracle.rate_from_oracle(params, cycles, dt)"),
               "dt_factor": factor, "default_dt_factor": default.default,
               "source_commit": source_commit(),
               "generation_s": round(time.perf_counter() - start, 1),
               "grids": grids}
        os.makedirs(run.REFERENCE_DIR, exist_ok=True)
        path = os.path.join(run.REFERENCE_DIR, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["oracle_compare", "oracle_scan_small"])
