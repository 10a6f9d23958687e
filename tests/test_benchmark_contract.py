"""The benchmark's span tracer still finds every layer it times.

``perfbench/spans.py`` wraps drivendelta's functions by name and reports a
layer it cannot reach as 0, so renaming or deleting one of those functions
would silently empty a benchmark metric.  This test loads the tracer from
the checkout (read only), runs a small `scan` and a one-point `compare`
through the wrapped ``cli.main`` and checks that every layer was recorded.
"""

import importlib.util
from pathlib import Path

import drivendelta.cli as cli_mod

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_records_every_layer(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    original_main = cli_mod.main
    traced_main = spans.instrument(tracer)
    try:
        assert traced_main(["scan", "--gamma", "0.7", "--z", "8:9:0.05",
                            "--cycles", "1", "--format", "both",
                            "--out", str(tmp_path / "scan")]) == 0
        # parameter builds: the scan's grid, its peak background and its
        # mid-range background; then the compare's grid
        assert tracer.counts[0]["model.params.calls"] == 3
        assert traced_main(["compare", "--gamma", "0.7", "--z", "0.5:0.5:1",
                            "--cycles", "2",
                            "--out", str(tmp_path / "cmp.csv")]) == 0
        assert tracer.counts[0]["model.params.calls"] == 4
    finally:
        tracer.restore()
    assert cli_mod.main is original_main

    recorded = {span[1] for span in tracer.spans}
    assert {"semiclassical.rate", "oracle.solve", "oracle.project",
            "adiabatic.background", "analysis.scan", "analysis.smooth",
            "cli.emit", "cli.main"} <= recorded
    counts = tracer.counts[0]
    # one semiclassical grid call per command, one solve and two
    # projections for the compare point, one packet at n = 1 and two at n = 2
    assert counts["semiclassical.rate.calls"] == 2
    assert counts["oracle.solve.calls"] == 1
    assert counts["oracle.project.calls"] == 2
    assert counts["semiclassical.packet_terms"] == 1 + 3
    assert counts["analysis.samples"] == 21
