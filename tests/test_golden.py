"""Golden outputs: `scan` and `compare` against fixtures of an earlier commit.

Every fixture under ``tests/golden/`` was written at commit
024af6d4a9e0376c78f16220a5d8e0a1ab7b7d1c ("Evaluate the semiclassical scan
in one pass over the z grid"), before the engines were given one rate entry
point and the Volkov action and the rate formula were each written once:

    scan --gamma 0.7 --z 6:8:0.01 --cycles 1 --format both
        -> fx_scan_gamma.csv, fx_scan_gamma.json
    scan --n-io 9.8 --z 2:4:0.01 --cycles 2 --include-odd --format both
        -> fx_scan_nio.csv, fx_scan_nio.json
    scan --engine oracle --gamma 0.7 --z 0.5:1.0:0.1 --format both
        -> fx_scan_oracle.csv, fx_scan_oracle.json
    compare --gamma 0.7 --z 0.5:0.9:0.1 --cycles 2
        -> fx_compare.csv; fx_compare_rates.json holds the two engines'
           rates at full precision (semiclassical.rate_between_cycles and
           oracle.rate_between_cycles at (params, 1, 2), the calls compare
           made then)

The oracle values alone (the scan's rates and peak in fx_scan_oracle.*,
``Gamma_oracle`` and ``ratio`` in fx_compare.csv, ``Gamma_oracle`` in
fx_compare_rates.json) were regenerated at commit 40b5679 ("Project the
oracle in numpy with a node count sized to the march").  Its projection,
a 6-point Lagrange interpolant and a numpy Simpson rule on at least 1001
nodes per half in place of a cubic spline and scipy's Simpson rule on
4001, moved them by up to 6.9e-9 relative, past the 1e-12 tolerance; the
projection's own error budget is 1e-6.

The compare oracle values at z = 0.5, 0.8 and 0.9 alone (``Gamma_oracle``
and ``ratio`` in fx_compare.csv, ``Gamma_oracle`` in fx_compare_rates.json)
were regenerated at the commit that made the oracle take whole steps per
cycle ("Whole steps per cycle: far blocks reuse their p across cycles").
Over two cycles the solve takes n = 2*ceil(2*pi/dt) steps in place of
ceil(4*pi/dt), one more at those three points, which moved their rates by
1.5e-7, 1.5e-6 and 5.7e-7 relative, past the 1e-12 tolerance.  At z = 0.6
and 0.7 the step count is unchanged and the rates moved by 3.6e-15 and
8.1e-14, so those two values are still the ones of 40b5679.

The semiclassical rates of fx_scan_nio alone (``Gamma_raw`` and
``Gamma_smooth`` in its CSV and JSON) were regenerated at commit 82f3f99
("Keep ModelParams as the pair (gamma, z) and a fixed gamma as one
number").  ModelParams now stores gamma and z as given, where the round
trip through (alpha, mu, omega) had rounded gamma and h = 1/(4z) off them;
at fixed n_io that moved the rates by up to 2.2e-16, past the floor below.
Its z, gamma_param, is_peak, nearest_threshold_k and peaks are the ones
written at 024af6d, as is every other semiclassical value.

The three scan JSON fixtures were converted to schema 2 at the commit
that introduced it, with every value kept as frozen: each was loaded,
its ``gamma_param`` dropped, ``schema_version`` set to 2 and an empty
``missing_reasons`` added, and written as ``json.dumps(doc,
sort_keys=True, separators=(",", ":"), allow_nan=False)`` and a line feed.
The CSV fixtures are untouched, and still hold the ``gamma_param`` column.

Tolerances: a semiclassical rate within 1e-12 * max|Gamma| of the scan, an
oracle rate within 1e-12 relative; z, gamma_param, is_peak and
nearest_threshold_k byte-identical.  The CSV files print 12 significant
digits, so a printed rate may in addition move by one unit in its last
digit; the JSON files and fx_compare_rates.json carry every digit.

fx_scan_nio sits at the precision floor of that bound.  Its rates run from
-1.92e-4 to 1.46e-4 (-2.9e-6 at z = 2; 82 of 201 are negative, w > 1), so
1e-12 * max|Gamma| is 1.9e-16 absolute.  Each rate is -ln(w)/2 over two
cycles with w within 4e-4 of 1, where one unit in the last place of w moves
it by 5.6e-17 (w < 1) or 1.1e-16 (w > 1).  The bound is below the rounding
of w ~ 1 beyond a unit or two, so the fixture's semiclassical values must
stay bit-identical in practice: a change that only rounds w differently
fails here.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import drivendelta.analysis as analysis_mod
from drivendelta.cli import main

GOLDEN = Path(__file__).parent / "golden"

SCANS = {
    "fx_scan_gamma": ["scan", "--gamma", "0.7", "--z", "6:8:0.01",
                      "--cycles", "1"],
    "fx_scan_nio": ["scan", "--n-io", "9.8", "--z", "2:4:0.01", "--cycles", "2",
                    "--include-odd"],
    "fx_scan_oracle": ["scan", "--engine", "oracle", "--gamma", "0.7",
                       "--z", "0.5:1.0:0.1"],
}
EXACT_COLUMNS = ("z", "gamma_param", "is_peak", "nearest_threshold_k")


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _last_digit(text):
    """One unit in the last of the 12 significant digits a CSV field prints."""
    value = abs(float(text))
    return 10.0 ** (math.floor(math.log10(value)) - 11) if value else 0.0


def _assert_close(new, old, tol):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert np.array_equal(np.isnan(new), np.isnan(old))
    good = ~np.isnan(old)
    assert np.all(np.abs(new[good] - old[good]) <= np.broadcast_to(tol, old.shape)[good])


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_matches_golden(tmp_path, name):
    assert main([*SCANS[name], "--format", "both",
                 "--out", str(tmp_path / name)]) == 0
    old_doc = json.loads((GOLDEN / f"{name}.json").read_text())
    new_doc = json.loads((tmp_path / f"{name}.json").read_text())
    assert new_doc.keys() == old_doc.keys()

    old_raw = np.array(old_doc["Gamma_raw"], dtype=float)
    if old_doc["engine"] == "oracle":
        tol = 1e-12 * np.abs(old_raw)
    else:
        tol = np.full(old_raw.shape, 1e-12 * np.nanmax(np.abs(old_raw)))
    for key in ("Gamma_raw", "Gamma_smooth"):
        _assert_close(new_doc[key], old_doc[key], tol)
    for key in ("schema_version", "engine", "mode", "fixed_value", "n_cycles",
                "filter_settings", "missing_indices", "missing_reasons", "z"):
        assert new_doc[key] == old_doc[key], key
    _assert_close(new_doc["thresholds"], old_doc["thresholds"],
                  1e-12 * np.abs(old_doc["thresholds"]))
    _assert_close(new_doc["peaks"], old_doc["peaks"], 1e-10)

    old_rows, new_rows = _rows(GOLDEN / f"{name}.csv"), _rows(tmp_path / f"{name}.csv")
    assert len(new_rows) == len(old_rows)
    for i, (new, old) in enumerate(zip(new_rows, old_rows)):
        assert [new[c] for c in EXACT_COLUMNS] == [old[c] for c in EXACT_COLUMNS]
        for column in ("Gamma_raw", "Gamma_smooth"):
            assert abs(float(new[column]) - float(old[column])) <= (
                tol[i] + _last_digit(old[column])), (i, column)


def test_compare_matches_golden(tmp_path, monkeypatch):
    computed = {}
    real = analysis_mod.engine_rates

    def recorded(engine, *args, **kwargs):
        rates, failures = real(engine, *args, **kwargs)
        computed[engine] = rates
        return rates, failures

    monkeypatch.setattr(analysis_mod, "engine_rates", recorded)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--gamma", "0.7", "--z", "0.5:0.9:0.1",
                 "--cycles", "2", "--out", str(out)]) == 0

    golden = json.loads((GOLDEN / "fx_compare_rates.json").read_text())["rows"]
    for engine in ("semiclassical", "oracle"):
        old = np.array([row[f"Gamma_{engine}"] for row in golden])
        _assert_close(computed[engine], old, 1e-12 * np.abs(old))

    old_rows, new_rows = _rows(GOLDEN / "fx_compare.csv"), _rows(out)
    assert len(new_rows) == len(old_rows)
    for new, old in zip(new_rows, old_rows):
        assert (new["z"], new["gamma_param"]) == (old["z"], old["gamma_param"])
        for column in ("Gamma_semiclassical", "Gamma_oracle", "ratio"):
            assert abs(float(new[column]) - float(old[column])) <= (
                1e-12 * abs(float(old[column])) + _last_digit(old[column])), column
