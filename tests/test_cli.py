import csv
import json
import math

import numpy as np
import pytest

from drivendelta.analysis import wkb_background
from drivendelta.cli import _peak_offsets, main, parse_range, range_values, _UsageError


def run(argv, capsys=None):
    code = main(argv)
    return code


# ----------------------------------------------------------------------
# range grammar
# ----------------------------------------------------------------------

def test_range_inclusive_of_both_ends():
    lo, hi, step = parse_range("6:20:0.01")
    values = range_values(lo, hi, step)
    assert values.size == 1401
    assert values[0] == pytest.approx(6.0)
    assert values[-1] == pytest.approx(20.0)


def test_range_coarse():
    values = range_values(*parse_range("8:14:2"))
    assert list(values) == [8.0, 10.0, 12.0, 14.0]


def test_range_rejects_bad():
    with pytest.raises(_UsageError):
        parse_range("5:4:0.1")
    with pytest.raises(_UsageError):
        parse_range("1:2:-0.5")
    with pytest.raises(_UsageError):
        parse_range("1:2")  # step required by default


def test_range_two_part_allowed_for_thresholds():
    lo, hi, step = parse_range("6:20", require_step=False)
    assert (lo, hi, step) == (6.0, 20.0, None)


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

def test_scan_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--engine", "semiclassical", "--gamma", "0.7",
                "--z", "8:11:0.01", "--cycles", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "detected modulation period" in captured.out
    assert "WKB background" in captured.out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 301


def test_scan_fixed_n_io_metadata(tmp_path):
    out = tmp_path / "pond"
    code = run(["scan", "--engine", "semiclassical", "--n-io", "9.8",
                "--z", "4:12:0.05", "--out", str(out), "--format", "json"])
    assert code == 0
    doc = json.load(open(out.with_suffix(".json")))
    assert doc["mode"] == "fixed_n_io"
    thresholds = doc["thresholds"]
    spacings = [b - a for a, b in zip(thresholds, thresholds[1:])]
    assert all(abs(s - 1.0) < 1e-9 for s in spacings)


def test_scan_usage_errors(capsys):
    assert run(["scan", "--engine", "semiclassical", "--gamma", "0.7",
                "--z", "5:4:0.1"]) == 1
    assert run(["scan", "--engine", "semiclassical", "--z", "6:8:0.1"]) == 1
    assert run(["scan", "--engine", "semiclassical", "--gamma", "1",
                "--n-io", "2", "--z", "6:8:0.1"]) == 1
    assert run(["scan", "--engine", "warpdrive", "--gamma", "0.7",
                "--z", "6:8:0.1"]) == 1


@pytest.mark.parametrize("argv", [
    ["--engine", "semiclassical", "--gamma", "0", "--z", "6:8:0.1"],
    ["--engine", "semiclassical", "--gamma", "0.7", "--cycles", "0",
     "--z", "6:8:0.1"],
    ["--engine", "oracle", "--gamma", "0.7", "--cycles", "0",
     "--z", "1:2:0.5"],
    ["--n-io", "9.8", "--z", "0:2:0.5"],
    ["--engine", "semiclassical", "--gamma", "0.7", "--z=-1:2:0.5"],
    ["--gamma", "0.7", "--z", "6:8:0.1", "--sg-window", "-3"],
    ["--gamma", "0.7", "--z", "6:8:0.1", "--sg-window", "30"],
    ["--gamma", "0.7", "--z", "6:8:0.1", "--sg-order", "-1"],
])
def test_scan_invalid_input_is_usage_error(tmp_path, capsys, argv):
    code = run(["scan", *argv, "--out", str(tmp_path / "scan.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "must be" in err
    assert "engine failures" not in err
    assert "Traceback" not in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = run(["scan", "--config", str(tmp_path / "absent.json"),
                "--z", "6:8:0.1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "absent.json" in err
    assert "Traceback" not in err


def test_scan_warns_with_each_failure_reason(tmp_path, capsys, monkeypatch):
    import drivendelta.analysis as analysis_mod

    real = analysis_mod.semiclassical.rate_between_cycles

    def flaky(params, n_first, n_last, include_odd=False):
        rates = real(params, n_first, n_last, include_odd=include_odd)
        rates[[2, 5]] = np.inf, np.nan
        return rates

    monkeypatch.setattr(analysis_mod.semiclassical, "rate_between_cycles", flaky)
    code = run(["scan", "--gamma", "0.7", "--z", "8:9:0.1", "--format", "both",
                "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "warning: semiclassical failed at z=8.2: survival amplitude " \
           "vanished; rate diverges" in err
    assert "warning: semiclassical failed at z=8.5: survival probability " \
           "is not finite; rate is nan" in err
    assert "2 samples failed and were interpolated" in err

    text = (tmp_path / "s.csv").read_bytes().decode()
    assert "\r" not in text
    rows = list(csv.DictReader(text.splitlines()))
    assert [i for i, row in enumerate(rows) if row["Gamma_raw"] == "nan"] == [2, 5]
    assert all(row["Gamma_smooth"] != "nan" for row in rows)
    raw = json.loads((tmp_path / "s.json").read_text())["Gamma_raw"]
    assert [i for i, v in enumerate(raw) if v is None] == [2, 5]


def test_scan_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--engine", "semiclassical", "--gamma", "0.7",
            "--z", "8:9:0.02", "--format", "both"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"engine": "semiclassical", "gamma": 0.7,
                                  "z": "8:9:0.05", "cycles": 1,
                                  "out": str(tmp_path / "from_config.csv")}))
    # config alone
    assert run(["scan", "--config", str(config)]) == 0
    assert (tmp_path / "from_config.csv").exists()
    # flags win over config
    override = tmp_path / "override.csv"
    assert run(["scan", "--config", str(config), "--out", str(override)]) == 0
    assert override.exists()


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIVENDELTA_OUTDIR", str(tmp_path))
    assert run(["scan", "--engine", "semiclassical", "--gamma", "0.7",
                "--z", "8:9:0.05", "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


# ----------------------------------------------------------------------
# thresholds, demo, compare, selfcheck
# ----------------------------------------------------------------------

def test_thresholds_table(capsys):
    assert run(["thresholds", "--gamma", "0.7", "--z", "6:8"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[0] == "k,z_k,gamma_at_threshold"
    ks = [int(r.split(",")[0]) for r in rows[1:]]
    zs = [float(r.split(",")[1]) for r in rows[1:]]
    assert ks == list(range(12, 16))
    assert all(abs(z - k / 1.98) < 1e-9 for k, z in zip(ks, zs))


def _threshold_rows(capsys):
    return [row.split(",") for row in capsys.readouterr().out.split()[1:]]


def test_thresholds_fixed_n_io_lists_only_positive_z(capsys):
    assert run(["thresholds", "--n-io", "2", "--z", "0:3"]) == 0
    rows = _threshold_rows(capsys)
    assert [int(k) for k, _, _ in rows] == [3, 4, 5]
    assert all(float(z) > 0.0 for _, z, _ in rows)
    assert all(float(g) == pytest.approx(math.sqrt(2.0 / (2.0 * float(z))))
               for _, z, g in rows)


def test_thresholds_match_the_scan_thresholds(capsys):
    from drivendelta.analysis import scan_rate

    assert run(["thresholds", "--gamma", "0.7", "--z", "6:8"]) == 0
    zs = [float(z) for _, z, _ in _threshold_rows(capsys)]
    scan = scan_rate("semiclassical", "fixed_gamma", 0.7,
                     np.arange(6.0, 8.0 + 0.005, 0.01))
    assert zs == pytest.approx(list(scan.thresholds), rel=1e-11)


@pytest.mark.parametrize("argv", [
    ["--n-io", "-3", "--z", "0:5"],
    ["--n-io", "0", "--z", "0:5"],
    ["--gamma", "-0.7", "--z", "6:8"],
    ["--gamma", "0", "--z", "6:8"],
    ["--gamma", "nan", "--z", "6:8"],
])
def test_thresholds_reject_non_positive_parameter(capsys, argv):
    code = run(["thresholds", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage error" in captured.err and "must be" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


_COMMAND_ARGS = {
    "scan": ["--gamma", "0.7"],
    "compare": ["--gamma", "0.7", "--cycles", "2"],
    "thresholds": ["--gamma", "0.7"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
@pytest.mark.parametrize("z_spec", ["a:b:0.1", "1:2:nan", "1:inf:0.1", "1:inf",
                                    "-inf:2:0.1", "1:2:x"])
def test_range_fields_must_be_finite_numbers(tmp_path, capsys, command, z_spec):
    code = run([command, *_COMMAND_ARGS[command], "--z", z_spec,
                "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err
    assert "Traceback" not in err


def test_config_parameter_must_be_a_number(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gamma": "abc", "z": "6:7:0.5"}))
    code = run(["scan", "--config", str(config), "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err and "--gamma must be a number" in err


@pytest.mark.parametrize("command", ["scan", "compare"])
@pytest.mark.parametrize("cycles", ["x", 1.5, "2.5", True, None])
def test_config_cycles_must_be_a_whole_number(tmp_path, capsys, command, cycles):
    # compare used to end in a ValueError traceback on "x", scan truncated
    # 1.5 to one cycle
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gamma": 0.7, "z": "6:7:0.5", "cycles": cycles}))
    code = run([command, "--config", str(config), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err and "--cycles must be a whole number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv, config", [
    (["compare", "--gamma", "0.7", "--z", "5:5:1", "--oracle-dt", "-1"], None),
    (["scan", "--engine", "oracle", "--gamma", "0.7", "--z", "1:2:0.5",
      "--oracle-dt", "inf"], None),
    (["scan", "--engine", "oracle"], {"oracle_dt": "x"}),
    (["selfcheck", "--oracle-dt", "-1"], None),
    (["scan"], {"sg_window": None}),
    (["scan"], {"include_odd": "false"}),
], ids=["compare-oracle-dt-negative", "scan-oracle-dt-inf",
        "config-oracle-dt-text", "selfcheck-oracle-dt-negative",
        "config-sg-window-null", "config-include-odd-string"])
def test_bad_option_value_is_usage_error(tmp_path, capsys, argv, config):
    # each used to end in a traceback, or (include_odd "false") to mean true
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 0.7, "z": "6:7:0.5", **config}))
        argv = [*argv, "--config", str(path)]
    if argv[0] != "selfcheck":
        argv = [*argv, "--out", str(tmp_path / "o.csv")]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "usage error" in captured.err and "must be" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()


def test_peak_offsets_use_the_scan_prominence_rule():
    # a ripple far below 5% of the normalized span makes no peaks of its own
    z = np.arange(6.0, 9.0 + 0.005, 0.01)
    bg = wkb_background(0.7, z)
    sc = bg * (1.0 + 0.5 * np.cos(2.0 * np.pi * z / 0.5))
    orc = bg * (1.0 + 0.5 * np.cos(2.0 * np.pi * (z - 0.02) / 0.5)
                + 0.01 * np.cos(2.0 * np.pi * z / 0.04))
    # one offset per main oracle peak inside the grid, none for the ripple
    # or for the rising edge at z = 6
    offsets = _peak_offsets(z, sc, orc, "fixed_gamma", 0.7)
    assert offsets == pytest.approx([0.02] * 5, abs=0.011)


def test_demo_appendix_c(capsys):
    assert run(["demo-appendix-c"]) == 0
    out = capsys.readouterr().out
    assert "i*pi" in out


def test_compare_small_grid(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run(["compare", "--gamma", "0.7", "--z", "5:5.2:0.1",
                "--cycles", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "mean cycle-smoothed rate ratio" in captured.out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert float(row["Gamma_oracle"]) > 0.0


def test_compare_warns_beyond_validated_gamma(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run(["compare", "--gamma", "2.6", "--z", "5:5:1",
                "--cycles", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "exceeds the validated range" in captured.err


@pytest.mark.parametrize("argv", [
    ["--gamma", "0", "--z", "5:5:1"],
    ["--n-io", "9.8", "--z", "0:1:0.5"],
])
def test_compare_invalid_input_is_usage_error(tmp_path, capsys, argv):
    code = run(["compare", *argv, "--out", str(tmp_path / "cmp.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err
    assert "Traceback" not in err


def test_compare_semiclassical_infinite_rate_is_numeric_failure(
        tmp_path, capsys, monkeypatch):
    # the semiclassical grid call marks a vanished amplitude as a +inf rate
    import drivendelta.cli as cli_mod

    real = cli_mod.semiclassical.rate_between_cycles

    def vanished(params, n_first, n_last, include_odd=False):
        rates = real(params, n_first, n_last, include_odd=include_odd)
        rates[:] = np.inf
        return rates

    monkeypatch.setattr(cli_mod.semiclassical, "rate_between_cycles", vanished)
    out = tmp_path / "cmp.csv"
    code = run(["compare", "--gamma", "0.7", "--z", "5:5:1", "--cycles", "2",
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "semiclassical failed at z=5" in err and "rate diverges" in err
    assert "Traceback" not in err
    # the failed point is a NaN row; the command still writes its CSV
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["Gamma_semiclassical"] == "nan"
    assert rows[0]["ratio"] == "nan"
    assert float(rows[0]["Gamma_oracle"]) > 0.0


def test_selfcheck_passes(capsys):
    assert run(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out
    assert "FAIL" not in out


def test_selfcheck_branch_negative_control(capsys, monkeypatch):
    # a square root on the wrong sheet must fail the sheet check
    import drivendelta.semiclassical as sc_mod

    real = sc_mod.branched_sqrt
    monkeypatch.setattr(sc_mod, "branched_sqrt", lambda w: -real(w))
    assert run(["selfcheck"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] branched sqrt sheet" in out


def test_selfcheck_coarse_oracle_dt_fails(capsys):
    assert run(["selfcheck", "--oracle-dt", "0.2"]) == 2
    out = capsys.readouterr().out
    assert "oracle field-off unitarity" in out
