import csv
import json
import math

import numpy as np
import pytest

from drivendelta.analysis import modulation_offset
from drivendelta.cli import (_COMMANDS, main, parse_range, range_values,
                             _UsageError)
from drivendelta.errors import ConvergenceError, NumericError
from drivendelta.model import from_dimensionless
from drivendelta.oracle import default_time_step


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


@pytest.mark.parametrize("spec, value", [("1:1:1e-17", 1.0), ("1e16:1e16:1", 1e16)])
def test_range_keeps_one_point_at_any_magnitude(spec, value):
    # stop + step/2 rounds to stop here, so the end point is kept by its
    # offset from start, not by its value
    assert list(range_values(*parse_range(spec))) == [value]


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
    with pytest.raises(_UsageError, match="start:stop, got"):
        parse_range("6:20:0.5", require_step=False)


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
    # grids that numpy refuses to allocate at once
    ["--gamma", "0.7", "--z", "1:1e300:1"],
    ["--gamma", "0.7", "--z", "1:2:1e-300"],
    # an option of the engine that the scan does not run
    ["--engine", "oracle", "--include-odd", "--gamma", "0.7", "--z", "1:1.1:0.1"],
    ["--engine", "semiclassical", "--oracle-dt", "0.001", "--gamma", "0.7",
     "--z", "6:6.2:0.1"],
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


def test_scan_that_cannot_interpolate_names_each_failure(tmp_path, capsys):
    # gamma = 1e-300 gives a survival probability that is not finite at
    # every z, so fewer than two samples are left to interpolate from
    out = tmp_path / "s.csv"
    code = run(["scan", "--gamma", "1e-300", "--z", "1:2:0.5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("numeric failure: too many engine failures to interpolate "
                   "scan: 3 of 3 samples failed\n"
                   + "".join(f"  z={z}: survival probability is not finite; "
                             "rate is nan\n" for z in ("1", "1.5", "2")))
    assert not out.exists()


@pytest.mark.parametrize("argv, column", [
    (["compare"], "Gamma_oracle"),
    (["scan", "--engine", "oracle"], "Gamma_raw"),
])
def test_oracle_at_small_gamma_gives_a_rate(tmp_path, capsys, argv, column):
    # the free-evolution overlap is a closed form at any gamma
    out = tmp_path / "out.csv"
    code = run([*argv, "--gamma", "0.001", "--z", "1:1:1", "--cycles", "2",
                "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(out) as fh:
        rate = float(next(csv.DictReader(fh))[column])
    assert math.isfinite(rate) and rate >= 0.0


def test_zero_oracle_rate_prints_as_0(tmp_path, capsys):
    # gamma = 1e-300 leaves the bound state alone: w(1) = w(2) = 1 and
    # -log(1) is -0.0, which the CSV would print as -0
    out = tmp_path / "cmp.csv"
    code = run(["compare", "--gamma", "1e-300", "--z", "1:1:1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2  # the semiclassical rate fails there
    assert "semiclassical failed at z=1" in err and "Traceback" not in err
    with open(out) as fh:
        assert next(csv.DictReader(fh))["Gamma_oracle"] == "0"


GAMMA_1E200 = "usage error: gamma=1e+200 is too large"


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["scan", "--gamma", "1e80", "--z", "1:1.1:0.05"], 1,
                 "usage error: the z range 1:1.1 must be narrower", id="scan-1e80"),
    pytest.param(["compare", "--gamma", "1e80", "--z", "1:1:1"], 1,
                 "usage error: the 2.01e+163 time steps", id="compare-1e80"),
    # 1 + 2*gamma^2 overflows: no channel spacing, with or without a step
    pytest.param(["scan", "--gamma", "1e200", "--z", "1:1.1:0.05"], 1,
                 GAMMA_1E200, id="scan-1e200"),
    pytest.param(["compare", "--gamma", "1e200", "--z", "1:1:1"], 1,
                 GAMMA_1E200, id="compare-1e200"),
    pytest.param(["compare", "--gamma", "1e200", "--z", "1:1:1",
                  "--oracle-dt", "0.01"], 1, GAMMA_1E200, id="compare-1e200-dt"),
    pytest.param(["scan", "--engine", "oracle", "--gamma", "1e200", "--z", "1:1:1"],
                 1, GAMMA_1E200, id="oracle-scan-1e200"),
    pytest.param(["scan", "--engine", "oracle", "--gamma", "1e200", "--z", "1:1:1",
                  "--oracle-dt", "0.01"], 1, GAMMA_1E200, id="oracle-scan-1e200-dt"),
])
def test_large_gamma_ends_with_a_message(tmp_path, capsys, argv, code, message):
    # a Python float's ** raised OverflowError here, as a traceback; the
    # oracle's default step was 0 where gamma^2 overflows
    assert run([*argv, "--out", str(tmp_path / "out.csv")]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert "dt=0.0" not in err and "(0)" not in err


NO_GAMMA = "gives no finite positive gamma = sqrt(n_io/(2z))"


@pytest.mark.parametrize("argv, where", [
    pytest.param(["compare", "--n-io", "1e10", "--z", "1e-300:1e-300:1"],
                 "n_io=1e+10 at z=1e-300", id="compare-overflow"),
    pytest.param(["compare", "--n-io", "5e-324", "--z", "1:1:1"],
                 "n_io=4.94066e-324 at z=1", id="compare-underflow"),
    pytest.param(["compare", "--n-io", "1e-300", "--z", "1e300:1e300:1"],
                 "n_io=1e-300 at z=1e+300", id="compare-large-z"),
    pytest.param(["scan", "--n-io", "5e-324", "--z", "1:1:1"],
                 "n_io=4.94066e-324 at z=1", id="scan-underflow"),
    pytest.param(["thresholds", "--n-io", "5e-324", "--z", "1:3"],
                 "n_io=4.94066e-324 at z=1", id="thresholds-underflow"),
])
def test_fixed_n_io_without_a_finite_gamma_is_usage_error(tmp_path, capsys,
                                                          monkeypatch, argv,
                                                          where):
    # gamma = sqrt(n_io/(2z)) overflowed with a RuntimeWarning, or was 0 and
    # named as gamma=0.0 or printed; now one message, before any engine runs
    import drivendelta.oracle as oracle_mod
    import drivendelta.semiclassical as sc_mod

    def engine(*args, **kwargs):
        raise AssertionError("engine called on invalid input")

    monkeypatch.setattr(sc_mod, "rate_between_cycles", engine)
    monkeypatch.setattr(oracle_mod, "rate_between_cycles", engine)
    assert run([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {where} {NO_GAMMA}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_scan_past_channel_index_2_53_is_usage_error(tmp_path, capsys):
    # nearest_threshold_k wrapped to -2**63 here, after a RuntimeWarning
    out = tmp_path / "s.csv"
    assert run(["scan", "--gamma", "0.7", "--z", "1e300:1e300:1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: the channel index k=1.98e+300 at z=1e+300 must be at "
        "most 2**53: past it, neighbouring doubles lie more than one channel "
        "apart\n")
    assert not out.exists()


def test_scan_json_gives_the_reason_of_a_failed_sample(tmp_path, monkeypatch):
    import drivendelta.analysis as analysis_mod

    real = analysis_mod.semiclassical.rate_between_cycles

    def vanished(params, n_first, n_last, include_odd=False):
        rates = real(params, n_first, n_last, include_odd=include_odd)
        rates[3] = np.inf
        return rates

    monkeypatch.setattr(analysis_mod.semiclassical, "rate_between_cycles",
                        vanished)
    assert run(["scan", "--gamma", "0.7", "--z", "8:9:0.1", "--format", "json",
                "--out", str(tmp_path / "s.json")]) == 2
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["missing_indices"] == [3] and doc["Gamma_raw"][3] is None
    assert doc["missing_reasons"] == ["survival amplitude vanished; rate diverges"]


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
    # more channels than numpy allocates
    ["--gamma", "0.7", "--z", "1:1e300"],
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
# a valid --z for each command: thresholds takes no step
_RANGE = {"scan": "6:7:0.5", "compare": "6:7:0.5", "thresholds": "6:7"}


@pytest.mark.parametrize("z_spec", ["6:7:0.5", "6:7:-1", "6:7:1:2"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_thresholds_range_with_a_step_is_usage_error(tmp_path, capsys, z_spec,
                                                     via):
    # the step used to be dropped without a word (6:7:0.5) or reported as an
    # empty or inverted range (6:7:-1)
    if via == "flag":
        argv = ["--z", z_spec]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"z": z_spec}))
        argv = ["--config", str(config)]
    code = run(["thresholds", "--gamma", "0.7", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"usage error: range must be start:stop, "
                            f"got {z_spec!r}\n")
    assert captured.out == ""


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


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
@pytest.mark.parametrize("via", ["out", "outdir"])
def test_missing_output_directory_is_usage_error(tmp_path, capsys, monkeypatch,
                                                 command, via):
    # the output path is checked before any engine runs; compare used to
    # solve the oracle and then end in a FileNotFoundError traceback
    import drivendelta.analysis as analysis_mod

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the output path was checked")

    monkeypatch.setattr(analysis_mod, "engine_rates", no_engine)
    missing = tmp_path / "missing"
    if via == "outdir":
        monkeypatch.setenv("DRIVENDELTA_OUTDIR", str(missing))
        out = "out.csv"
    else:
        out = str(missing / "out.csv")
    code = run([command, *_COMMAND_ARGS[command], "--z", _RANGE[command],
                "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert f"usage error: output directory {str(missing)!r} does not exist" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not missing.exists()


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_output_path_with_a_nul_byte_is_usage_error(tmp_path, capsys,
                                                    monkeypatch, command):
    # argv cannot carry a NUL, a config file can; open() would reject the
    # path only after scan's and compare's engines ran
    import drivendelta.analysis as analysis_mod

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the output path was checked")

    monkeypatch.setattr(analysis_mod, "engine_rates", no_engine)
    monkeypatch.delenv("DRIVENDELTA_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"z": _RANGE[command], "out": "x\u0000y.csv"}))
    code = run([command, *_COMMAND_ARGS[command], "--config", str(config)])
    captured = capsys.readouterr()
    path = "./x\0y.csv"
    assert code == 1
    assert captured.err == f"usage error: output path {path!r} holds a NUL byte\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


def test_main_maps_each_error_type_to_its_exit_code(capsys, monkeypatch):
    # the whole rule lives in main: no command translates an error itself
    def fails(opt):
        raise error("probe")

    monkeypatch.setitem(_COMMANDS, "demo-appendix-c",
                        (fails, *_COMMANDS["demo-appendix-c"][1:]))
    for error, code, message in [(ValueError, 1, "usage error: probe"),
                                 (NumericError, 2, "numeric failure: probe"),
                                 (ConvergenceError, 2, "numeric failure: probe")]:
        assert run(["demo-appendix-c"]) == code
        assert capsys.readouterr().err == message + "\n"
    error = RuntimeError
    with pytest.raises(RuntimeError, match="probe"):
        run(["demo-appendix-c"])
    assert issubclass(_UsageError, ValueError)
    assert issubclass(ConvergenceError, NumericError)


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
    (["scan"], {"out": 5}),
    (["compare"], {"out": 5}),
    (["thresholds"], {"out": 5}),
    (["thresholds"], {"out": False}),
    (["scan"], {"gamma": True}),
    (["compare"], {"gamma": True}),
    (["scan", "--engine", "oracle"], {"oracle_dt": True}),
    (["scan"], {"gamma": 10**400}),
    (["compare"], {"cycles": 10**400}),
    (["scan"], {"cycle": 3, "sg-window": 5}),
    (["compare"], {"sg_window": 5}),
    (["scan", "--engine", "oracle"], {"include_odd": True}),
    (["scan"], {"oracle_dt": 0.001}),
], ids=["compare-oracle-dt-negative", "scan-oracle-dt-inf",
        "config-oracle-dt-text", "selfcheck-oracle-dt-negative",
        "config-sg-window-null", "config-include-odd-string",
        "config-scan-out-number", "config-compare-out-number",
        "config-thresholds-out-number", "config-thresholds-out-false",
        "config-scan-gamma-true", "config-compare-gamma-true",
        "config-oracle-dt-true", "config-gamma-beyond-float",
        "config-cycles-beyond-float", "config-unknown-keys",
        "config-compare-scan-only-key", "config-include-odd-oracle-scan",
        "config-oracle-dt-semiclassical-scan"])
def test_bad_option_value_is_usage_error(tmp_path, capsys, argv, config):
    # each used to end in a traceback (an integer beyond float range in an
    # OverflowError), or to run with a value the user did not mean:
    # include_odd "false" as true, gamma true as 1, a misspelt key ignored
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 0.7, "z": _RANGE[argv[0]],
                                    **config}))
        argv = [*argv, "--config", str(path)]
    if argv[0] != "selfcheck" and "out" not in (config or {}):
        argv = [*argv, "--out", str(tmp_path / "o.csv")]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "usage error" in captured.err and "must be" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()
    # the message names the option or key at fault
    assert any(key.replace("_", "-") in captured.err.replace("_", "-")
               for key in config or [""])


# one bad value per option, valid as JSON text and as a flag's text
_BAD = {"gamma": "abc", "n_io": "-1", "z": "1:x:0.1", "out": "",
        "engine": "warp", "cycles": "2.5", "oracle_dt": "0", "sg_window": "x",
        "sg_order": "1.5", "format": "xml"}


@pytest.mark.parametrize("command, option", [
    (command, option) for command in ("scan", "compare", "thresholds")
    for option in _COMMANDS[command][2] if option not in ("config", "include_odd")])
def test_flag_and_config_value_get_one_verdict(tmp_path, capsys, monkeypatch,
                                               command, option):
    # a flag used to be checked by argparse and a config value by the command
    # (or by analysis.engine_rates), so one value got two messages
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DRIVENDELTA_OUTDIR", str(tmp_path))
    base = {"gamma": "0.7", "z": _RANGE[command], "out": "o.csv"}
    base.pop(option, None)
    argv = [command, *(item for name, value in base.items()
                       for item in ("--" + name.replace("_", "-"), value))]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({option: _BAD[option]}))
    errors = []
    for extra in (["--" + option.replace("_", "-"), _BAD[option]],
                  ["--config", str(config)]):
        code = run(argv + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage error: ") and errors[0].count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_selfcheck_flag_gets_the_config_verdict(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"gamma": 0.7, "z": "6:7:0.5", "oracle_dt": "x"}))
    errors = []
    for argv in (["selfcheck", "--oracle-dt", "x"],
                 ["compare", "--config", str(config),
                  "--out", str(tmp_path / "o.csv")]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["usage error: --oracle-dt must be a number, got 'x'\n"] * 2


def test_whole_cycles_flag_and_config_write_the_same_scan(tmp_path):
    # --cycles 2.0 used to be a usage error while "cycles": 2.0 ran
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"cycles": 2.0}))
    args = ["scan", "--gamma", "0.7", "--z", "8:9:0.05"]
    assert run(args + ["--cycles", "2", "--out", str(tmp_path / "a.csv")]) == 0
    assert run(args + ["--cycles", "2.0", "--out", str(tmp_path / "b.csv")]) == 0
    assert run(args + ["--config", str(config),
                       "--out", str(tmp_path / "c.csv")]) == 0
    expected = (tmp_path / "a.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == expected
    assert (tmp_path / "c.csv").read_bytes() == expected


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
@pytest.mark.parametrize("out", ["", "sub/", ".", "taken.csv"])
def test_output_path_that_names_no_file_is_usage_error(tmp_path, capsys,
                                                       monkeypatch, command, out):
    # scan used to write a hidden ./.csv, ./sub/.csv or ./..csv, compare and
    # thresholds to end in an IsADirectoryError after the engines ran, and
    # thresholds printed its table for an empty --out
    import drivendelta.analysis as analysis_mod

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the output path was checked")

    monkeypatch.setattr(analysis_mod, "engine_rates", no_engine)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DRIVENDELTA_OUTDIR", str(tmp_path))
    (tmp_path / "sub").mkdir()
    (tmp_path / "taken.csv").mkdir()
    code = run([command, *_COMMAND_ARGS[command], "--z", _RANGE[command],
                "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("usage error: output path ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sub", "taken.csv"]


def test_compare_prints_the_modulation_offset_of_its_csv(tmp_path, capsys):
    # criterion 7's fit at the channel spacing, over seven points
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--gamma", "0.7", "--z", "0.5:1.1:0.1", "--cycles", "2",
                "--out", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if "offset" in line]
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    z, sc, orc = (np.array([float(row[c]) for row in rows]) for c in
                  ("z", "Gamma_semiclassical", "Gamma_oracle"))
    offset = modulation_offset(z, sc, orc, 1.0 / (1.0 + 2.0 * 0.7**2))
    assert printed == ["modulation peak offset oracle - semiclassical (z): "
                       f"{offset:+.3f}"]


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
    # one line per command, however many grid points lie beyond the range
    out = tmp_path / "cmp.csv"
    code = run(["compare", "--gamma", "2.6", "--z", "0.5:0.7:0.1",
                "--cycles", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    warnings = [line for line in captured.err.splitlines()
                if "exceeds the validated range" in line]
    assert warnings == ["warning: gamma up to 2.6 exceeds the validated range "
                        "(~2.5) at z=0.5, 0.6, 0.7"]


def test_compare_warns_on_negative_rates(tmp_path, capsys):
    # the oracle's survival probability rises from cycle 1 to 2 at z = 0.8;
    # the warning names that point only and changes neither CSV nor exit code
    out = tmp_path / "cmp.csv"
    code = run(["compare", "--gamma", "0.7", "--z", "0.5:0.9:0.1",
                "--cycles", "2", "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err
    assert code == 0
    assert "offset" not in captured.out  # fewer than seven points
    assert [line for line in err.splitlines() if "below zero" in line] == [
        "warning: oracle rate below zero at z=0.8: the survival probability "
        "rose from cycle 1 to 2"]
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["z"] for row in rows if float(row["Gamma_oracle"]) < 0.0] == ["0.8"]
    assert all(float(row["Gamma_semiclassical"]) > 0.0 for row in rows)


@pytest.mark.parametrize("argv", [
    ["--gamma", "0", "--z", "5:5:1"],
    ["--n-io", "9.8", "--z", "0:1:0.5"],
    ["--gamma", "0.7", "--z", "1:1e300:1"],
])
def test_compare_invalid_input_is_usage_error(tmp_path, capsys, argv):
    code = run(["compare", *argv, "--out", str(tmp_path / "cmp.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, steps", [
    (["scan", "--engine", "oracle", "--gamma", "0.7", "--z", "1:1:1"], "6.28e+15"),
    (["compare", "--gamma", "0.7", "--z", "1:1:1", "--cycles", "2"], "1.26e+16"),
    (["selfcheck"], "1.26e+16"),
])
def test_oracle_step_count_beyond_memory_is_usage_error(tmp_path, capsys, argv,
                                                        steps):
    # 2*pi/1e-15 steps per cycle: more than the machine's memory holds
    # (44.6 PiB of time grid alone at one cycle), so the solve allocates
    # nothing
    out = [] if argv[0] == "selfcheck" else ["--out", str(tmp_path / "out.csv")]
    code = run([*argv, "--oracle-dt", "1e-15", *out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1] == (
        f"usage error: the {steps} time steps of dt=1e-15 do not fit in "
        "memory: take a larger dt or fewer cycles")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_compare_cycle_count_beyond_memory_is_usage_error(tmp_path, capsys):
    # 4.9e14 steps at z = 1, past any machine's memory: the solve stops
    # before it allocates, and before the semiclassical engine would sum its
    # 1e12 packets, since compare runs the oracle first
    code = run(["compare", "--gamma", "0.7", "--z", "1:1:1", "--cycles",
                "1000000000000", "--out", str(tmp_path / "cmp.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1] == (
        "usage error: the 4.93e+14 time steps of dt=0.0127551 do not fit in "
        "memory: take a larger dt or fewer cycles")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cycles", ["1e12", "1e300"])
def test_scan_cycle_count_beyond_memory_is_usage_error(tmp_path, capsys, cycles):
    # one packet term per cycle, at 160 bytes each past any machine's
    # memory: the packet sum stops before it allocates
    code = run(["scan", "--gamma", "0.7", "--z", "8:8:1", "--cycles", cycles,
                "--out", str(tmp_path / "scan.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1] == (
        f"usage error: the packet terms of {cycles.replace('e', 'e+')} cycles do not "
        "fit in memory: take fewer cycles or fewer grid points")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_compare_oracle_step_longer_than_the_run(tmp_path, capsys):
    # a maximum step beyond a cycle gives one step per cycle
    code = run(["compare", "--gamma", "0.7", "--z", "1:1:1", "--oracle-dt",
                "1e300", "--out", str(tmp_path / "cmp.csv")])
    err = capsys.readouterr().err
    assert code == 0
    assert "Traceback" not in err


@pytest.mark.parametrize("dt", ["1e300", "0.001"])
@pytest.mark.parametrize("argv, z_values, codes", [
    (["compare", "--gamma", "0.7", "--z", "1:1:1"], [1.0], (0, 0)),
    (["scan", "--engine", "oracle", "--gamma", "0.7", "--z", "1:1.2:0.1"],
     [1.0, 1.1, 1.2], (0, 0)),
    (["selfcheck"], [0.5], (2, 0)),
], ids=["compare", "scan", "selfcheck"])
def test_oracle_dt_coarser_than_the_default_warns_once(tmp_path, capsys, dt,
                                                       argv, z_values, codes):
    # the warning names both steps and each z; exit codes are as without it
    out = [] if argv[0] == "selfcheck" else ["--out", str(tmp_path / "out.csv")]
    code = run([*argv, "--oracle-dt", dt, *out])
    warned = [line for line in capsys.readouterr().err.splitlines()
              if "--oracle-dt" in line]
    if dt == "0.001":
        assert code == codes[1] and warned == []
        return
    assert code == codes[0]
    points = ", ".join(
        f"z={z:g} ({default_time_step(from_dimensionless(0.7, z)):.3g})"
        for z in z_values)
    assert warned == [f"warning: --oracle-dt 1e+300 is coarser than the oracle's "
                      f"default step at {points}: the march may be unresolved there"]


def test_fixed_gamma_reaches_the_semiclassical_engine_as_one_number(
        tmp_path, monkeypatch):
    import drivendelta.cli as cli_mod

    real = cli_mod.semiclassical.rate_between_cycles
    ndims = []

    def recorded(params, n_first, n_last, include_odd=False):
        ndims.append(np.ndim(params.gamma))
        return real(params, n_first, n_last, include_odd=include_odd)

    monkeypatch.setattr(cli_mod.semiclassical, "rate_between_cycles", recorded)
    assert run(["scan", "--gamma", "0.7", "--z", "8:9:0.1",
                "--out", str(tmp_path / "scan.csv")]) == 0
    assert run(["compare", "--gamma", "0.7", "--z", "5:5.1:0.1", "--cycles", "2",
                "--out", str(tmp_path / "cmp.csv")]) == 0
    assert ndims == [0, 0]
    # the output columns still give gamma at every sample
    for name, size in (("scan.csv", 11), ("cmp.csv", 2)):
        with open(tmp_path / name) as fh:
            assert [row["gamma_param"] for row in csv.DictReader(fh)] == \
                ["0.7"] * size


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
    names = [line[len("[ok] "):].split("  (")[0]
             for line in out.splitlines() if line.startswith("[ok] ")]
    assert names == [
        "complex-time identities cos/sin(t0)",
        "branched sqrt sheet",
        "parameter round trip",
        "saddle point vs quadrature",
        "action closed form vs contour quadrature",
        "one-period packet assembly",
        "barrier demo i*pi",
        "oracle field-off unitarity",
    ]
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
