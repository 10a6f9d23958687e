"""Every module's public names import: no ``__all__`` entry is stale, and
every ``<module>.<name>`` the README names exists.  The CLI and its
semiclassical path start without scipy; the oracle loads it on demand."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drivendelta

SRC = str(Path(drivendelta.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("model", "adiabatic", "semiclassical", "oracle", "analysis", "cli",
           "errors")


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(drivendelta.__path__)))
def test_star_import(name):
    namespace = {}
    exec(f"from drivendelta.{name} import *", namespace)
    assert set(namespace) - {"__builtins__"}


def _readme_references():
    """Each ``<module>.<name>`` inside a code span of the README."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    reference = re.compile(r"(?<![\w.])(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))
    return sorted({match for span in re.findall(r"`([^`]+)`", text)
                   for match in reference.findall(span)})


def test_readme_names_only_what_exists():
    references = _readme_references()
    assert len(references) >= 10
    missing = [f"{module}.{name}" for module, name in references
               if not hasattr(importlib.import_module(f"drivendelta.{module}"), name)]
    assert missing == []


def _scipy_after(argv, tmp_path):
    """The scipy modules a fresh interpreter holds after importing the CLI,
    building its parser and, if ``argv`` is given, running it."""
    code = ["import json, sys", "import drivendelta.cli as cli",
            "cli.build_parser()"]
    if argv is not None:
        code.append(f"assert cli.main({argv!r}) == 0")
    code.append("print(json.dumps(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy')))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    None,
    ["scan", "--engine", "semiclassical", "--gamma", "0.7", "--z", "6:8:0.01",
     "--format", "both"],
    ["thresholds", "--gamma", "0.7", "--z", "6:8"],
], ids=["import", "semiclassical-scan", "thresholds"])
def test_cli_and_semiclassical_path_load_no_scipy(tmp_path, argv):
    if argv is not None and argv[0] == "scan":
        argv = [*argv, "--out", str(tmp_path / "scan")]
    assert _scipy_after(argv, tmp_path) == []
    if argv is not None and argv[0] == "scan":
        assert (tmp_path / "scan.csv").is_file()
        assert (tmp_path / "scan.json").is_file()


def test_oracle_scan_loads_scipy_on_demand(tmp_path):
    out = tmp_path / "oracle"
    loaded = _scipy_after(["scan", "--engine", "oracle", "--gamma", "0.7",
                           "--z", "1:1.2:0.1", "--format", "both",
                           "--out", str(out)], tmp_path)
    # erfcx is the one scipy function the oracle uses: the projection's
    # interpolant and Simpson rule are numpy code
    assert "scipy.special" in loaded
    assert not [m for m in loaded
                if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "interpolate"])]
    with open(out.with_suffix(".csv")) as fh:
        assert len(fh.read().splitlines()) == 4
