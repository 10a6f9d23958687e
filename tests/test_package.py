"""Every module's public names import: no ``__all__`` entry is stale, and
every ``<module>.<name>`` the README names exists.  The package imports
only the standard library, numpy and itself, and no command loads scipy."""

import ast
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


def test_package_imports_only_stdlib_numpy_and_itself():
    # an import on a path no test runs is still caught here
    allowed = set(sys.stdlib_module_names) | {"numpy", "drivendelta"}
    found = set()
    for path in Path(drivendelta.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module))
    assert {name.split(".")[0] for _, name in found} >= {"numpy", "math"}
    assert sorted((f, name) for f, name in found
                  if name.split(".")[0] not in allowed) == []


@pytest.mark.parametrize("argv, out, rows", [
    (None, None, None),
    (["scan", "--engine", "semiclassical", "--gamma", "0.7", "--z", "6:8:0.01",
      "--format", "both"], "scan", 202),
    (["scan", "--engine", "oracle", "--gamma", "0.7", "--z", "1:1.2:0.1",
      "--format", "both"], "oracle", 4),
    (["compare", "--gamma", "0.7", "--z", "1:1.2:0.1", "--cycles", "2"],
     "compare.csv", 4),
    (["thresholds", "--gamma", "0.7", "--z", "6:8"], None, None),
    (["selfcheck"], None, None),
    (["demo-appendix-c"], None, None),
], ids=["import", "semiclassical-scan", "oracle-scan", "compare", "thresholds",
        "selfcheck", "demo-appendix-c"])
def test_no_command_loads_scipy(tmp_path, argv, out, rows):
    # erfcx, the projection, the cycle-average quadrature and the barrier
    # integral are numpy code
    if out is not None:
        argv = [*argv, "--out", str(tmp_path / out)]
    assert _scipy_after(argv, tmp_path) == []
    if out is not None:
        out = tmp_path / out
        with open(out.with_suffix(".csv")) as fh:
            assert len(fh.read().splitlines()) == rows
        assert out.with_suffix(".json").is_file() == ("both" in argv)
