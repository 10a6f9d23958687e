"""No command of the CLI translates an exception into a usage error itself.

``cli.main`` reports any ValueError as a usage error (exit 1) and any
``errors.NumericError`` as a numeric failure (exit 2), so a handler that
catches an exception only to raise ``_UsageError(str(exc))`` repeats that
rule in one place and leaves it out of the others.  The test reads
``src/drivendelta/cli.py`` (read only) with ``ast`` for such handlers.
"""

import ast
from pathlib import Path

CLI_PY = Path(__file__).resolve().parents[1] / "src" / "drivendelta" / "cli.py"


def _reraises_as_usage_error(handler):
    """Whether an ``except ... as name`` handler raises
    ``_UsageError(str(name))``."""
    for node in ast.walk(handler):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "_UsageError"):
            continue
        for arg in call.args:
            if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                    and arg.func.id == "str"
                    and any(isinstance(a, ast.Name) and a.id == handler.name
                            for a in arg.args)):
                return True
    return False


def test_no_handler_reraises_its_exception_as_usage_error():
    tree = ast.parse(CLI_PY.read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and node.name
             and _reraises_as_usage_error(node)]
    assert lines == []
