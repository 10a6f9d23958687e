"""Every module's public names import: no ``__all__`` entry is stale."""

import pkgutil

import pytest

import drivendelta


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(drivendelta.__path__)))
def test_star_import(name):
    namespace = {}
    exec(f"from drivendelta.{name} import *", namespace)
    assert set(namespace) - {"__builtins__"}
