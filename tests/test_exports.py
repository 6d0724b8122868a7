"""Every exported name is bound: a deleted function cannot linger in an
__all__ or in the package's imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import neurofl

MODULES = sorted(info.name for info in pkgutil.iter_modules(neurofl.__path__))


def test_every_module_is_found():
    assert {"cli", "config", "controller", "dynamics", "errors", "plants", "rbf", "simulation"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_binds_every_name_in_all(module):
    namespace = {}
    exec(f"from neurofl.{module} import *", namespace)
    # a name in __all__ that the module does not bind fails the import
    assert set(getattr(importlib.import_module(f"neurofl.{module}"), "__all__", ())) <= set(namespace)


def test_every_name_the_package_imports_is_bound():
    tree = ast.parse(Path(neurofl.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"neurofl.{node.module}")
        for alias in node.names:
            # each re-exported name is the object its module defines
            assert getattr(neurofl, alias.asname or alias.name) is getattr(module, alias.name), alias.name
