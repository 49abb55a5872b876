import ast
import importlib
import pathlib
import pkgutil

import pytest

import carnot_calc

MODULES = sorted(m.name for m in pkgutil.iter_modules(carnot_calc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    mod = importlib.import_module("carnot_calc." + name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_every_package_import_resolves():
    # the names carnot_calc/__init__ imports, read from its source, must
    # exist both in the package and in the module they come from
    tree = ast.parse(pathlib.Path(carnot_calc.__file__).read_text())
    pairs = [(node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert pairs
    missing = [(m, n) for m, n in pairs
               if not hasattr(carnot_calc, n)
               or not hasattr(importlib.import_module("carnot_calc." + m), n)]
    assert missing == []
