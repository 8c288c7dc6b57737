"""The package's public names agree: every module's __all__ names a real
attribute, and the package re-exports only names in those lists."""
import ast
import importlib
import pathlib

import pytest

import cobweb

MODULES = ("fseq", "poset", "tiling", "seqalg", "errors", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"cobweb.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == [], name


def test_package_reexports_only_public_names():
    tree = ast.parse(pathlib.Path(cobweb.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES, node.module
        public = importlib.import_module(f"cobweb.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in public]
        assert stray == [], node.module
