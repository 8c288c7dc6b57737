"""The package's public names agree: every module's __all__ names a real
attribute, and the package re-exports only names in those lists."""
import ast
import importlib
import inspect
import pathlib
import re

import pytest

import cobweb
from cobweb import errors

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


# the entry points whose work a cap bounds, each taking one caps=errors.Caps
CAPPED = [
    ("poset", "enumerate_chains"),
    ("poset", "enumerate_placements"),
    ("tiling", "tile_additive"),
    ("tiling", "tile_fibonacci"),
    ("tiling", "enumerate_tilings"),
]


LIBRARY = ("fseq", "poset", "tiling", "seqalg")


def public_parameters(name):
    """(entry, parameter names) of each public function or class of a module."""
    module = importlib.import_module(f"cobweb.{name}")
    for entry in module.__all__:
        target = getattr(module, entry)
        if inspect.isfunction(target) or inspect.isclass(target):
            # not a constant or a type alias such as poset.Chain
            yield entry, inspect.signature(target).parameters


@pytest.mark.parametrize("name", LIBRARY)
def test_no_cap_keyword_but_caps(name):
    for entry, params in public_parameters(name):
        stray = [p for p in params if p == "cap" or p.endswith("_cap")]
        assert stray == [], (name, entry)
        assert ("caps" in params) == ((name, entry) in CAPPED), (name, entry)


@pytest.mark.parametrize("name", LIBRARY)
def test_no_decimal_keyword(name):
    # values cross the public API as int, Fraction or str, never as Decimal
    for entry, params in public_parameters(name):
        assert "decimal" not in params, (name, entry)


def test_caps_names_and_defaults():
    with pytest.raises(TypeError):
        errors.Caps(node=1)
    # the README's cap table gives each default as 10^e
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| (\w+) \| `10\^(\d+)` \|", readme, re.M))
    assert errors.Caps().limits == {name: 10 ** int(e) for name, e in table.items()}
    assert errors.Caps(nodes=5).limits == {**errors.CAP_DEFAULTS, "nodes": 5}
