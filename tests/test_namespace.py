"""The package namespace republishes each module's ``__all__``, and the
README's Library table names every one of those names in its module's row."""

import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

import cutmetrics

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("graph", "linalg", "measures", "distances", "oracle", "types", "errors")


def _module(name):
    return importlib.import_module(f"cutmetrics.{name}")


def test_package_exports_each_module_name_once():
    exported = [(module, name) for module in MODULES for name in _module(module).__all__]
    assert cutmetrics.__all__ == [name for _, name in exported]
    assert len(set(cutmetrics.__all__)) == len(cutmetrics.__all__)
    for module, name in exported:
        assert getattr(cutmetrics, name) is getattr(_module(module), name), name
    public = {
        name for name, value in vars(cutmetrics).items() if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(cutmetrics.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_readme_row_names_every_export(module):
    rows = re.findall(rf"^\| `cutmetrics\.{module}` \|(.*)\|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    assert len(rows) == 1, rows
    missing = [name for name in _module(module).__all__ if not re.search(rf"`{name}[`(]", rows[0])]
    assert not missing, missing
