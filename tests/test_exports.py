"""Every public export resolves, and the removed entry points stay removed."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["repro", "repro.api", "repro.walks"])
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize("module_name, name", [
    ("repro", "GraphAPI"),
    ("repro.api", "GraphAPI"),
    ("repro", "Session"),
    ("repro.api", "Session"),
])
def test_removed_entry_points_do_not_import(module_name, name):
    with pytest.raises(ImportError):
        exec(f"from {module_name} import {name}", {})
