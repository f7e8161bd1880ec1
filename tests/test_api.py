"""Public names: every export resolves, and removed names stay removed."""

import importlib

import pytest

import nicholslie

MODULES = ["scalar", "braiding", "freealg", "graphs", "nichols", "lie", "verify", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nicholslie.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_top_level_names_are_module_exports():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"nicholslie.{name}").__all__)
    top = [
        attr for attr in vars(nicholslie)
        if not attr.startswith("_") and attr not in MODULES
    ]
    assert top
    assert [attr for attr in top if attr not in exported] == []


@pytest.mark.parametrize(
    "module, path",
    [
        ("freealg", "multiply"),
        ("freealg", "tree_leaf_count"),
        ("freealg", "FreeElement.is_homogeneous"),
        ("braiding", "BraidingMatrix.p"),
        ("braiding", "BraidingMatrix.entry_inv"),
        ("nichols", "NicholsVector.row"),
        ("lie", "_check_kind"),
        ("cli", "eval_bracket_expr"),
        ("cli", "format_bracket_expr"),
    ],
)
def test_removed_names_stay_removed(module, path):
    owner = importlib.import_module(f"nicholslie.{module}")
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, attr)
