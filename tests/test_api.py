"""Public names: every export resolves, and removed names stay removed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import nicholslie
from nicholslie.lie import monomial_membership

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
        ("freealg", "FreeElement.canonical_key"),
        ("braiding", "BraidingMatrix.p"),
        ("braiding", "BraidingMatrix.entry_inv"),
        ("braiding", "BraidingMatrix._word_pairing_cache"),
        ("braiding", "BraidingMatrix._inv_is_one"),
        ("braiding", "BraidingMatrix._build_inverse_tables"),
        ("braiding", "BraidingMatrix._shuffle_memos"),
        ("braiding", "BraidingMatrix._span_shapes"),
        ("graphs", "_UnionFind"),
        ("graphs", "_check_kind"),
        ("freealg", "_check_bracket_kind"),
        ("nichols", "NicholsVector.row"),
        ("nichols", "_bound_degree"),
        ("nichols", "_apply_braid_transposition"),
        ("nichols", "_derivations"),
        ("lie", "_check_kind"),
        ("cli", "eval_bracket_expr"),
        ("cli", "format_bracket_expr"),
        ("cli", "_bracketing_of"),
        ("scalar", "_modulus"),
        ("scalar", "_zip_pad"),
        ("scalar", "_poly_mul"),
        ("scalar", "_poly_divmod"),
        ("scalar", "_reduce"),
        ("scalar", "_ScalarParser"),
        ("scalar", "_root_table"),
    ],
)
def test_removed_names_stay_removed(module, path):
    owner = importlib.import_module(f"nicholslie.{module}")
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, attr)


def test_monomial_membership_takes_no_span():
    assert "span" not in inspect.signature(monomial_membership).parameters
    B = nicholslie.BraidingMatrix.from_strings([["2"]], 1)
    with pytest.raises(TypeError):
        monomial_membership(B, (1,), "braided", span=None)


def _tracer_targets():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr_path) for module, attr_path, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, path", _tracer_targets())
def test_benchmark_tracer_targets_resolve(module, path):
    """The benchmark wraps these names by path; a rename must not silently
    drop a layer from its per-layer figures."""
    owner = importlib.import_module(f"nicholslie.{module}")
    for attr in path.split("."):
        assert hasattr(owner, attr), f"nicholslie.{module}.{path}"
        owner = getattr(owner, attr)
    assert callable(owner)
