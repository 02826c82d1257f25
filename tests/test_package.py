"""The package namespace: every exported name resolves, and nothing else is exported."""

import importlib

import sparsespectra

LIBRARY_MODULES = ("measures", "families", "degrees", "graphs", "spectrum", "limit_law", "support")


def test_every_module_export_resolves_and_the_package_exports_their_union():
    union = set()
    for layer in (*LIBRARY_MODULES, "tables", "cli"):
        module = importlib.import_module(f"sparsespectra.{layer}")
        for name in module.__all__:
            assert hasattr(module, name), f"{layer}.__all__ names missing {name}"
        if layer in LIBRARY_MODULES:
            union.update(module.__all__)
    assert len(sparsespectra.__all__) == len(set(sparsespectra.__all__))
    assert set(sparsespectra.__all__) == union
    for name in sparsespectra.__all__:
        assert hasattr(sparsespectra, name), name
