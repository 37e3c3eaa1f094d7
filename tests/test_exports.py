import importlib

MODULES = ("datacube", "formation", "harness", "masks", "metrics", "operators",
           "regularizers", "solver")


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"mrcakit.{name}")
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"exported names without an attribute: {missing}"
