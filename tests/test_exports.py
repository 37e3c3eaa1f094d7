import importlib
import os
import subprocess
import sys

import pytest

MODULES = ("datacube", "formation", "harness", "masks", "metrics", "operators",
           "regularizers", "solver")


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"mrcakit.{name}")
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"exported names without an attribute: {missing}"


# scipy subpackages that the package does not use; loading them would about
# double the start-up time and the memory of `import mrcakit`.
UNUSED_SCIPY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.sparse",
                "scipy.optimize")


@pytest.mark.parametrize("module", ["mrcakit", "mrcakit.cli"])
def test_import_loads_no_unused_scipy_subpackage(module):
    probe = (f"import sys, {module}; "
             f"print(' '.join(m for m in {UNUSED_SCIPY!r} if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(importlib.import_module("mrcakit").__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == []
