import importlib

import pytest

MODULES = ["parrondo_maps"] + [
    f"parrondo_maps.{name}" for name in ("circle", "profiles", "planar", "highdim", "dynamics", "ifs")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    # A star import looks up every __all__ entry and raises on a stale one.
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
