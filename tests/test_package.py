import importlib

import pytest

import parrondo_maps

LAYERS = ("circle", "profiles", "planar", "highdim", "dynamics", "ifs")
MODULES = ["parrondo_maps"] + [f"parrondo_maps.{name}" for name in LAYERS]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    # A star import looks up every __all__ entry and raises on a stale one.
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)


@pytest.mark.parametrize("layer", LAYERS)
def test_package_reexports_each_layer_name(layer):
    module = importlib.import_module(f"parrondo_maps.{layer}")
    for name in module.__all__:
        assert getattr(parrondo_maps, name) is getattr(module, name)


def test_package_names_only_the_layers_public_names():
    # Besides the layers' __all__, the namespace holds the submodules alone.
    names = {name for layer in LAYERS for name in importlib.import_module(f"parrondo_maps.{layer}").__all__}
    assert set(parrondo_maps.__all__) - names == set(LAYERS)
