import random

import pytest
from hypothesis import settings

from stereoedit.catalog import build_catalog
from stereoedit.demo import build_demo_catalog
from stereoedit.pipeline import sample_scene

# properties render audio, and no run reads what an earlier run saved
settings.register_profile("stereoedit", deadline=None, database=None)
settings.load_profile("stereoedit")


@pytest.fixture
def opened_pools(monkeypatch):
    """Every process pool the test opens, counted by a ProcessPoolExecutor
    subclass patched into the pipeline module."""
    import stereoedit.pipeline as pl

    opened = []

    class CountingPool(pl.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pl, "ProcessPoolExecutor", CountingPool)
    return opened


@pytest.fixture(scope="session")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    build_demo_catalog(root, seed=0)
    return root


@pytest.fixture(scope="session")
def catalog(catalog_root):
    return build_catalog(catalog_root)


@pytest.fixture
def make_scene(catalog):
    def _make(seed=0, k_min=2, k_max=5, duration=10.0):
        return sample_scene(catalog, random.Random(seed), k_min, k_max, duration)

    return _make
