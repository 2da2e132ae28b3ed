import random
from concurrent.futures import ProcessPoolExecutor

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
    """Every process pool the test opens, wherever its class was imported."""
    opened = []
    init = ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
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
