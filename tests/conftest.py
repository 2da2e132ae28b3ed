import random

import pytest
from hypothesis import strategies as st

from stereoedit.catalog import build_catalog
from stereoedit.demo import build_demo_catalog
from stereoedit.pipeline import sample_scene
from stereoedit.plans import Add, Change, Extract, Remove, TurnDown, TurnUp
from stereoedit.spatial import Direction

_LABELS = st.sampled_from(["rain", "dog bark", "rooster crowing",
                           "bell ring", "bell ring 2", "water waves",
                           "footsteps on gravel"])
_DIRECTIONS = st.sampled_from(Direction)
# quarter-dB steps, signed: each prints as a plain decimal the grammar reads
_DB = st.integers(-48, 48).map(lambda quarters: quarters / 4)

# Every atomic step type, with each optional field both unset and set.
atomic_steps = st.one_of(
    st.builds(Add, label=_LABELS, direction=st.none() | _DIRECTIONS,
              gain_db=st.none() | _DB),
    st.builds(Remove, label=_LABELS, direction=st.none() | _DIRECTIONS),
    st.builds(Extract, label=_LABELS, direction=st.none() | _DIRECTIONS),
    st.builds(TurnUp, label=_LABELS, delta_db=_DB),
    st.builds(TurnDown, label=_LABELS, delta_db=_DB),
    st.builds(Change, label=_LABELS, to=_DIRECTIONS,
              from_=st.none() | _DIRECTIONS),
)


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
