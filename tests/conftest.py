import os
import pathlib

import pytest
from hypothesis import settings

from trialmix import kernels

# the python -m trialmix processes that tests start import the package
# from this checkout, as pytest itself does (pyproject's pythonpath)
SRC = str(pathlib.Path(__file__).parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])

# tier-1 draws the same examples on every run, and a slow example (a
# whole pipeline run) is not a failure
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture
def real_affinity():
    # a fit with a helper pins itself and its helper to parts of the CPU
    # mask it reads and restores that mask; tests that fake the mask get
    # the real one back
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


@pytest.fixture
def two_block_split(monkeypatch, real_affinity):
    """A fit or Lanes that may take a helper takes one from two voxel
    blocks on, with a second CPU faked on a host that has one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(kernels, "SPLIT_BLOCKS", 2)
