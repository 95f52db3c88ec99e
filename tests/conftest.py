import os
import pathlib

from hypothesis import settings

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
