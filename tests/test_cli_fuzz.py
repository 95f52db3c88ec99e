"""main on any bundle the format can hold, and on extreme values of every
run config field, in-process.

Every run ends in exit 0, or in exit 2 or 3 with exactly one JSON line
on stderr and the output directory exactly as it was before the run.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import typing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trialmix.cli import main
from trialmix.io import ARTIFACTS, _check, read_dataset, write_dataset
from trialmix.simulate import SimConfig, simulate_dataset
from trialmix.types import Dims

from helpers import OVERSIZED_GRIDS, config_fields

EDITS = ("none", "flat", "identical", "constant-epochs", "huge")
CORRUPTIONS = ("nan", "inf", "truncate", "header-cut", "header-value",
               "coords-cell", "design-shift")
HEADER_KEYS = ("version", "endianness", "tr", "stimulus_times", "mask_shape",
               "n_times", "n_epochs", "n_voxels", "n_covariates")
BAD_VALUES = (None, "x", -1, 0, 2.5, 10**30, 10**6, [], {}, [[0, 0, 0]],
              *OVERSIZED_GRIDS)
PREVIOUS = {"mine.txt": b"mine\n", "report.json": b"old\n"}


def _edit_series(series, edit, n_epochs, n_times):
    """A series the simulator would not draw but the format can hold."""
    if edit == "flat":
        series[: max(1, series.shape[0] // 2)] = 0.0
    elif edit == "identical":
        series[:] = series[0]
    elif edit == "constant-epochs":
        by_epoch = series.reshape(-1, n_epochs, n_times)
        by_epoch[:] = by_epoch[:, :1]
    elif edit == "huge":  # finite, but the series variance overflows
        series *= 1e200


def _corrupt(bundle, corruption, where, value):
    data = os.path.join(bundle, "data.f64")
    header = os.path.join(bundle, "header.json")
    if corruption in ("nan", "inf"):
        series = np.fromfile(data, dtype="<f8")
        series[where % series.size] = np.nan if corruption == "nan" else -np.inf
        series.tofile(data)
    elif corruption == "truncate":
        os.truncate(data, where % os.path.getsize(data))
    elif corruption == "header-cut":
        with open(header, "rb") as f:
            raw = f.read()
        with open(header, "wb") as f:
            f.write(raw[: where % len(raw)])
    elif corruption == "header-value":
        with open(header) as f:
            obj = json.load(f)
        key = HEADER_KEYS[where % len(HEADER_KEYS)]
        (obj["dims"] if key.startswith("n_") else obj)[key] = value
        with open(header, "w") as f:
            json.dump(obj, f)
    elif corruption == "coords-cell":
        # one coordinate of coords.csv replaced by the value's JSON text
        coords = os.path.join(bundle, "coords.csv")
        with open(coords) as f:
            head, *rows = f.read().splitlines()
        cells = rows[where % len(rows)].split(",")
        cells[where % 3] = json.dumps(value)
        rows[where % len(rows)] = ",".join(cells)
        with open(coords, "w") as f:
            f.write("\n".join([head, *rows]) + "\n")
    elif corruption == "design-shift":
        # well formed, but no column is mean-centered any more
        design = os.path.join(bundle, "design.csv")
        with open(design) as f:
            head, *rows = f.read().splitlines()
        rows = [",".join(repr(float(c) + 1.0) for c in r.split(",")) for r in rows]
        with open(design, "w") as f:
            f.write("\n".join([head, *rows]) + "\n")


def _snapshot(root):
    """Every file's bytes and every folder under root; None if absent."""
    if not os.path.lexists(root):
        return None
    tree = {}
    for folder, _, names in os.walk(root):
        tree[os.path.relpath(folder, root)] = None
        for name in names:
            with open(os.path.join(folder, name), "rb") as f:
                tree[os.path.relpath(os.path.join(folder, name), root)] = f.read()
    return tree


def _main_keeps_rule(argv, out, previous):
    """Run main with ``--out out``, which holds PREVIOUS first when
    ``previous``, check the outcome against the fuzz rule and return the
    exit code."""
    if previous:
        os.mkdir(out)
        for name, raw in PREVIOUS.items():
            with open(os.path.join(out, name), "wb") as f:
                f.write(raw)
    before = _snapshot(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(argv + ["--out", out])
    assert rc in (0, 2, 3)
    after = _snapshot(out)
    if rc:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"]["code"] == rc
        assert after == before
    else:
        assert stdout.getvalue().count("\n") == 1
        assert not [p for p in after if ".tmp-" in p]
        if previous:
            assert after["mine.txt"] == PREVIOUS["mine.txt"]
    return rc


def _run(command, dataset, min_cluster, previous, smooth_fwhm, corrupt=None):
    """Write the bundle, corrupt it, run main on it, check the outcome and
    return the exit code."""
    with tempfile.TemporaryDirectory() as root:
        bundle = os.path.join(root, "dataset")
        write_dataset(dataset, bundle)
        if corrupt is not None:
            _corrupt(bundle, *corrupt)
        config = os.path.join(root, "config.json")
        with open(config, "w") as f:
            json.dump({"em": {"max_iter": 60},
                       "preprocess": {"smooth_fwhm": smooth_fwhm},
                       "inference": {"min_cluster": min_cluster},
                       "pcs": {"n_components": 2}}, f)
        return _main_keeps_rule([command, bundle, "--config", config],
                                os.path.join(root, "out"), previous)


COMMANDS = st.sampled_from(["report", "preprocess"])
SMOOTH_FWHM = st.sampled_from([0.0, 2.0])


@settings(max_examples=100)
@given(
    command=COMMANDS,
    n_voxels=st.sampled_from([30, 3, 2, 1]),
    n_times=st.integers(2, 6),
    n_epochs=st.sampled_from([4, 2, 1]),
    n_covariates=st.integers(0, 1),
    active_frac=st.sampled_from([0.3, 0.0, 1.0]),
    seed=st.integers(0, 3),
    edit=st.sampled_from(EDITS),
    min_cluster=st.sampled_from([1, 5]),
    previous=st.booleans(),
    smooth_fwhm=SMOOTH_FWHM,
)
@example("report", 30, 6, 4, 1, 0.3, 0, "flat", 1, True, 0.0)
@example("report", 30, 6, 4, 1, 0.3, 0, "identical", 1, False, 0.0)
@example("report", 30, 6, 4, 1, 0.3, 1, "constant-epochs", 1, True, 0.0)
@example("report", 30, 6, 1, 1, 0.3, 0, "none", 1, True, 0.0)
@example("report", 3, 4, 2, 0, 0.3, 0, "none", 1, False, 0.0)
@example("preprocess", 1, 2, 1, 0, 0.3, 0, "none", 1, False, 0.0)
@example("report", 30, 5, 4, 1, 0.0, 2, "none", 1, True, 0.0)
@example("report", 30, 5, 4, 1, 1.0, 0, "none", 1, True, 0.0)
@example("preprocess", 30, 6, 4, 1, 0.3, 0, "huge", 1, True, 2.0)
@example("fit", 30, 6, 4, 1, 0.3, 0, "huge", 1, True, 0.0)
@example("compare", 30, 6, 4, 1, 0.3, 0, "huge", 1, False, 0.0)
@example("report", 30, 6, 4, 1, 0.3, 0, "huge", 1, True, 0.0)
def test_main_on_degenerate_bundles(
    command, n_voxels, n_times, n_epochs, n_covariates, active_frac, seed,
    edit, min_cluster, previous, smooth_fwhm,
):
    sim = SimConfig(n_voxels=n_voxels, n_times=n_times, n_epochs=n_epochs,
                    n_covariates=n_covariates, active_frac=active_frac)
    dataset, _ = simulate_dataset(sim, seed=seed)
    _edit_series(dataset.series, edit, n_epochs, n_times)
    _run(command, dataset, min_cluster, previous, smooth_fwhm)


SMALL, _ = simulate_dataset(
    SimConfig(n_voxels=30, n_times=4, n_epochs=2, n_covariates=1), seed=0
)


@settings(max_examples=100)
@given(
    command=COMMANDS,
    corruption=st.sampled_from(CORRUPTIONS),
    where=st.integers(0, 10**6),
    value=st.sampled_from(BAD_VALUES),
    previous=st.booleans(),
    smooth_fwhm=SMOOTH_FWHM,
)
@example("report", "nan", 17, None, True, 0.0)
@example("preprocess", "inf", 5, None, True, 0.0)
@example("report", "truncate", 99, None, True, 0.0)
@example("report", "header-cut", 40, None, False, 0.0)
@example("preprocess", "header-value", 2, 0, True, 0.0)
@example("preprocess", "header-value", 4, None, True, 2.0)  # mask_shape null
@example("report", "design-shift", 0, None, True, 0.0)
@example("report", "header-value", 8, 2.5, True, 0.0)  # n_covariates
@example("preprocess", "header-value", 6, 2.5, True, 0.0)  # n_epochs
@example("report", "header-value", 4, OVERSIZED_GRIDS[0], True, 0.0)
@example("report", "header-value", 4, OVERSIZED_GRIDS[1], False, 0.0)
@example("report", "header-value", 4, OVERSIZED_GRIDS[2], True, 0.0)
@example("report", "coords-cell", 7, 2.5, True, 0.0)
@example("preprocess", "coords-cell", 3, 10**6, False, 2.0)
def test_main_on_corrupted_bundles(command, corruption, where, value, previous,
                                   smooth_fwhm):
    rc = _run(command, SMALL, 1, previous, smooth_fwhm,
              (corruption, where, value))
    if corruption == "design-shift" and command == "report":
        assert rc == 3
    if corruption == "header-value" and value in OVERSIZED_GRIDS:
        # as a mask_shape past the volume bound, or as any other key's value
        assert rc == 2
    if corruption in ("header-value", "coords-cell"):
        # a value the declaration does not take must exit 2
        key = HEADER_KEYS[where % len(HEADER_KEYS)]
        hint = (int if corruption == "coords-cell"  # one coordinate
                else typing.get_type_hints(Dims)[key] if key.startswith("n_")
                else ARTIFACTS["header.json"][key])
        try:
            _check(value, hint)
        except TypeError:
            assert rc == 2


CONFIG_FIELDS = list(config_fields())
# the command that reads each section; the top-level seed is simulate's
READER = {None: "simulate", "simulate": "simulate", "preprocess": "preprocess",
          "em": "fit", "fit": "fit", "inference": "infer", "pcs": "pcs",
          "compare": "compare"}
EXTREMES = (0, -1, 0.5, -1e-300, 1e300, 10**30, 2**63,
            sys.float_info.max, -sys.float_info.max)
TINY = {"simulate": {"n_voxels": 60, "n_times": 6, "n_epochs": 4,
                     "n_covariates": 1},
        "em": {"max_iter": 30}, "inference": {"min_cluster": 1},
        "pcs": {"n_components": 2}}


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """A tiny bundle and its fit and inference directories, made by main."""
    root = tmp_path_factory.mktemp("staged")
    config = str(root / "config.json")
    with open(config, "w") as f:
        json.dump(TINY, f)
    bundle = str(root / "sim" / "dataset")
    fit, infer = str(root / "fit"), str(root / "infer")
    for argv, out in ((["simulate"], str(root / "sim")),
                      (["fit", bundle], fit), (["infer", bundle, fit], infer)):
        assert _main_keeps_rule(argv + ["--config", config], out, False) == 0
    return {"simulate": [], "preprocess": [bundle], "fit": [bundle],
            "infer": [bundle, fit], "pcs": [bundle, fit, infer],
            "compare": [bundle]}


CASES = [(*field, value) for field in CONFIG_FIELDS for value in EXTREMES]


@settings(derandomize=True, max_examples=len(CASES), deadline=None)
@given(case=st.sampled_from(CASES))
def test_main_on_extreme_config_values(staged, case):
    section, name, default, value = case
    if isinstance(default, tuple):  # voxel_size and models: one entry
        value = [value, *default[1:]]
    config = json.loads(json.dumps(TINY))
    (config.setdefault(section, {}) if section else config)[name] = value
    command = READER[section]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "config.json")
        with open(path, "w") as f:
            json.dump(config, f)
        out = os.path.join(root, "out")
        rc = _main_keeps_rule([command, *staged[command], "--config", path],
                              out, True)
        if command == "simulate" and rc == 0:
            read_dataset(os.path.join(out, "dataset"))


FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_small(x):
    assert x < 10
'''


def test_failing_example_is_reported_under_the_suite_settings(tmp_path):
    # a failure found by the fuzz tests above must end in a report of its
    # example, not in an INTERNALERROR from the warning filters
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", pyproject, "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", str(path)],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
