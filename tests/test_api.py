"""The public surface: every exported name exists."""
import importlib
import inspect
import json
import pkgutil

import numpy as np

import trialmix
from trialmix.io import write_map_pgm


def test_public_names_resolve():
    # perfbench's tracer wraps exactly these names, so a stale entry
    # would drop a layer from its spans without an error
    modules = [trialmix] + [
        importlib.import_module(f"trialmix.{m.name}")
        for m in pkgutil.iter_modules(trialmix.__path__)
        if m.name != "__main__"
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) > 10
    assert missing == []


# perfbench/tracer.py reads these arguments by name from the calls it
# wraps; renaming one would fail every traced run with a KeyError
TRACED_ARGUMENTS = {
    **{f"io.{name}": "path" for name in (
        "write_csv", "read_params_json", "write_params_json", "read_dataset",
        "write_dataset", "read_truth", "write_map_pgm")},
    **{f"kernels.{name}": "resid" for name in (
        "quad_forms_kron", "scatter_within", "scatter_between")},
}


def test_traced_arguments_keep_their_names():
    missing = []
    for name, argument in TRACED_ARGUMENTS.items():
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"trialmix.{module}"), attr)
        if argument not in inspect.signature(fn).parameters:
            missing.append(f"{name}({argument})")
    assert missing == []


def test_map_sidecar_lists_the_slice_files(tmp_path):
    # the tracer counts the bytes of the files the sidecar lists
    write_map_pgm(np.arange(12.0).reshape(2, 2, 3), str(tmp_path / "m.pgm"))
    with open(tmp_path / "m.json") as f:
        files = json.load(f)["files"]
    assert files == ["m_s000.pgm", "m_s001.pgm", "m_s002.pgm"]
    assert all((tmp_path / name).is_file() for name in files)
