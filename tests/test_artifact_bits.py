"""The artifacts' bits, pinned: every file four pipeline runs write hashes to
the SHA-256 digest stored in artifact_digests.json.

The digests hold for the numpy and OpenBLAS versions stored with them;
under other versions the test skips, since a BLAS kernel may round
differently. A change meant to move bits states so and rewrites the
stored digests from the failure message, which lists each differing file
with its new digest.
"""
import contextlib
import hashlib
import io
import json
import pathlib
import warnings

import numpy as np
import pytest

from trialmix.cli import main

DIGESTS = pathlib.Path(__file__).with_name("artifact_digests.json")
# each run: its config and its commands, in order, as (argv, --out), with
# paths relative to the run's folder
RUNS = {
    "report": ({"simulate": {"n_voxels": 1000}}, [
        (["simulate", "--seed", "0"], "sim"),
        (["report", "sim/dataset"], "report"),
    ]),
    "stages": ({"simulate": {"n_voxels": 300, "phase": "jitter"},
                "preprocess": {"smooth_fwhm": 2.0}}, [
        (["simulate", "--seed", "0"], "sim"),
        (["preprocess", "sim/dataset"], "pre"),
        (["fit", "pre/dataset"], "fit"),
    ]),
    # fifteen 256-voxel blocks of preprocessing's per-voxel steps and a
    # 160-voxel last block
    "preprocess": ({"simulate": {"n_voxels": 4000, "phase": "jitter"},
                    "preprocess": {"smooth_fwhm": 2.0}}, [
        (["simulate", "--seed", "0"], "sim"),
        (["preprocess", "sim/dataset"], "pre"),
    ]),
    # ten 256-voxel blocks of every pass over voxels and a 40-voxel last
    # block
    "fit": ({"simulate": {"n_voxels": 2600}}, [
        (["simulate", "--seed", "0"], "sim"),
        (["fit", "sim/dataset"], "fit"),
    ]),
}


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas.get("version")}


def run_digests(root: pathlib.Path) -> dict:
    """Run every pipeline under ``root``; the digest of each file written."""
    for name, (config, steps) in RUNS.items():
        folder = root / name
        folder.mkdir()
        (folder / "config.json").write_text(json.dumps(config))
        for argv, out in steps:
            argv = [str(folder / a) if "/" in a else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rc = main(argv + ["--config", str(folder / "config.json"),
                                  "--out", str(folder / out)])
            assert rc == 0, (name, argv)
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "config.json"}


def test_artifacts_keep_their_bits(tmp_path):
    stored = json.loads(DIGESTS.read_text())
    if stored["versions"] != versions():
        pytest.skip(f"digests stored for {stored['versions']}, "
                    f"running {versions()}")
    got = run_digests(tmp_path)
    differ = sorted(name for name in stored["digests"].keys() | got.keys()
                    if stored["digests"].get(name) != got.get(name))
    assert not differ, "artifacts differ from the stored bits:\n" + "\n".join(
        f"{name}: {got.get(name, 'not written')}" for name in differ)
