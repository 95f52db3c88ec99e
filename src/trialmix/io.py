"""Dataset bundle persistence and result serialization.

A dataset lives in a directory as a tiny self-described format:

    header.json   geometry, timing, format version "2", endianness tag
    data.f64      little-endian float64, voxel-major then time (8*V*N bytes)
    coords.csv    one row of integer coordinates x,y,z per voxel, in the
                  order of data.f64's voxels
    design.csv    N rows by q columns with a header row (absent when q = 0)
    truth.json    optional generator ground truth: seed, jitter undo shifts
                  and the global parameters
    truth.f64     with truth.json: little-endian float64, one row per voxel
                  of label, amplitude and coefficients x1..xq (8*V*(2+q)
                  bytes)

One rule places every value: JSON holds only global values, and per-voxel
values live in tables (CSV files and the float64 files), so no JSON file
grows with the voxel count. A fit directory keeps it too: params.json
holds the global parameters (GLOBAL_PARAMS), and resp.csv one row per
voxel of its responsibility, amplitude and coefficients x1..xq.

Everything round-trips bit-identically: raw bytes for the series, 17
significant digits for CSV floats, shortest-roundtrip repr for JSON
floats; read_fit rebuilds from params.json and resp.csv the parameters
write_fit wrote. CSV output uses '.' decimals, ',' separators, LF line
endings.

Every CSV and JSON file a command writes is declared once, in ARTIFACTS:
its ordered CSV columns or its JSON keys, each with its type (design.csv,
resp.csv and pc_scores.csv, whose columns follow the dims, in
_design_columns, _resp_columns and _pc_columns). Every JSON object read,
the run config too, is checked against its declaration by _check_object,
and every CSV by _read_table. The writers take their layout from the
same declaration: write_csv, the one CSV writer, its header and the type
each column is cast to, and _write_record, the one JSON writer, its keys
and the type each value is cast to (_render, the inverse of _check).

CSV files are rendered a row at a time, not a cell at a time: write_csv
turns each cast column into Python values once (ndarray .tolist()) and
formats every row through one printf template, %.17g for a float column,
integer text for an int or bool (0/1) one and %s for a str one. JSON
files are json.dump(indent=2, sort_keys=True) plus a newline.

OutputDir stages a run's files inside its output directory and moves
them into place together when the run succeeds; a staged directory
(a bundle) replaces the one it lands on whole. A run owns the files of
the stages it runs (STAGE_FILES), by name or by pattern, and an owned
file it did not write is removed, so the directory holds one run's files
and the files the run does not own.
"""
from __future__ import annotations

import errno
import inspect
import itertools
import json
import os
import re
import reprlib
import shutil
import sys
import tempfile
import typing
from dataclasses import MISSING, astuple, fields, is_dataclass

import numpy as np

from .inference import FdrResult
from .modelsel import ModelComparison
from .types import (ActivationMap, Dataset, Dims, FitResult, MixtureParams,
                    SimTruth, validate_params)
from .variability import PcAnalysis

__all__ = [
    "BundleFormatError",
    "OutputDir",
    "write_dataset",
    "read_dataset",
    "read_truth_bytes",
    "write_params_json",
    "read_params_json",
    "write_csv",
    "write_map_pgm",
    "write_svg_curves",
    "write_fit",
    "read_fit",
    "write_infer",
    "read_amap",
    "write_pcs",
    "write_compare",
    "write_report",
]

FORMAT_VERSION = "2"
HEADER_NAME = "header.json"
DATA_NAME = "data.f64"
COORDS_NAME = "coords.csv"
DESIGN_NAME = "design.csv"
TRUTH_NAME = "truth.json"
TRUTH_ARRAYS_NAME = "truth.f64"


class BundleFormatError(ValueError):
    """A bundle file is missing, truncated, or malformed."""


class OutputDir:
    """An output directory that receives a run's files all or none.

    Making it creates ``root`` if needed (OSError if it cannot be a
    directory) and a fresh staging directory inside it, where
    ``path(name)`` points. The run owns the files of ``stages``, keys of
    STAGE_FILES. A clean exit from the ``with`` block removes every owned
    file ``root`` holds that the run did not stage, then moves every
    staged file to its name under ``root``, and every staged directory to
    its name in place of whatever held that name, so ``root`` holds one
    run's files and the files the run does not own; an exception leaves
    ``root`` as it was, or removes it if this run made it. Every
    destination is checked before anything is removed or moved: a staged
    file whose name ``root`` holds as a directory raises IsADirectoryError
    naming that path.
    """

    def __init__(self, root: str, stages: tuple[str, ...]) -> None:
        self.root = root
        self._stages = stages
        self._made = not os.path.isdir(root)
        os.makedirs(root, exist_ok=True)
        self._staging = tempfile.mkdtemp(prefix=".tmp-", dir=root)

    def path(self, name: str) -> str:
        return os.path.join(self._staging, name)

    def __enter__(self) -> "OutputDir":
        return self

    def __exit__(self, exc_type, *_) -> None:
        failed = exc_type is not None
        try:
            if not failed:
                names = os.listdir(self._staging)
                for name in names:
                    dest = os.path.join(self.root, name)
                    if (not os.path.isdir(os.path.join(self._staging, name))
                            and os.path.isdir(dest) and not os.path.islink(dest)):
                        raise IsADirectoryError(
                            errno.EISDIR, "a file of this run cannot replace "
                            "the directory", dest)
                for name in os.listdir(self.root):
                    dest = os.path.join(self.root, name)
                    if (name not in names and _owned(name, self._stages)
                            and not os.path.isdir(dest)):
                        os.remove(dest)
                # what a staged directory replaces moves into the staging
                # directory, removed below
                old = tempfile.mkdtemp(prefix=".old-", dir=self._staging)
                for name in names:
                    staged = os.path.join(self._staging, name)
                    dest = os.path.join(self.root, name)
                    if os.path.isdir(staged) and os.path.lexists(dest):
                        os.rename(dest, os.path.join(old, name))
                    os.replace(staged, dest)
        finally:
            shutil.rmtree(self.root if failed and self._made else self._staging)


def _owned(name: str, stages: tuple[str, ...]) -> bool:
    """Whether ``name`` at the top of an output directory is a file of
    ``stages``: one of their names, or a match of one of their patterns."""
    return any(name == entry if isinstance(entry, str) else entry.fullmatch(name)
               for stage in stages for entry in STAGE_FILES[stage])


# each CSV column type: the type a column is cast to, and its printf
# conversion (%.17g round-trips a float64 exactly)
_CSV_TYPES = {float: (np.float64, "%.17g"), int: (np.int64, "%d"),
              bool: (np.int64, "%d"), str: (str, "%s")}


def write_csv(path: str, declared: dict, columns) -> None:
    """The CSV ``declared`` lays out: its header, then one row per value of
    ``columns``, one sequence or 1-D array per declared column, each cast
    to its declared type. Floats at full precision, LF endings.
    """
    values = [np.asarray(c, dtype=_CSV_TYPES[kind][0]).tolist()
              for c, kind in zip(columns, declared.values(), strict=True)]
    if len({len(v) for v in values}) > 1:
        raise ValueError("columns differ in length")
    template = ",".join(_CSV_TYPES[kind][1] for kind in declared.values()) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(declared) + "\n")
        f.write("".join(map(template.__mod__, zip(*values))))


def _load_json(path: str, name: str, error: type = BundleFormatError) -> dict:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise error(f"{name}: file not found") from None
    except OSError as e:  # a directory, or a path through a file
        raise error(f"{name}: {e.strerror}") from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise error(f"{name}: invalid JSON at byte {e.pos}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise error(f"{name}: not {e.encoding} text: {e.reason}") from None
    if not isinstance(obj, dict):
        raise error(f"{name}: top level must be an object")
    return obj


def _check(value, hint):
    """A JSON value as the type ``hint`` declares, or TypeError.

    Only a bool hint takes true or false. A float hint takes any finite
    number, as a float; a tuple hint a list of its length; a union what
    one of its members takes. An np.ndarray hint takes lists, nested to
    any depth, of finite numbers, as a float64 array.
    """
    args = typing.get_args(hint)
    if isinstance(value, bool) and hint is not bool:
        pass  # json's true and false are no numbers here
    elif hint is float and isinstance(value, (int, float)):
        if abs(value) <= sys.float_info.max:
            return float(value)
    elif hint is np.ndarray and isinstance(value, list):
        return _check_array(value)
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            if args[-1] is Ellipsis:
                args = args[:1] * len(value)
            if len(value) == len(args):
                return tuple(map(_check, value, args))
    elif args:  # a union such as float | None
        for arg in args:
            try:
                return _check(value, arg)
            except TypeError:
                pass
    elif isinstance(value, hint):
        return value
    raise TypeError(hint)


def _check_array(value: list) -> np.ndarray:
    """Nested lists of finite JSON numbers as a float64 array, or TypeError."""
    leaves = value
    while leaves and type(leaves[0]) is list:
        leaves = list(itertools.chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:
        raise TypeError(np.ndarray)
    try:
        array = np.array(value, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged, or out of float64's range
        raise TypeError(np.ndarray) from None
    if not np.isfinite(array).all():
        raise TypeError(np.ndarray)
    return array


def _render(value, hint):
    """``value`` as the JSON value of the type ``hint`` declares: the
    inverse of _check.

    A dataclass or declaration hint gives an object rendered key by key
    from a mapping's items or an object's attributes; an array hint
    nested lists of floats; a tuple hint a list; a union such as
    float | None null for None and its first member's rendering
    otherwise; any other hint (float, int, bool, str) casts.
    """
    if isinstance(hint, dict) or is_dataclass(hint):
        hints = hint if isinstance(hint, dict) else typing.get_type_hints(hint)
        items = value if isinstance(value, dict) else vars(value)
        return {key: _render(items[key], h) for key, h in hints.items()}
    if hint is np.ndarray:
        return np.asarray(value, np.float64).tolist()
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return list(map(_render, value, args))
    if args:
        return None if value is None else _render(value, args[0])
    return hint(value)


def _check_object(obj, schema, name: str, error: type = BundleFormatError,
                  path: str = ""):
    """``obj`` with every key known and every value of its declared type.

    ``schema`` is a dataclass, built from the checked values (a missing
    key keeps its field's default), or a declaration {key: hint},
    returned as a dict of checked values (a missing key reads as null,
    which only a hint that admits None takes). A dataclass or declaration
    hint checks a nested object the same way. A failure raises ``error``,
    its message starting with ``name`` and naming the key by its dotted
    ``path``; _check converts each value.
    """
    prefix = f"{name}: {path}: " if path else f"{name}: "
    if not isinstance(obj, dict):
        raise error(f"{prefix}must be an object")
    if isinstance(schema, dict):
        hints, defaults = schema, set()
    else:
        hints = typing.get_type_hints(schema)
        defaults = {f.name for f in fields(schema) if f.default is not MISSING}
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise error(f"{prefix}unknown key(s) {', '.join(unknown)}; "
                    f"allowed: {', '.join(sorted(hints))}")
    values = {}
    for key, hint in hints.items():
        if key not in obj and key in defaults:
            continue
        where = f"{path}.{key}" if path else key
        if isinstance(hint, dict) or is_dataclass(hint):
            values[key] = _check_object(obj.get(key), hint, name, error, where)
            continue
        try:
            values[key] = _check(obj.get(key), hint)
        except TypeError:
            kind = inspect.formatannotation(hint).replace(
                "numpy.ndarray", "array of finite numbers")
            got = reprlib.repr(obj[key]) if key in obj else "no value"
            raise error(f"{name}: {where}: expected {kind}, got {got}") from None
    if isinstance(schema, dict):
        return values
    try:
        return schema(**values)
    except (TypeError, ValueError) as e:
        raise error(f"{prefix}{e}") from None


def write_dataset(
    dataset: Dataset, path: str,
    truth: SimTruth | tuple[bytes, bytes] | None = None,
) -> None:
    """Write a bundle directory; creates it if needed.

    ``truth`` is ground truth to write into truth.json and truth.f64, or
    the bytes of another bundle's two truth files (read_truth_bytes),
    copied as they are.
    """
    os.makedirs(path, exist_ok=True)
    d = dataset.dims
    _write_record(os.path.join(path, HEADER_NAME), ARTIFACTS[HEADER_NAME], {
        "version": FORMAT_VERSION, "endianness": "little", "dims": d,
        "tr": dataset.tr, "stimulus_times": dataset.stimulus_times,
        "mask_shape": dataset.mask_shape})
    data = np.ascontiguousarray(dataset.series, dtype="<f8")
    with open(os.path.join(path, DATA_NAME), "wb") as f:
        data.tofile(f)
    write_csv(os.path.join(path, COORDS_NAME), ARTIFACTS[COORDS_NAME],
              dataset.coords.T)
    if d.n_covariates > 0:
        write_csv(os.path.join(path, DESIGN_NAME),
                  _design_columns(d.n_covariates), dataset.design.T)
    if isinstance(truth, SimTruth):
        _write_record(os.path.join(path, TRUTH_NAME), ARTIFACTS[TRUTH_NAME],
                      truth)
        rows = np.column_stack([truth.labels, truth.params.amplitude,
                                truth.params.coeffs])
        np.ascontiguousarray(rows, dtype="<f8").tofile(
            os.path.join(path, TRUTH_ARRAYS_NAME))
    elif truth is not None:
        for name, raw in zip((TRUTH_NAME, TRUTH_ARRAYS_NAME), truth, strict=True):
            with open(os.path.join(path, name), "wb") as f:
                f.write(raw)


def _design_columns(n_covariates: int) -> dict:
    """design.csv's declaration: one float column x1..xq per covariate."""
    return {f"x{j + 1}": float for j in range(n_covariates)}


def _resp_columns(n_covariates: int) -> dict:
    """resp.csv's declaration: each voxel's responsibility, amplitude and
    covariate coefficients x1..xq."""
    return {"voxel": int, "resp": float, "amplitude": float,
            **_design_columns(n_covariates)}


def _pc_columns(n_components: int) -> dict:
    """pc_scores.csv's declaration: each active voxel's epoch scores on
    components pc1..pck."""
    return {"voxel": int, "epoch": int,
            **{f"pc{k + 1}": float for k in range(n_components)}}


def read_dataset(path: str) -> Dataset:
    """Read a bundle directory back; exact inverse of write_dataset.

    The format version is checked first, so a bundle of another version
    is refused by its version, not by a key that version has. Unparseable
    files, values of a type other than the declared one, and contents
    the Dataset constructor rejects raise BundleFormatError; the design
    need not be centered.
    """
    raw = _load_json(os.path.join(path, HEADER_NAME), HEADER_NAME)
    version = raw.get("version")
    if isinstance(version, str) and version != FORMAT_VERSION:
        raise BundleFormatError(
            f"{HEADER_NAME}: format version {reprlib.repr(version)} "
            f"unsupported (expected {FORMAT_VERSION!r})"
        )
    header = _check_object(raw, ARTIFACTS[HEADER_NAME], HEADER_NAME)
    if header["endianness"] != "little":
        raise BundleFormatError(
            f"{HEADER_NAME}: endianness {header['endianness']!r} unsupported"
        )
    dims = header["dims"]
    expected = 8 * dims.n_voxels * dims.n_images
    data_path = os.path.join(path, DATA_NAME)
    try:
        actual = os.path.getsize(data_path)
        if actual != expected:
            raise BundleFormatError(
                f"{DATA_NAME}: expected {expected} bytes "
                f"({dims.n_voxels} voxels x {dims.n_images} images x 8), "
                f"found {actual}"
            )
        series = np.fromfile(data_path, dtype="<f8").reshape(
            dims.n_voxels, dims.n_images
        )
    except FileNotFoundError:
        raise BundleFormatError(f"{DATA_NAME}: file not found") from None
    except OSError as e:  # a link that loops, or a file it cannot open
        raise BundleFormatError(f"{DATA_NAME}: {e.strerror}") from None
    coords = np.column_stack(list(_read_table(
        path, COORDS_NAME, dims.n_voxels).values()))
    design = np.zeros((dims.n_images, 0))
    if dims.n_covariates > 0:
        design = np.column_stack(list(_read_table(
            path, DESIGN_NAME, dims.n_images,
            _design_columns(dims.n_covariates)).values()))
    try:
        return Dataset(dims, series, design, coords, header["stimulus_times"],
                       header["tr"], header["mask_shape"])
    except ValueError as e:
        raise BundleFormatError(f"{path}: {e}") from None


def write_params_json(params: MixtureParams, path: str) -> None:
    """params.json: the global parameters of ``params`` (GLOBAL_PARAMS)."""
    _write_record(path, GLOBAL_PARAMS, params)


def read_params_json(path: str) -> dict:
    """params.json's global parameters, by name, checked against
    GLOBAL_PARAMS; read_fit adds resp.csv's per-voxel ones."""
    name = os.path.basename(path)
    return _check_object(_load_json(path, name), ARTIFACTS["params.json"], name)


def read_truth_bytes(path: str) -> tuple[bytes, bytes] | None:
    """A bundle's truth.json and truth.f64 as raw bytes, or None when it
    has neither; one without the other is a BundleFormatError."""
    raws = {}
    for name in (TRUTH_NAME, TRUTH_ARRAYS_NAME):
        try:
            with open(os.path.join(path, name), "rb") as f:
                raws[name] = f.read()
        except FileNotFoundError:
            pass
        except OSError as e:
            raise BundleFormatError(f"{name}: {e.strerror}") from None
    if len(raws) == 1:
        (present,) = raws
        missing = TRUTH_ARRAYS_NAME if present == TRUTH_NAME else TRUTH_NAME
        raise BundleFormatError(
            f"{missing}: file not found, though {present} is present")
    return tuple(raws.values()) or None


def _scale_to_bytes(plane: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi > lo:
        scaled = np.rint(255.0 * (plane - lo) / (hi - lo))
    else:
        # degenerate range: mid-gray by convention, infinities saturate
        scaled = np.where(plane > hi, 255.0, np.where(plane < lo, 0.0, 128.0))
    return np.clip(scaled, 0, 255).astype(np.uint8)


def write_map_pgm(
    field: np.ndarray, path: str, mask: np.ndarray | None = None
) -> None:
    """Grayscale activation-map images, one binary PGM per slice.

    ``field`` is 3-D with slices along the last axis; slice k lands in
    ``path_sNNN.pgm`` (NNN = k). Values are min-max scaled to 0..255
    over the whole (unmasked) field so slices share one gray scale; a
    constant field maps to 128, and infinite values saturate at 0 or
    255 of the finite scale. Voxels outside ``mask`` render as 0. The
    scaling lands in a JSON sidecar next to the images.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ValueError("field must be 3-D")
    masked = mask is not None
    mask = np.asarray(mask if masked else np.ones(field.shape), dtype=bool)
    if mask.shape != field.shape:
        raise ValueError("mask shape must match field shape")
    visible = field[mask]
    if np.any(np.isnan(visible)):
        raise ValueError("field values must be finite or infinite, not NaN")
    finite = visible[np.isfinite(visible)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    stem = path[:-4] if path.endswith(".pgm") else path
    files = []
    for k in range(field.shape[2]):
        pixels = np.where(mask[:, :, k], _scale_to_bytes(field[:, :, k], lo, hi),
                          np.uint8(0))
        h, w = pixels.shape
        out = f"{stem}_s{k:03d}.pgm"
        with open(out, "wb") as f:
            f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            f.write(pixels.tobytes())
        files.append(os.path.basename(out))
    _write_record(stem + ".json", MAP_SIDECAR, {
        "min": lo, "max": hi, "maxval": 255, "constant": hi <= lo,
        "masked": masked, "files": files})


# ---------------------------------------------------------------- artifacts

# MixtureParams' global parameters: the fields but the per-voxel
# amplitude and coeffs, which live in tables (truth.f64, resp.csv)
GLOBAL_PARAMS = {"active_prob": float, "hrf": np.ndarray,
                 "within_cov": np.ndarray, "between_cov": np.ndarray,
                 "noise_var": float}

# a map's JSON sidecar: its gray scale and its slice images
MAP_SIDECAR = {"min": float, "max": float, "maxval": int, "constant": bool,
               "masked": bool, "files": tuple[str, ...]}

# Each CSV and JSON file trialmix writes, declared once: its ordered CSV
# columns, each int, float, bool (0/1 in CSV) or str, or its JSON keys,
# each of a type _check takes (np.ndarray: lists of finite numbers); a
# dataclass declares its fields' keys and types. The columns of
# design.csv, resp.csv and pc_scores.csv depend on the dims:
# _design_columns, _resp_columns, _pc_columns.
ARTIFACTS = {
    "header.json": {"version": str, "endianness": str, "dims": Dims,
                    "tr": float, "stimulus_times": np.ndarray,
                    "mask_shape": tuple[int, int, int] | None},
    COORDS_NAME: {"x": int, "y": int, "z": int},
    "truth.json": {"seed": int, "shift_offsets": np.ndarray | None,
                   "params": GLOBAL_PARAMS},
    "params.json": GLOBAL_PARAMS,
    "loglik.csv": {"iteration": int, "loglik": float},
    "fit.json": {"iterations": int, "converged": bool, "loglik": float,
                 "active_prob": float},
    "tstats.csv": {"voxel": int, "x": int, "y": int, "z": int, "t": float,
                   "p": float, "reject": bool, "cluster": int},
    "fdr.json": {"df": int, "threshold": float, "m0_hat": int,
                 "n_rejected": int, "n_clusters": int},
    "tmap.json": MAP_SIDECAR,
    "activemap.json": MAP_SIDECAR,
    "pc_spectrum.csv": {"component": int, "eigenvalue": float,
                        "variance_pct": float},
    "anova.csv": {"component": int, "factor": str, "level": int,
                  "effect": float, "se": float},
    "curves.csv": {"cluster": int, "epoch": int, "sample": int, "value": float},
    "effect_curves.csv": {"component": int, "direction": str, "sample": int,
                          "value": float},
    "comparison.csv": {"model": int, "description": str, "n_params": int,
                       "loglik": float, "aic": float, "bic": float},
    "comparison.json": {"n_obs": int, "best_aic": int, "best_bic": int},
    "report.json": {"loglik": float, "iterations": int, "converged": bool,
                    "active_prob": float, "n_rejected": int,
                    "n_clusters": int, "pcs_run": bool, "best_aic": int,
                    "best_bic": int},
}

# The files each stage writes at the top of an output directory: names,
# and patterns for the slice images and cluster plots, whose number
# follows the data. A run owns the files of the stages it runs.
STAGE_FILES = {
    "dataset": ("dataset",),
    "fit": ("params.json", "resp.csv", "loglik.csv", "fit.json"),
    "infer": ("tstats.csv", "fdr.json", "tmap.json", "activemap.json",
              re.compile(r"tmap_s\d{3,}\.pgm"),
              re.compile(r"activemap_s\d{3,}\.pgm")),
    "pcs": ("pc_spectrum.csv", "pc_scores.csv", "anova.csv", "curves.csv",
            "effect_curves.csv", "effect_curves.svg",
            re.compile(r"curves_cluster[1-9]\d*\.svg")),
    "compare": ("comparison.csv", "comparison.json"),
    "report": ("report.json",),
}


def _write_record(path: str, declared: dict, value) -> None:
    """The JSON object ``declared`` lays out, rendered from a mapping or an
    object's attributes by its keys: json.dump(indent=2, sort_keys=True)
    plus a newline."""
    with open(path, "w", newline="\n") as f:
        json.dump(_render(value, declared), f, indent=2, sort_keys=True)
        f.write("\n")


def _read_table(folder: str, name: str, n_rows: int,
                declared: dict | None = None) -> dict[str, np.ndarray]:
    """The columns, by name, of a CSV declared in ARTIFACTS (or by
    ``declared``) that must have ``n_rows`` rows; an int cell must hold a
    finite integer and a bool cell 0 or 1."""
    declared = declared or ARTIFACTS[name]
    try:
        with open(os.path.join(folder, name)) as f:
            header = f.readline().rstrip("\n")
            table = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
    except FileNotFoundError:
        raise BundleFormatError(f"{name}: file not found") from None
    except OSError as e:
        raise BundleFormatError(f"{name}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise BundleFormatError(
            f"{name}: not {e.encoding} text: {e.reason}") from None
    except ValueError as e:
        fault = _table_fault(os.path.join(folder, name), declared) or e
        raise BundleFormatError(f"{name}: {fault}") from None
    if header != ",".join(declared) or table.shape != (n_rows, len(declared)):
        raise BundleFormatError(
            f"{name}: expected the header {','.join(declared)!r} and "
            f"{n_rows} rows; found {header!r} and {table.shape[0]} rows of "
            f"{table.shape[1]} columns"
        )
    columns = {}
    for (col, kind), values in zip(declared.items(), table.T):
        if kind is not float:
            ok = ((values == 0.0) | (values == 1.0) if kind is bool else
                  (values == np.rint(values)) & (np.abs(values) < 2.0**63))
            if not ok.all():
                row = int(np.argmin(ok))
                raise BundleFormatError(
                    f"{name}: {_cell(row + 1, declared, col)}: "
                    f"{float(values[row])!r} is not "
                    f"{'0 or 1' if kind is bool else 'an integer'}"
                )
            values = values.astype(kind)
        columns[col] = values
    return columns


def _cell(row: int, declared: dict, col: str) -> str:
    """A cell's place in every _read_table message: the data rows after
    the header and the columns counted from 1, and the column's name."""
    return f"row {row}, column {list(declared).index(col) + 1} ({col})"


def _table_fault(path: str, declared: dict) -> str | None:
    """The first row or cell np.loadtxt cannot read in the CSV at ``path``.

    Rows are counted as np.loadtxt counts them, skipping empty lines; a
    cell must be ASCII and free of the underscores float() would take.
    """
    with open(path) as f:
        f.readline()
        lines = (line.rstrip("\n") for line in f)
        for row, line in enumerate(filter(None, lines), 1):
            cells = line.split(",")
            if len(cells) != len(declared):
                return (f"row {row}: expected {len(declared)} columns, "
                        f"found {len(cells)}")
            for col, cell in zip(declared, cells):
                try:
                    float(cell if cell.isascii() and "_" not in cell else "?")
                except ValueError:
                    return (f"{_cell(row, declared, col)}: "
                            f"cannot parse {cell!r} as a number")
    return None


def _read_record(folder: str, name: str):
    """A declared JSON object as _check_object builds it: a dict of
    checked values, or the declared dataclass."""
    return _check_object(_load_json(os.path.join(folder, name), name),
                         ARTIFACTS[name], name)


def write_fit(out: OutputDir, fit: FitResult) -> None:
    p = fit.params
    write_params_json(p, out.path("params.json"))
    write_csv(out.path("resp.csv"), _resp_columns(p.coeffs.shape[1]),
              [np.arange(fit.resp.size), fit.resp, p.amplitude, *p.coeffs.T])
    write_csv(out.path("loglik.csv"), ARTIFACTS["loglik.csv"],
              [np.arange(fit.loglik_trace.size), fit.loglik_trace])
    _write_record(out.path("fit.json"), ARTIFACTS["fit.json"], {
        "iterations": fit.iterations, "converged": fit.converged,
        "loglik": fit.loglik_trace[-1], "active_prob": p.active_prob})


def read_fit(folder: str, dataset: Dataset) -> FitResult:
    """The fit write_fit left in ``folder``, checked against ``dataset``
    and by FitResult.validate, the check em_fit ends with. Its parameters
    join params.json's global ones and resp.csv's per-voxel columns."""
    dims, q = dataset.dims, dataset.dims.n_covariates
    global_params = read_params_json(os.path.join(folder, "params.json"))
    table = _read_table(folder, "resp.csv", dims.n_voxels, _resp_columns(q))
    coeffs = [table[c] for c in _design_columns(q)]
    params = MixtureParams(
        **global_params, amplitude=np.ascontiguousarray(table["amplitude"]),
        coeffs=np.column_stack(coeffs) if q else np.zeros((dims.n_voxels, 0)))
    try:
        validate_params(params, dims, trace_convention=False)
    except ValueError as e:
        name = "resp.csv" if "per-voxel" in str(e) else "params.json"
        raise BundleFormatError(f"{name}: {e}") from None
    meta = _read_record(folder, "fit.json")
    resp = table["resp"]
    # the trace holds the start value and one value per iteration
    trace = _read_table(folder, "loglik.csv", meta["iterations"] + 1)["loglik"]
    fit = FitResult(params, resp, trace, meta["iterations"], meta["converged"])
    try:
        fit.validate()
    except ValueError as e:
        name = "loglik.csv" if "log-likelihood" in str(e) else "resp.csv"
        raise BundleFormatError(f"{name}: {e}") from None
    return fit


def _volume_from_voxels(dataset: Dataset, values: np.ndarray):
    mask = dataset.grid_mask()
    vol = np.zeros(mask.shape)
    vol[tuple(dataset.coords.T)] = values
    return vol, mask


def write_infer(
    out: OutputDir, dataset: Dataset, amap: ActivationMap, fdr: FdrResult
) -> None:
    write_csv(out.path("tstats.csv"), ARTIFACTS["tstats.csv"], [
        np.arange(amap.t_stat.size), *dataset.coords.T, amap.t_stat,
        amap.pvals, amap.reject, amap.cluster,
    ])
    _write_record(out.path("fdr.json"), ARTIFACTS["fdr.json"], {
        "df": amap.df, "threshold": fdr.threshold, "m0_hat": fdr.m0_hat,
        "n_rejected": fdr.n_rejected, "n_clusters": amap.cluster.max()})
    tvol, mask = _volume_from_voxels(dataset, amap.t_stat)
    write_map_pgm(tvol, out.path("tmap.pgm"), mask=mask)
    avol, _ = _volume_from_voxels(dataset, np.where(amap.reject, amap.t_stat, 0.0))
    write_map_pgm(avol, out.path("activemap.pgm"), mask=mask)


def read_amap(folder: str, dataset: Dataset) -> ActivationMap:
    """The activation map write_infer left in ``folder``, for ``dataset``."""
    table = _read_table(folder, "tstats.csv", dataset.dims.n_voxels)
    return ActivationMap(table["t"], table["p"], table["reject"],
                         table["cluster"], _read_record(folder, "fdr.json")["df"])


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg_curves(
    path: str,
    x: np.ndarray,
    curves: np.ndarray,
    labels: list[str],
    title: str = "",
    ylabel: str = "",
) -> None:
    """Simple line chart: one polyline per row of curves."""
    x = np.asarray(x, dtype=np.float64)
    curves = np.atleast_2d(np.asarray(curves, dtype=np.float64))
    w, h, m = 720, 440, 60
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(curves.min()), float(curves.max())
    if y1 <= y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v: float) -> float:
        return m + (v - x0) / (x1 - x0) * (w - 2 * m)

    def sy(v: float) -> float:
        return h - m - (v - y0) / (y1 - y0) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" '
        f'stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for val, anchor, xx, yy in (
        (x0, "middle", sx(x0), h - m + 18),
        (x1, "middle", sx(x1), h - m + 18),
        (y0 + pad, "end", m - 6, sy(y0 + pad) + 4),
        (y1 - pad, "end", m - 6, sy(y1 - pad) + 4),
    ):
        parts.append(
            f'<text x="{xx:.1f}" y="{yy:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{val:.4g}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{h / 2:.1f}" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 14 {h / 2:.1f})" '
            f'text-anchor="middle">{ylabel}</text>'
        )
    for i, row in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, row))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        if i < len(labels):
            parts.append(
                f'<text x="{w - m + 4}" y="{sy(row[-1]) + 4:.1f}" '
                f'font-family="sans-serif" font-size="11" '
                f'fill="{color}">{labels[i]}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(parts) + "\n")


def write_pcs(out: OutputDir, dataset: Dataset, pa: PcAnalysis) -> None:
    d = dataset.dims
    n_pc = pa.scores.shape[2]
    write_csv(out.path("pc_spectrum.csv"), ARTIFACTS["pc_spectrum.csv"], [
        np.arange(1, pa.within_pca.eigenvalues.size + 1),
        pa.within_pca.eigenvalues, pa.within_pca.variance_pct])
    # one row per (voxel, epoch), in C order of the scores array
    vox, epoch = np.indices(pa.scores.shape[:2]).reshape(2, -1)
    write_csv(out.path("pc_scores.csv"), _pc_columns(n_pc), [
        pa.active_idx[vox], epoch + 1, *pa.scores.reshape(-1, n_pc).T])
    anova_rows = []
    for k, tab in enumerate(pa.tables):
        anova_rows.append((k + 1, "grand_mean", 0, tab.grand_mean, 0.0))
        for lvl, eff, se in zip(
            tab.epoch_levels, tab.epoch_effects, tab.epoch_se
        ):
            anova_rows.append((k + 1, "epoch", lvl, eff, se))
        for lvl, eff, se in zip(
            tab.cluster_levels, tab.cluster_effects, tab.cluster_se
        ):
            anova_rows.append((k + 1, "cluster", lvl, eff, se))
    write_csv(out.path("anova.csv"), ARTIFACTS["anova.csv"],
              list(zip(*anova_rows)))
    cluster, epoch, sample = np.indices(pa.curves.shape).reshape(3, -1)
    write_csv(out.path("curves.csv"), ARTIFACTS["curves.csv"], [
        pa.cluster_levels[cluster], epoch + 1, sample + 1, pa.curves.ravel()])
    comp, sign, sample = np.indices(pa.effect_curves.shape).reshape(3, -1)
    write_csv(out.path("effect_curves.csv"), ARTIFACTS["effect_curves.csv"], [
        comp + 1, np.array(["plus", "minus"])[sign], sample + 1,
        pa.effect_curves.ravel()])
    samples = np.arange(1, d.n_times + 1, dtype=np.float64)
    for c in range(pa.curves.shape[0]):
        write_svg_curves(
            out.path(f"curves_cluster{int(pa.cluster_levels[c])}.svg"),
            samples,
            pa.curves[c],
            [f"epoch {j + 1}" for j in range(d.n_epochs)],
            title=f"Fitted responses, cluster {int(pa.cluster_levels[c])}",
            ylabel="response",
        )
    write_svg_curves(
        out.path("effect_curves.svg"),
        samples,
        pa.effect_curves.reshape(-1, d.n_times),
        [
            f"pc{k + 1} {sign}"
            for k in range(pa.effect_curves.shape[0])
            for sign in ("+", "-")
        ],
        title="Component effect on the mean response",
        ylabel="response",
    )


def write_compare(out: OutputDir, cmp: ModelComparison) -> None:
    write_csv(out.path("comparison.csv"), ARTIFACTS["comparison.csv"],
              list(zip(*map(astuple, cmp.rows))))
    _write_record(out.path("comparison.json"), ARTIFACTS["comparison.json"],
                  cmp)


def write_report(out: OutputDir, fit: FitResult, amap: ActivationMap,
                 fdr: FdrResult, pcs_run: bool, cmp: ModelComparison) -> None:
    """report.json: the headline numbers of report's fit, inference and
    comparison, and whether pcs ran."""
    _write_record(out.path("report.json"), ARTIFACTS["report.json"], {
        "loglik": fit.loglik_trace[-1], "iterations": fit.iterations,
        "converged": fit.converged, "active_prob": fit.params.active_prob,
        "n_rejected": fdr.n_rejected, "n_clusters": amap.cluster.max(),
        "pcs_run": pcs_run, "best_aic": cmp.best_aic,
        "best_bic": cmp.best_bic})
