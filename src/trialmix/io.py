"""Dataset bundle persistence and result serialization.

A dataset lives in a directory as a tiny self-described format:

    header.json   geometry, timing, format version "1", endianness tag
    data.f64      little-endian float64, voxel-major then time (8*V*N bytes)
    design.csv    N rows by q columns with a header row (absent when q = 0)
    truth.json    optional generator ground truth

Everything round-trips bit-identically: raw bytes for the series, 17
significant digits for CSV floats, shortest-roundtrip repr for JSON
floats; params.json holds every MixtureParams field, so read_fit gives
back the parameters write_fit wrote. CSV output uses '.' decimals, ','
separators, LF line endings.

Text artifacts are rendered a row or an array at a time, not a cell at a
time. write_csv turns each column into Python values once (ndarray
.tolist()) and formats every row through one printf template, %.17g for
float columns and %s for columns that hold no float, which is the text
f"{x:.17g}" and str give per cell; a column mixing floats with other
values raises ValueError. JSON files are the bytes of json.dump(indent=2,
sort_keys=True) plus a newline; _json_text writes lists of plain ints or
finite floats, and lists of equal-length rows of them, with one %r
template instead of json's pure-Python indenting encoder.

Every command artifact is written here. Each file trialmix reads is
declared once, in ARTIFACTS (design.csv, whose header is x1..xq, in
_design_columns). Every JSON object read, the run config too, is checked
against its declaration by _check_object, and every CSV by _read_table.
The writers take their layout from the same declaration: the table
writers their header, and _write_record, the one writer of a declared
JSON object, its keys and the type each value is cast to (_render, the
inverse of _check). A write-only file keeps its layout in its one writer.

OutputDir stages a run's files inside its output directory and moves
them into place together when the run succeeds.
"""
from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import reprlib
import shutil
import sys
import tempfile
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .inference import FdrResult
from .modelsel import ModelComparison
from .types import (ActivationMap, Dataset, Dims, FitResult, MixtureParams,
                    SimTruth, _gc_paused, validate_params)
from .variability import PcAnalysis

__all__ = [
    "BundleFormatError",
    "OutputDir",
    "write_dataset",
    "read_dataset",
    "read_truth_bytes",
    "write_params_json",
    "read_params_json",
    "write_json",
    "write_csv",
    "write_map_pgm",
    "write_svg_curves",
    "write_fit",
    "read_fit",
    "write_infer",
    "read_amap",
    "write_pcs",
    "write_compare",
]

FORMAT_VERSION = "1"
HEADER_NAME = "header.json"
DATA_NAME = "data.f64"
DESIGN_NAME = "design.csv"
TRUTH_NAME = "truth.json"


class BundleFormatError(ValueError):
    """A bundle file is missing, truncated, or malformed."""


class OutputDir:
    """An output directory that receives a run's files all or none.

    Making it creates ``root`` if needed (OSError if it cannot be a
    directory) and a fresh staging directory inside it, where
    ``path(name)`` points. A clean exit from the ``with`` block moves
    every staged file to its relative path under ``root``; an exception
    leaves ``root`` as it was, or removes it if this run made it.
    """

    def __init__(self, root: str) -> None:
        self.root = root
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
                for folder, _, names in os.walk(self._staging):
                    dest = self.root + folder[len(self._staging):]
                    os.makedirs(dest, exist_ok=True)
                    for name in names:
                        os.replace(f"{folder}/{name}", f"{dest}/{name}")
        finally:
            shutil.rmtree(self.root if failed and self._made else self._staging)


def _column_cells(column) -> tuple[str, list]:
    """One CSV column as (printf conversion, values to format): %.17g,
    which round-trips a float64 exactly, when every value is a float,
    and %s when none is. A column mixing the two raises ValueError.
    """
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, values))
    floats = {k for k in kinds if issubclass(k, (float, np.floating))}
    if floats == kinds:
        return "%.17g", values
    if floats:
        raise ValueError("a CSV column mixes floats with other values")
    return "%s", values


def write_csv(path: str, header: list[str], columns) -> None:
    """Comma-separated values, floats at full precision, LF endings.

    ``columns`` holds one sequence or 1-D array per header name.
    """
    if len(columns) != len(header):
        raise ValueError(
            f"{len(columns)} columns for a header of {len(header)} names"
        )
    convs, values = zip(*map(_column_cells, columns)) if len(columns) else ((), ())
    if len({len(v) for v in values}) > 1:
        raise ValueError("columns differ in length")
    template = ",".join(convs) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
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
    if not isinstance(obj, dict):
        raise error(f"{name}: top level must be an object")
    return obj


def _check(value, hint):
    """A JSON value as the type ``hint`` declares, or TypeError.

    Only a bool hint takes true or false. A float hint takes any finite
    number, as a float; a tuple hint a list of its length; a union what
    one of its members takes. An np.ndarray hint takes lists, nested to
    any depth, of finite numbers, as a float64 array, and an np.int64
    hint lists of ints, as an int64 array.
    """
    args = typing.get_args(hint)
    if isinstance(value, bool) and hint is not bool:
        pass  # json's true and false are no numbers here
    elif hint is float and isinstance(value, (int, float)):
        if abs(value) <= sys.float_info.max:
            return float(value)
    elif hint in (np.ndarray, np.int64) and isinstance(value, list):
        return _check_array(value, hint)
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


def _check_array(value: list, hint) -> np.ndarray:
    """Nested lists of JSON numbers as _check's array ``hint``, or TypeError."""
    leaves = value
    while leaves and type(leaves[0]) is list:
        leaves = list(itertools.chain.from_iterable(leaves))
    ints = hint is np.int64
    if not set(map(type, leaves)) <= ({int} if ints else {int, float}):
        raise TypeError(hint)
    try:
        array = np.array(value, dtype=np.int64 if ints else np.float64)
    except (ValueError, OverflowError):  # ragged, or out of the dtype's range
        raise TypeError(hint) from None
    if not ints and not np.isfinite(array).all():
        raise TypeError(hint)
    return array


def _render(value, hint):
    """``value`` as the JSON value of the type ``hint`` declares: the
    inverse of _check.

    A dataclass or declaration hint gives an object rendered key by key
    from a mapping's items or an object's attributes; an array hint
    nested lists of its dtype; a tuple hint a list; a union such as
    float | None null for None and its first member's rendering
    otherwise; any other hint (float, int, bool, str) casts.
    """
    if isinstance(hint, dict) or is_dataclass(hint):
        hints = hint if isinstance(hint, dict) else typing.get_type_hints(hint)
        items = value if isinstance(value, dict) else vars(value)
        return {key: _render(items[key], h) for key, h in hints.items()}
    if hint in (np.ndarray, np.int64):
        return np.asarray(value, np.float64 if hint is np.ndarray
                          else np.int64).tolist()
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
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
                "numpy.ndarray", "array of finite numbers").replace(
                "numpy.int64", "array of ints")
            got = reprlib.repr(obj[key]) if key in obj else "no value"
            raise error(f"{name}: {where}: expected {kind}, got {got}") from None
    if isinstance(schema, dict):
        return values
    try:
        return schema(**values)
    except (TypeError, ValueError) as e:
        raise error(f"{prefix}{e}") from None


def _plain_numbers(values: list) -> bool:
    """All plain ints, or all finite plain floats: json writes repr()."""
    kinds = set(map(type, values))
    return kinds == {int} or (
        kinds == {float} and all(map(math.isfinite, values))
    )


def _row_width(values: list) -> int:
    """The common length of rows of plain numbers, or 0 if not such rows."""
    widths = {len(v) if isinstance(v, (list, tuple)) else 0 for v in values}
    if len(widths) != 1 or 0 in widths:
        return 0
    return widths.pop() if _plain_numbers([x for r in values for x in r]) else 0


def _json_text(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2, sort_keys=True), nested ``depth`` deep.

    Lists of plain ints or finite floats, and lists of equal-length rows
    of them, are rendered through one %r template (repr is the text json
    writes for those), so long arrays skip json's pure-Python indenting
    encoder; the bytes are the same. Everything else goes to json.
    """
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        items = [
            json.dumps(key) + ": " + _json_text(value[key], depth + 1)
            for key in sorted(value)
        ]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if isinstance(value, (list, tuple)) and value:
        if _plain_numbers(value):
            items = list(map(repr, value))
        elif width := _row_width(value):
            inner = pad + "  "
            row = "[" + inner + ("," + inner).join(["%r"] * width) + pad + "]"
            items = [row % tuple(r) for r in value]
        else:
            items = [_json_text(v, depth + 1) for v in value]
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    # json's own newlines are all structural: strings escape theirs
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad[:-2])


def write_json(obj: dict, path: str) -> None:
    """The bytes of json.dump(obj, indent=2, sort_keys=True) plus a newline."""
    with open(path, "w", newline="\n") as f:
        f.write(_json_text(obj) + "\n")


@_gc_paused()
def write_dataset(
    dataset: Dataset, path: str, truth: SimTruth | bytes | None = None
) -> None:
    """Write a bundle directory; creates it if needed.

    ``truth`` is ground truth to render into truth.json, or the bytes of
    another bundle's truth.json (read_truth_bytes), copied as they are.
    """
    os.makedirs(path, exist_ok=True)
    d = dataset.dims
    _write_record(os.path.join(path, HEADER_NAME), HEADER_NAME, {
        "version": FORMAT_VERSION, "endianness": "little", "dims": d,
        "tr": dataset.tr, "stimulus_times": dataset.stimulus_times,
        "coords": dataset.coords, "mask_shape": dataset.mask_shape})
    data = np.ascontiguousarray(dataset.series, dtype="<f8")
    with open(os.path.join(path, DATA_NAME), "wb") as f:
        data.tofile(f)
    if d.n_covariates > 0:
        write_csv(os.path.join(path, DESIGN_NAME), list(_design_columns(d)),
                  columns=dataset.design.T)
    truth_path = os.path.join(path, TRUTH_NAME)
    if isinstance(truth, bytes):
        with open(truth_path, "wb") as f:
            f.write(truth)
    elif truth is not None:
        _write_record(truth_path, TRUTH_NAME, truth)


def _design_columns(dims: Dims) -> dict:
    """design.csv's declaration: one float column x1..xq per covariate."""
    return {f"x{j + 1}": float for j in range(dims.n_covariates)}


@_gc_paused()
def read_dataset(path: str) -> Dataset:
    """Read a bundle directory back; exact inverse of write_dataset.

    Unparseable files, values of a type other than the declared one, and
    contents the Dataset constructor rejects raise BundleFormatError; the
    design need not be centered.
    """
    header = _read_record(path, HEADER_NAME)
    if header["version"] != FORMAT_VERSION:
        raise BundleFormatError(
            f"{HEADER_NAME}: format version {header['version']!r} unsupported "
            f"(expected {FORMAT_VERSION!r})"
        )
    if header["endianness"] != "little":
        raise BundleFormatError(
            f"{HEADER_NAME}: endianness {header['endianness']!r} unsupported"
        )
    dims = header["dims"]
    expected = 8 * dims.n_voxels * dims.n_images
    data_path = os.path.join(path, DATA_NAME)
    try:
        actual = os.path.getsize(data_path)
    except FileNotFoundError:
        raise BundleFormatError(f"{DATA_NAME}: file not found") from None
    if actual != expected:
        raise BundleFormatError(
            f"{DATA_NAME}: expected {expected} bytes "
            f"({dims.n_voxels} voxels x {dims.n_images} images x 8), "
            f"found {actual}"
        )
    series = np.fromfile(data_path, dtype="<f8").reshape(
        dims.n_voxels, dims.n_images
    )
    if dims.n_covariates > 0:
        design = np.column_stack(list(_read_table(
            path, DESIGN_NAME, dims.n_images, _design_columns(dims)).values()))
    else:
        design = np.zeros((dims.n_images, 0))
    try:
        return Dataset(dims, series, design, header["coords"],
                       header["stimulus_times"], header["tr"],
                       header["mask_shape"])
    except ValueError as e:
        raise BundleFormatError(f"{path}: {e}") from None


@_gc_paused()
def write_params_json(params: MixtureParams, path: str) -> None:
    _write_record(path, "params.json", params)


@_gc_paused()
def read_params_json(path: str) -> MixtureParams:
    name = os.path.basename(path)
    return _check_object(_load_json(path, name), ARTIFACTS["params.json"], name)


def read_truth_bytes(path: str) -> bytes | None:
    """A bundle's truth.json as raw bytes, or None when it is absent."""
    try:
        with open(os.path.join(path, TRUTH_NAME), "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None
    except OSError as e:
        raise BundleFormatError(f"{TRUTH_NAME}: {e.strerror}") from None


def _scale_to_bytes(plane: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi > lo:
        scaled = np.rint(255.0 * (plane - lo) / (hi - lo))
    else:
        # degenerate range: mid-gray by convention
        scaled = np.full(plane.shape, 128.0)
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
    sidecar = {
        "min": lo,
        "max": hi,
        "maxval": 255,
        "constant": hi <= lo,
        "masked": masked,
        "files": files,
    }
    write_json(sidecar, stem + ".json")


# ---------------------------------------------------------------- artifacts

# Each file trialmix reads, declared once: its ordered CSV columns, each
# int, float or bool (0/1 in CSV), or its JSON keys, each of a type
# _check takes (np.ndarray: lists of finite numbers; np.int64: of ints);
# a dataclass declares its fields' keys and types. design.csv's columns
# depend on the bundle: _design_columns.
ARTIFACTS = {
    "header.json": {"version": str, "endianness": str, "dims": Dims,
                    "tr": float, "stimulus_times": np.ndarray,
                    "coords": np.int64,
                    "mask_shape": tuple[int, int, int] | None},
    "truth.json": {"seed": int, "labels": np.int64,
                   "shift_offsets": np.ndarray | None, "params": MixtureParams},
    "params.json": MixtureParams,
    "resp.csv": {"voxel": int, "resp": float, "amplitude": float},
    "loglik.csv": {"iteration": int, "loglik": float},
    "fit.json": {"iterations": int, "converged": bool, "loglik": float,
                 "active_prob": float},
    "tstats.csv": {"voxel": int, "x": int, "y": int, "z": int, "t": float,
                   "p": float, "reject": bool, "cluster": int},
    "fdr.json": {"df": int, "threshold": float, "m0_hat": int,
                 "n_rejected": int, "n_clusters": int},
}


def _write_table(out: OutputDir, name: str, columns: list) -> None:
    """A declared CSV, each column cast to its declared type."""
    declared = ARTIFACTS[name]
    write_csv(out.path(name), list(declared), [
        np.asarray(c, dtype=np.float64 if kind is float else np.int64)
        for c, kind in zip(columns, declared.values(), strict=True)
    ])


def _write_record(path: str, name: str, value) -> None:
    """The declared JSON object ``name`` at ``path``, rendered from a
    mapping or an object's attributes by its declaration's keys."""
    write_json(_render(value, ARTIFACTS[name]), path)


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
    write_params_json(fit.params, out.path("params.json"))
    _write_table(out, "resp.csv",
                 [np.arange(fit.resp.size), fit.resp, fit.params.amplitude])
    _write_table(out, "loglik.csv",
                 [np.arange(fit.loglik_trace.size), fit.loglik_trace])
    _write_record(out.path("fit.json"), "fit.json", {
        "iterations": fit.iterations, "converged": fit.converged,
        "loglik": fit.loglik_trace[-1], "active_prob": fit.params.active_prob})


def read_fit(folder: str, dataset: Dataset) -> FitResult:
    """The fit write_fit left in ``folder``, checked against ``dataset``
    and by FitResult.validate, the check em_fit ends with."""
    params = read_params_json(os.path.join(folder, "params.json"))
    try:
        validate_params(params, dataset.dims, trace_convention=False)
    except ValueError as e:
        raise BundleFormatError(f"params.json: {e}") from None
    meta = _read_record(folder, "fit.json")
    resp = _read_table(folder, "resp.csv", dataset.dims.n_voxels)["resp"]
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
    _write_table(out, "tstats.csv", [
        np.arange(amap.t_stat.size), *dataset.coords.T, amap.t_stat,
        amap.pvals, amap.reject, amap.cluster,
    ])
    _write_record(out.path("fdr.json"), "fdr.json", {
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
    write_csv(
        out.path("pc_spectrum.csv"),
        ["component", "eigenvalue", "variance_pct"],
        columns=[
            np.arange(1, pa.within_pca.eigenvalues.size + 1),
            pa.within_pca.eigenvalues,
            pa.within_pca.variance_pct,
        ],
    )
    # one row per (voxel, epoch), in C order of the scores array
    vox, epoch = np.indices(pa.scores.shape[:2]).reshape(2, -1)
    write_csv(
        out.path("pc_scores.csv"),
        ["voxel", "epoch"] + [f"pc{k + 1}" for k in range(n_pc)],
        columns=[
            pa.active_idx[vox], epoch + 1, *pa.scores.reshape(-1, n_pc).T
        ],
    )
    anova_rows = []
    for k, tab in enumerate(pa.tables):
        anova_rows.append((k + 1, "grand_mean", 0, float(tab.grand_mean), 0.0))
        for lvl, eff, se in zip(
            tab.epoch_levels, tab.epoch_effects, tab.epoch_se
        ):
            anova_rows.append((k + 1, "epoch", int(lvl), float(eff), float(se)))
        for lvl, eff, se in zip(
            tab.cluster_levels, tab.cluster_effects, tab.cluster_se
        ):
            anova_rows.append(
                (k + 1, "cluster", int(lvl), float(eff), float(se))
            )
    write_csv(
        out.path("anova.csv"),
        ["component", "factor", "level", "effect", "se"],
        columns=list(zip(*anova_rows)),
    )
    cluster, epoch, sample = np.indices(pa.curves.shape).reshape(3, -1)
    write_csv(
        out.path("curves.csv"),
        ["cluster", "epoch", "sample", "value"],
        columns=[
            pa.cluster_levels[cluster], epoch + 1, sample + 1, pa.curves.ravel()
        ],
    )
    comp, sign, sample = np.indices(pa.effect_curves.shape).reshape(3, -1)
    write_csv(
        out.path("effect_curves.csv"),
        ["component", "direction", "sample", "value"],
        columns=[
            comp + 1,
            np.array(["plus", "minus"])[sign],
            sample + 1,
            pa.effect_curves.ravel(),
        ],
    )
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
    rows = [(r.model_id, r.description, r.n_params, float(r.loglik),
             float(r.aic), float(r.bic)) for r in cmp.rows]
    write_csv(
        out.path("comparison.csv"),
        ["model", "description", "n_params", "loglik", "aic", "bic"],
        columns=list(zip(*rows)),
    )
    write_json(
        {"n_obs": cmp.n_obs, "best_aic": cmp.best_aic, "best_bic": cmp.best_bic},
        out.path("comparison.json"),
    )
