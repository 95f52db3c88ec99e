"""Dataset bundle persistence and result serialization.

A dataset lives in a directory as a tiny self-described format:

    header.json   geometry, timing, format version "1", endianness tag
    data.f64      little-endian float64, voxel-major then time (8*V*N bytes)
    design.csv    N rows by q columns with a header row (absent when q = 0)
    truth.json    optional generator ground truth

Everything round-trips bit-identically: raw bytes for the series, 17
significant digits for CSV floats, shortest-roundtrip repr for JSON
floats. CSV output uses '.' decimals, ',' separators, LF line endings.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from .types import Dataset, Dims, Hrf, MixtureParams, SimTruth

__all__ = [
    "BundleFormatError",
    "write_dataset",
    "read_dataset",
    "read_truth",
    "params_to_dict",
    "params_from_dict",
    "write_params_json",
    "read_params_json",
    "format_float",
    "write_csv",
    "write_map_pgm",
]

FORMAT_VERSION = "1"
HEADER_NAME = "header.json"
DATA_NAME = "data.f64"
DESIGN_NAME = "design.csv"
TRUTH_NAME = "truth.json"


class BundleFormatError(ValueError):
    """A bundle file is missing, truncated, or malformed."""


def format_float(x: float) -> str:
    """Shortest fixed form that still round-trips a float64 exactly."""
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    """Comma-separated values, floats at full precision, LF endings."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(
                ",".join(
                    format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                    for c in row
                )
                + "\n"
            )


def _load_json(path: str, name: str) -> dict:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise BundleFormatError(f"{name}: file not found") from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise BundleFormatError(
            f"{name}: invalid JSON at byte {e.pos}: {e.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise BundleFormatError(f"{name}: top level must be an object")
    return obj


def _finite_floats(values: list) -> bool:
    return set(map(type, values)) == {float} and all(map(math.isfinite, values))


def _json_text(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2, sort_keys=True), nested ``depth`` deep.

    Lists of finite floats are joined with float.__repr__, the text json
    writes for them, so long float arrays skip json's pure-Python
    indenting encoder; the bytes are the same.
    """
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict) and value:
        items = [
            json.dumps(key) + ": " + _json_text(value[key], depth + 1)
            for key in sorted(value)
        ]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if isinstance(value, list) and value:
        if _finite_floats(value):
            items = list(map(float.__repr__, value))
        else:
            items = [_json_text(v, depth + 1) for v in value]
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    return json.dumps(value)


def _dump_json(obj: dict, path: str) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _require(obj: dict, key: str, name: str):
    if key not in obj:
        raise BundleFormatError(f"{name}: missing required key '{key}'")
    return obj[key]


def write_dataset(dataset: Dataset, path: str, truth: SimTruth | None = None) -> None:
    """Write a bundle directory; creates it if needed."""
    os.makedirs(path, exist_ok=True)
    d = dataset.dims
    header = {
        "version": FORMAT_VERSION,
        "endianness": "little",
        "dims": {
            "n_times": d.n_times,
            "n_epochs": d.n_epochs,
            "n_voxels": d.n_voxels,
            "n_covariates": d.n_covariates,
        },
        "tr": float(dataset.tr),
        "stimulus_times": [float(t) for t in dataset.stimulus_times],
        "coords": [[int(c) for c in row] for row in dataset.coords],
        "mask_shape": list(dataset.mask_shape) if dataset.mask_shape else None,
    }
    _dump_json(header, os.path.join(path, HEADER_NAME))
    data = np.ascontiguousarray(dataset.series, dtype="<f8")
    with open(os.path.join(path, DATA_NAME), "wb") as f:
        f.write(data.tobytes())
    if d.n_covariates > 0:
        write_csv(
            os.path.join(path, DESIGN_NAME),
            [f"x{j + 1}" for j in range(d.n_covariates)],
            dataset.design,
        )
    if truth is not None:
        _dump_json(_truth_to_dict(truth), os.path.join(path, TRUTH_NAME))


def _read_design_csv(path: str, n_images: int, q: int) -> np.ndarray:
    try:
        with open(path, "r", newline="") as f:
            lines = f.read().split("\n")
    except FileNotFoundError:
        raise BundleFormatError(f"{DESIGN_NAME}: file not found") from None
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != n_images + 1:
        raise BundleFormatError(
            f"{DESIGN_NAME}: expected {n_images + 1} lines "
            f"(header plus one per image), found {len(lines)}"
        )
    out = np.empty((n_images, q))
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != q:
            raise BundleFormatError(
                f"{DESIGN_NAME}: row {i + 1}: expected {q} columns, "
                f"found {len(cells)}"
            )
        for j, cell in enumerate(cells):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise BundleFormatError(
                    f"{DESIGN_NAME}: row {i + 1}, column {j + 1}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
    return out


def read_dataset(path: str) -> Dataset:
    """Read a bundle directory back; exact inverse of write_dataset."""
    header = _load_json(os.path.join(path, HEADER_NAME), HEADER_NAME)
    version = _require(header, "version", HEADER_NAME)
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"{HEADER_NAME}: format version {version!r} unsupported "
            f"(expected {FORMAT_VERSION!r})"
        )
    endian = _require(header, "endianness", HEADER_NAME)
    if endian != "little":
        raise BundleFormatError(
            f"{HEADER_NAME}: endianness {endian!r} unsupported"
        )
    raw_dims = _require(header, "dims", HEADER_NAME)
    try:
        dims = Dims(
            n_times=int(raw_dims["n_times"]),
            n_epochs=int(raw_dims["n_epochs"]),
            n_voxels=int(raw_dims["n_voxels"]),
            n_covariates=int(raw_dims["n_covariates"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise BundleFormatError(f"{HEADER_NAME}: bad dims: {e}") from None

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
        design = _read_design_csv(
            os.path.join(path, DESIGN_NAME), dims.n_images, dims.n_covariates
        )
    else:
        design = np.zeros((dims.n_images, 0))

    stimulus_times = np.asarray(
        _require(header, "stimulus_times", HEADER_NAME), dtype=np.float64
    )
    if stimulus_times.shape != (dims.n_epochs,):
        raise BundleFormatError(
            f"{HEADER_NAME}: stimulus_times must have {dims.n_epochs} entries"
        )
    coords = np.asarray(_require(header, "coords", HEADER_NAME), dtype=np.int64)
    if coords.shape != (dims.n_voxels, 3):
        raise BundleFormatError(
            f"{HEADER_NAME}: coords must be {dims.n_voxels} rows of 3"
        )
    mask_shape = header.get("mask_shape")
    dataset = Dataset(
        dims=dims,
        series=series,
        design=design,
        coords=coords,
        stimulus_times=stimulus_times,
        tr=float(_require(header, "tr", HEADER_NAME)),
        mask_shape=tuple(int(s) for s in mask_shape) if mask_shape else None,
    )
    try:
        dataset.validate(centered_design=False)
    except ValueError as e:
        raise BundleFormatError(f"{path}: {e}") from None
    return dataset


def params_to_dict(params: MixtureParams) -> dict:
    return {
        "active_prob": float(params.active_prob),
        "amplitude": params.amplitude.tolist(),
        "coeffs": params.coeffs.tolist(),
        "hrf": params.hrf.values.tolist(),
        "within_cov": params.within_cov.tolist(),
        "between_cov": params.between_cov.tolist(),
        "noise_var": float(params.noise_var),
    }


def params_from_dict(obj: dict, name: str = "params") -> MixtureParams:
    try:
        return MixtureParams(
            active_prob=float(obj["active_prob"]),
            amplitude=np.asarray(obj["amplitude"], dtype=np.float64),
            coeffs=np.asarray(obj["coeffs"], dtype=np.float64),
            hrf=Hrf(values=np.asarray(obj["hrf"], dtype=np.float64)),
            within_cov=np.asarray(obj["within_cov"], dtype=np.float64),
            between_cov=np.asarray(obj["between_cov"], dtype=np.float64),
            noise_var=float(obj["noise_var"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise BundleFormatError(f"{name}: bad parameter block: {e}") from None


def write_params_json(params: MixtureParams, path: str) -> None:
    """The bytes _dump_json writes for params_to_dict(params), faster."""
    with open(path, "w", newline="\n") as f:
        f.write(_json_text(params_to_dict(params)) + "\n")


def read_params_json(path: str) -> MixtureParams:
    name = os.path.basename(path)
    return params_from_dict(_load_json(path, name), name)


def _truth_to_dict(truth: SimTruth) -> dict:
    return {
        "seed": int(truth.seed),
        "labels": [int(z) for z in truth.labels],
        "shift_offsets": (
            truth.shift_offsets.tolist()
            if truth.shift_offsets is not None
            else None
        ),
        "params": params_to_dict(truth.params),
    }


def read_truth(path: str) -> SimTruth | None:
    """Ground truth from a bundle, or None when the sidecar is absent."""
    truth_path = os.path.join(path, TRUTH_NAME)
    if not os.path.exists(truth_path):
        return None
    obj = _load_json(truth_path, TRUTH_NAME)
    offsets = obj.get("shift_offsets")
    return SimTruth(
        params=params_from_dict(_require(obj, "params", TRUTH_NAME), TRUTH_NAME),
        labels=np.asarray(_require(obj, "labels", TRUTH_NAME), dtype=np.int64),
        seed=int(_require(obj, "seed", TRUTH_NAME)),
        shift_offsets=np.asarray(offsets, dtype=np.float64)
        if offsets is not None
        else None,
    )


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

    A 2-D field writes one image at ``path``; a 3-D field (slices along
    the last axis) writes ``path_sNNN.pgm`` per slice. Values are
    min-max scaled to 0..255 over the whole (unmasked) field so slices
    share one gray scale; a constant field maps to 128. Voxels outside
    ``mask`` render as 0. The scaling lands in a JSON sidecar next to
    the images.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim not in (2, 3):
        raise ValueError("field must be 2-D or 3-D")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != field.shape:
            raise ValueError("mask shape must match field shape")
        visible = field[mask]
    else:
        visible = field.ravel()
    if visible.size and not np.all(np.isfinite(visible)):
        raise ValueError("field values must be finite")
    lo = float(visible.min()) if visible.size else 0.0
    hi = float(visible.max()) if visible.size else 0.0

    def emit(plane: np.ndarray, plane_mask: np.ndarray | None, out: str) -> None:
        pixels = _scale_to_bytes(plane, lo, hi)
        if plane_mask is not None:
            pixels = np.where(plane_mask, pixels, np.uint8(0))
        h, w = plane.shape
        with open(out, "wb") as f:
            f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            f.write(pixels.tobytes())

    if field.ndim == 2:
        emit(field, mask, path)
        files = [os.path.basename(path)]
    else:
        stem = path[:-4] if path.endswith(".pgm") else path
        files = []
        for k in range(field.shape[2]):
            out = f"{stem}_s{k:03d}.pgm"
            emit(
                field[:, :, k],
                mask[:, :, k] if mask is not None else None,
                out,
            )
            files.append(os.path.basename(out))
    sidecar = {
        "min": lo,
        "max": hi,
        "maxval": 255,
        "constant": hi <= lo,
        "masked": mask is not None,
        "files": files,
    }
    stem = path[:-4] if path.endswith(".pgm") else path
    _dump_json(sidecar, stem + ".json")
