"""Bundle format round-trips and serialization edge cases."""
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from trialmix import io
from trialmix.io import (
    BundleFormatError,
    read_dataset,
    read_params_json,
    read_truth_bytes,
    write_csv,
    write_dataset,
    write_map_pgm,
    write_params_json,
)
from trialmix.inference import FdrResult
from trialmix.simulate import SimConfig, simulate_dataset
from trialmix.types import (MAX_FACTOR_DIM, ActivationMap, FitResult,
                            MixtureParams, validate_params)

from helpers import (OVERSIZED_FACTORS, OVERSIZED_GRIDS, make_dataset,
                     make_dims, make_params, read_truth, write_bundle_by_hand)


@pytest.fixture()
def bundle(tmp_path):
    cfg = SimConfig(
        n_voxels=12, n_times=4, n_epochs=3, n_covariates=2, phase="jitter"
    )
    ds, truth = simulate_dataset(cfg, seed=6)
    path = str(tmp_path / "bundle")
    write_dataset(ds, path, truth)
    return ds, truth, path


def test_dataset_roundtrip_is_bitwise(bundle):
    ds, _, path = bundle
    back = read_dataset(path)
    np.testing.assert_array_equal(back.series, ds.series)
    np.testing.assert_array_equal(back.design, ds.design)
    np.testing.assert_array_equal(back.coords, ds.coords)
    np.testing.assert_array_equal(back.stimulus_times, ds.stimulus_times)
    assert back.tr == ds.tr
    assert back.mask_shape == ds.mask_shape
    assert back.dims == ds.dims
    # the data file is the raw little-endian buffer
    with open(os.path.join(path, "data.f64"), "rb") as f:
        assert f.read() == np.ascontiguousarray(ds.series, "<f8").tobytes()


def test_truth_roundtrip(bundle):
    _, truth, path = bundle
    back = read_truth(path)
    assert back is not None
    np.testing.assert_array_equal(back.labels, truth.labels)
    assert back.seed == truth.seed
    np.testing.assert_array_equal(back.shift_offsets, truth.shift_offsets)
    np.testing.assert_array_equal(
        back.params.amplitude, truth.params.amplitude
    )
    np.testing.assert_array_equal(
        back.params.within_cov, truth.params.within_cov
    )
    assert back.params.active_prob == truth.params.active_prob


def test_writers_agree_with_the_declarations(bundle, tmp_path):
    ds, truth, path = bundle
    write_params_json(truth.params, str(tmp_path / "params.json"))
    with open(os.path.join(path, "design.csv")) as f:
        assert f.readline() == "x1,x2\n"
    # each record reads back, through its declaration, to the same bits
    back = read_dataset(path)
    assert (back.dims, back.mask_shape) == (ds.dims, ds.mask_shape)
    pairs = [(getattr(back, k), getattr(ds, k)) for k in
             ("series", "design", "coords", "stimulus_times", "tr")]
    got = read_truth(path)
    pairs += [(got.labels, truth.labels), (got.seed, truth.seed),
              (got.shift_offsets, truth.shift_offsets)]
    for params in (got.params, read_params_json(str(tmp_path / "params.json"))):
        pairs += [(getattr(params, k), getattr(truth.params, k)) for k in
                  ("active_prob", "amplitude", "coeffs", "within_cov",
                   "between_cov", "noise_var")]
        pairs.append((params.hrf, truth.params.hrf))
    for read, wrote in pairs:
        assert _bits(read) == _bits(wrote)


def test_validate_params_rejects_non_finite_values():
    rng = np.random.default_rng(4)
    dims = make_dims(n_times=5, n_epochs=3, n_voxels=4, n_covariates=2)
    params = make_params(dims, rng)
    validate_params(params, dims)
    with pytest.raises(ValueError, match="noise_var must be positive and finite"):
        validate_params(params.with_updates(noise_var=np.nan), dims)
    hrf = params.hrf.copy()
    hrf[2] = np.nan
    with pytest.raises(ValueError, match="response shape is not finite"):
        validate_params(params.with_updates(hrf=hrf), dims)


def test_truth_absent_returns_none(tmp_path):
    ds, _, _ = _tiny_no_design(tmp_path)
    path = str(tmp_path / "plain")
    write_dataset(ds, path)
    assert read_truth(path) is None


def _tiny_no_design(tmp_path):
    cfg = SimConfig(n_voxels=5, n_times=3, n_epochs=2, n_covariates=0)
    ds, truth = simulate_dataset(cfg, seed=1)
    return ds, truth, tmp_path


def test_write_twice_is_byte_identical(bundle, tmp_path):
    ds, truth, path = bundle
    other = str(tmp_path / "again")
    write_dataset(ds, other, truth)
    for name in ("header.json", "data.f64", "design.csv", "truth.json"):
        with open(os.path.join(path, name), "rb") as f:
            a = f.read()
        with open(os.path.join(other, name), "rb") as f:
            b = f.read()
        assert a == b, name


def test_no_design_file_when_no_covariates(tmp_path):
    ds, _, _ = _tiny_no_design(tmp_path)
    path = str(tmp_path / "nodesign")
    write_dataset(ds, path)
    assert not os.path.exists(os.path.join(path, "design.csv"))
    back = read_dataset(path)
    assert back.design.shape == (ds.dims.n_images, 0)


def _patch_header(path, **changes):
    hp = os.path.join(path, "header.json")
    with open(hp) as f:
        header = json.load(f)
    header.update(changes)
    with open(hp, "w") as f:
        json.dump(header, f)


def test_read_rejects_bad_version_and_endianness(bundle):
    _, _, path = bundle
    _patch_header(path, version="2")
    with pytest.raises(BundleFormatError, match="version '2' unsupported"):
        read_dataset(path)
    _patch_header(path, version="1", endianness="big")
    with pytest.raises(BundleFormatError, match="endianness 'big'"):
        read_dataset(path)


@pytest.mark.parametrize(
    "changes",
    [
        {"coords": [[0, 1, 2]] * 11 + [[0, 1]]},
        {"stimulus_times": ["a", "b", "c"]},
        {"tr": "fast"},
        {"mask_shape": [4, "x", 4]},
    ],
)
def test_read_rejects_malformed_header_values(bundle, changes):
    _, _, path = bundle
    _patch_header(path, **changes)
    (key,) = changes
    with pytest.raises(BundleFormatError, match=f"^header.json: {key}: expected"):
        read_dataset(path)


def test_read_rejects_duplicate_coordinates(bundle):
    ds, _, path = bundle
    coords = ds.coords.tolist()
    _patch_header(path, coords=coords[:-1] + [coords[2]])
    with pytest.raises(BundleFormatError, match="not unique"):
        read_dataset(path)
    # same column values in other rows are not duplicates
    _patch_header(path, coords=[[v, v % 2, 0] for v in range(len(coords))],
                  mask_shape=[len(coords), 2, 1])
    read_dataset(path)


def test_read_rejects_coordinates_outside_mask_shape(bundle):
    ds, _, path = bundle
    coords = ds.coords.tolist()
    coords[3] = [ds.mask_shape[0], 0, 0]
    _patch_header(path, coords=coords)
    with pytest.raises(BundleFormatError, match="outside mask_shape"):
        read_dataset(path)


@pytest.mark.parametrize("mask_shape", OVERSIZED_GRIDS)
def test_read_rejects_an_oversized_volume_grid(bundle, mask_shape):
    _, _, path = bundle
    _patch_header(path, mask_shape=mask_shape)
    with pytest.raises(BundleFormatError, match="exceeds 256 per axis"):
        read_dataset(path)


@pytest.mark.parametrize("n_times, n_epochs", OVERSIZED_FACTORS)
def test_read_rejects_an_oversized_covariance_factor(tmp_path, n_times,
                                                     n_epochs):
    # the same bundle at the bound is valid
    path = str(tmp_path / "at_bound")
    write_bundle_by_hand(path, min(n_times, MAX_FACTOR_DIM),
                         min(n_epochs, MAX_FACTOR_DIM))
    read_dataset(path)
    path = str(tmp_path / "oversized")
    write_bundle_by_hand(path, n_times, n_epochs)
    with pytest.raises(BundleFormatError,
                       match=f"^header.json: dims: .*at most {MAX_FACTOR_DIM}"):
        read_dataset(path)


def test_read_bounds_the_coordinate_extent_without_mask_shape(bundle):
    ds, _, path = bundle
    coords = ds.coords.tolist()
    coords[3] = [0, 0, 255]
    _patch_header(path, coords=coords, mask_shape=None)
    assert read_dataset(path).mask_shape is None
    coords[3] = [0, 0, 256]
    _patch_header(path, coords=coords)
    with pytest.raises(BundleFormatError, match=r"\(\d+, \d+, 257\) exceeds"):
        read_dataset(path)


def test_dataset_replace_rejects_non_finite_series(bundle):
    # every Dataset is checked when it is built, a replaced one too
    ds, _, _ = bundle
    series = ds.series.copy()
    series[2, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        replace(ds, series=series)
    # stimulus onsets too: an infinite one once reached header.json
    with pytest.raises(ValueError, match="stimulus_times contains non-finite"):
        replace(ds, stimulus_times=np.full(ds.dims.n_epochs, np.inf))


def test_read_reports_byte_count_mismatch(bundle):
    ds, _, path = bundle
    data = os.path.join(path, "data.f64")
    with open(data, "ab") as f:
        f.write(b"\x00" * 8)
    expected = 8 * ds.dims.n_voxels * ds.dims.n_images
    with pytest.raises(
        BundleFormatError, match=f"expected {expected} bytes"
    ) as exc:
        read_dataset(path)
    assert f"found {expected + 8}" in str(exc.value)


def test_read_reports_json_byte_offset(bundle):
    _, _, path = bundle
    hp = os.path.join(path, "header.json")
    with open(hp, "rb") as f:
        raw = f.read()
    with open(hp, "wb") as f:
        f.write(b"#" + raw[1:])
    with pytest.raises(BundleFormatError, match="invalid JSON at byte 0"):
        read_dataset(path)


def test_read_reports_design_parse_position(bundle):
    ds, _, path = bundle
    dp = os.path.join(path, "design.csv")
    with open(dp) as f:
        lines = f.read().split("\n")
    cells = lines[2].split(",")
    cells[1] = "not-a-number"
    lines[2] = ",".join(cells)
    with open(dp, "w", newline="\n") as f:
        f.write("\n".join(lines))
    with pytest.raises(
        BundleFormatError,
        match=r"^design.csv: row 2, column 2 \(x2\): cannot parse 'not-a-number'",
    ):
        read_dataset(path)
    # wrong column count points at the row
    lines[2] = cells[0]
    with open(dp, "w", newline="\n") as f:
        f.write("\n".join(lines))
    with pytest.raises(
        BundleFormatError,
        match="^design.csv: row 2: expected 2 columns, found 1",
    ):
        read_dataset(path)


@pytest.mark.parametrize("cells, message", [
    ("1,x", r"row 2, column 2 \(loglik\): cannot parse 'x' as a number"),
    ("1,1_0", r"row 2, column 2 \(loglik\): cannot parse '1_0' as a number"),
    ("1.5,0.0", r"row 2, column 1 \(iteration\): 1.5 is not an integer"),
    ("1", "row 2: expected 2 columns, found 1"),
])
def test_table_errors_count_rows_and_columns_from_1(tmp_path, cells, message):
    write_csv(str(tmp_path / "loglik.csv"), ["iteration", "loglik"],
              columns=[np.arange(4), np.zeros(4)])
    lines = (tmp_path / "loglik.csv").read_text().split("\n")
    lines[2] = cells
    (tmp_path / "loglik.csv").write_text("\n".join(lines))
    with pytest.raises(BundleFormatError, match=f"^loglik.csv: {message}$"):
        io._read_table(str(tmp_path), "loglik.csv", 4)


def test_read_reports_missing_files(tmp_path, bundle):
    with pytest.raises(BundleFormatError, match="header.json: file not found"):
        read_dataset(str(tmp_path / "nowhere"))
    _, _, path = bundle
    os.remove(os.path.join(path, "data.f64"))
    with pytest.raises(BundleFormatError, match="data.f64: file not found"):
        read_dataset(path)


def test_params_json_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    dims = make_dims(n_times=5, n_epochs=3, n_voxels=4, n_covariates=2)
    params = make_params(dims, rng)
    path = str(tmp_path / "params.json")
    write_params_json(params, path)
    back = read_params_json(path)
    for field in (
        "amplitude",
        "coeffs",
        "within_cov",
        "between_cov",
    ):
        np.testing.assert_array_equal(
            getattr(back, field), getattr(params, field)
        )
    np.testing.assert_array_equal(back.hrf, params.hrf)
    assert back.active_prob == params.active_prob
    assert back.noise_var == params.noise_var
    # a file short of a declared key is a format error that names it
    with open(path, "w") as f:
        json.dump({"active_prob": 0.5}, f)
    with pytest.raises(BundleFormatError,
                       match="^params.json: amplitude: expected .*, got no value"):
        read_params_json(path)


@pytest.mark.parametrize(
    "n_voxels, n_covariates", [(30, 6), (30, 0), (1, 6)]
)
def test_params_json_bytes_match_json_dump(tmp_path, n_voxels, n_covariates):
    rng = np.random.default_rng(n_voxels + n_covariates)
    dims = make_dims(n_voxels=n_voxels, n_covariates=n_covariates)
    params = make_params(dims, rng)
    path = tmp_path / "params.json"
    write_params_json(params, str(path))
    expected = json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                           for k, v in vars(params).items()},
                          indent=2, sort_keys=True)
    assert path.read_bytes() == (expected + "\n").encode()
    back = read_params_json(str(path))
    for field in ("amplitude", "coeffs", "within_cov", "between_cov"):
        np.testing.assert_array_equal(
            getattr(back, field), getattr(params, field)
        )
    np.testing.assert_array_equal(back.hrf, params.hrf)
    assert back.active_prob == params.active_prob
    assert back.noise_var == params.noise_var


def test_format_float_roundtrips(tmp_path):
    # a float column's text gives back every float64 exactly
    floats = [0.1, 1.0 / 3.0, 1e-300, -0.0, 2.0**-52, np.pi, 1e308]
    path = str(tmp_path / "f.csv")
    write_csv(path, ["x"], columns=[floats])
    with open(path) as f:
        cells = f.read().split("\n")[1:-1]
    assert [float(c) for c in cells] == floats
    assert cells[floats.index(-0.0)].startswith("-")


def test_write_csv_uses_lf_only(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], columns=[[1, "x"], [0.1, 2.5]])
    with open(path, "rb") as f:
        raw = f.read()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.split("\n")[0] == "a,b"
    assert text.split("\n")[1] == "1,0.10000000000000001"
    assert text.endswith("\n")


def test_pgm_two_by_two_gray_levels(tmp_path):
    path = str(tmp_path / "map.pgm")
    write_map_pgm(np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None], path)
    with open(str(tmp_path / "map_s000.pgm"), "rb") as f:
        raw = f.read()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
    with open(str(tmp_path / "map.json")) as f:
        sidecar = json.load(f)
    assert sidecar == {
        "min": 0.0,
        "max": 3.0,
        "maxval": 255,
        "constant": False,
        "masked": False,
        "files": ["map_s000.pgm"],
    }


def test_pgm_constant_field_is_midgray(tmp_path):
    path = str(tmp_path / "flat.pgm")
    write_map_pgm(np.full((2, 3, 1), 7.5), path)
    with open(str(tmp_path / "flat_s000.pgm"), "rb") as f:
        raw = f.read()
    assert raw[-6:] == bytes([128] * 6)
    with open(str(tmp_path / "flat.json")) as f:
        sidecar = json.load(f)
    assert sidecar["constant"] is True
    assert sidecar["min"] == sidecar["max"] == 7.5


def test_pgm_volume_writes_slices(tmp_path):
    field = np.arange(24.0).reshape(2, 3, 4)
    path = str(tmp_path / "vol.pgm")
    write_map_pgm(field, path)
    with open(str(tmp_path / "vol.json")) as f:
        sidecar = json.load(f)
    assert sidecar["files"] == [f"vol_s{k:03d}.pgm" for k in range(4)]
    # one shared scale: slice 0 holds the global minimum, slice 3 the max
    with open(str(tmp_path / "vol_s000.pgm"), "rb") as f:
        first = f.read()
    assert first.startswith(b"P5\n3 2\n255\n")
    assert first[-6] == 0
    with open(str(tmp_path / "vol_s003.pgm"), "rb") as f:
        assert f.read()[-1] == 255


def test_pgm_mask_blanks_outside(tmp_path):
    field = np.array([[10.0, -99.0], [20.0, 30.0]])[:, :, None]
    mask = np.array([[True, False], [True, True]])[:, :, None]
    path = str(tmp_path / "m.pgm")
    write_map_pgm(field, path, mask=mask)
    with open(str(tmp_path / "m_s000.pgm"), "rb") as f:
        pixels = f.read()[-4:]
    # scale comes from visible values only (10..30); hidden pixel is 0
    assert pixels == bytes([0, 0, 128, 255])
    with open(str(tmp_path / "m.json")) as f:
        sidecar = json.load(f)
    assert sidecar["masked"] is True
    assert sidecar["min"] == 10.0 and sidecar["max"] == 30.0


def test_pgm_validation(tmp_path):
    path = str(tmp_path / "x.pgm")
    for field in (np.zeros(4), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="3-D"):
            write_map_pgm(field, path)
    with pytest.raises(ValueError, match="finite"):
        write_map_pgm(np.array([[[np.nan, 0.0]]]), path)
    with pytest.raises(ValueError, match="mask shape"):
        write_map_pgm(np.zeros((2, 2, 1)), path, mask=np.ones((3, 3, 3), bool))


def _write_csv_per_cell(path, header, rows):
    """The cell-by-cell rendering write_csv replaced, as the byte oracle."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(
                ",".join(
                    f"{float(c):.17g}" if isinstance(c, (float, np.floating))
                    else str(c)
                    for c in row
                )
                + "\n"
            )


def _read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def test_write_csv_matches_per_cell_rendering(tmp_path):
    floats = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0]
    n = len(floats)
    columns = [
        np.arange(n),
        np.array(floats),
        [np.float64(x) for x in floats],
        np.array(floats, dtype=np.float32),
        [int(i) * 10**20 for i in range(n)],
        [np.int64(-i) for i in range(n)],
        np.arange(n) % 2 == 0,
        [True, False] * (n // 2),
        [f"s{i}" for i in range(n)],
    ]
    header = [f"c{j}" for j in range(len(columns))]
    rows = list(zip(*columns))
    oracle = str(tmp_path / "oracle.csv")
    _write_csv_per_cell(oracle, header, rows)
    path = str(tmp_path / "columns.csv")
    write_csv(path, header, columns=columns)
    assert _read_bytes(path) == _read_bytes(oracle)
    table = np.random.default_rng(0).standard_normal((7, 3))
    _write_csv_per_cell(oracle, ["a", "b", "c"], table)
    write_csv(str(tmp_path / "array.csv"), ["a", "b", "c"], columns=table.T)
    assert _read_bytes(str(tmp_path / "array.csv")) == _read_bytes(oracle)
    # no artifact holds a column of floats and other values
    mixed = [x if i % 2 else "x" for i, x in enumerate(floats)]
    with pytest.raises(ValueError, match="mixes floats"):
        write_csv(str(tmp_path / "mixed.csv"), ["m"], columns=[mixed])


def test_write_csv_zero_rows_and_bad_shapes(tmp_path):
    oracle = str(tmp_path / "oracle.csv")
    _write_csv_per_cell(oracle, ["a", "b"], [])
    for name, columns in (
        ("columns", [np.zeros(0), np.zeros(0, dtype=np.int64)]),
        ("array", np.zeros((0, 2)).T),
    ):
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, ["a", "b"], columns=columns)
        assert _read_bytes(path) == _read_bytes(oracle) == b"a,b\n", name
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, ["a", "b"], columns=[[1, 2], [1.0]])
    with pytest.raises(ValueError, match="header"):
        write_csv(path, ["a", "b"], columns=[[1, 2]])


def _json_dump_bytes(obj, path):
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    return _read_bytes(path)


def test_dump_json_matches_json_dump(tmp_path):
    header = {
        "version": "1",
        "endianness": "little",
        "dims": {"n_times": 4, "n_epochs": 3, "n_voxels": 3, "n_covariates": 0},
        "tr": 2.0,
        "stimulus_times": [0.0, 8.5, 17.25],
        "coords": [[0, 1, 2], [3, 4, 5], [10, 0, 7]],
        "mask_shape": None,
    }
    truth = {
        "seed": 7,
        "labels": [0, 1, 1, 0],
        "shift_offsets": None,
        "params": {
            "active_prob": 0.25,
            "amplitude": [1.5, float("nan"), -0.0, 5e-324],
            "coeffs": [[0.1, 0.2], [1e16, -1e-300], [3.0, 4.0], [5.0, 6.0]],
            "hrf": [0.5, 0.5],
            "within_cov": [[1.0, float("inf")], [0.0, 1.0]],
            "between_cov": [[1.0]],
            "noise_var": 1.0,
        },
    }
    odd = {
        "empty": [[], []],
        "ragged": [[1, 2], [3]],
        "mixed": [1, 2.5, True, None, "x\ny"],
        "tuple": (1, 2),
        "nested": {"z": {}, "a": [{"k": [np.float64(0.5)]}]},
        "int_keys": {2: "b", 1: "a"},
        "big": 10**30,
    }
    for name, obj in (("header", header), ("truth", truth), ("odd", odd)):
        path = str(tmp_path / f"{name}.json")
        io.write_json(obj, path)
        assert _read_bytes(path) == _json_dump_bytes(obj, path + ".ref"), name


def test_write_dataset_copies_truth_bytes(tmp_path):
    ds, truth = simulate_dataset(
        SimConfig(n_voxels=6, n_times=4, n_epochs=3, n_covariates=0), seed=2
    )
    src = str(tmp_path / "src")
    write_dataset(ds, src, truth)
    raw = read_truth_bytes(src)
    dst = str(tmp_path / "dst")
    write_dataset(ds, dst, raw)
    assert _read_bytes(os.path.join(dst, "truth.json")) == raw
    back = read_truth(dst)
    np.testing.assert_array_equal(back.labels, truth.labels)
    assert read_truth_bytes(str(tmp_path)) is None


def _bits(value):
    """dtype and bytes: equal only for the same type and the same bits."""
    value = np.asarray(value)
    return value.dtype.str, value.tobytes()


@pytest.mark.parametrize("stage", ["fit", "infer"])
def test_fit_and_infer_directories_read_back_their_bits(tmp_path, stage):
    rng = np.random.default_rng(21)
    dims = make_dims(n_voxels=40)
    ds = make_dataset(dims, rng)
    edge = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, -0.0, 1e-300]
    fit = FitResult(
        params=make_params(dims, rng),
        resp=np.concatenate([edge, rng.uniform(size=dims.n_voxels - 6)]),
        loglik_trace=np.cumsum(rng.uniform(size=8)) - 1e4 / 3.0,
        iterations=7,
        converged=False,
    )
    t = np.concatenate([[np.inf, -np.inf, -0.0, 1e-310],
                        rng.standard_normal(dims.n_voxels - 4) * 3.0])
    pvals = np.concatenate([[0.0, 5e-324], rng.uniform(size=dims.n_voxels - 2)])
    reject = pvals < 0.3
    cluster = np.where(reject, rng.integers(1, 4, dims.n_voxels), 0)
    amap = ActivationMap(t, pvals, reject, cluster, df=17)
    fdr = FdrResult(reject, threshold=0.3, m0_hat=30, n_rejected=int(reject.sum()))
    with io.OutputDir(str(tmp_path)) as out:
        io.write_fit(out, fit)
        io.write_infer(out, ds, amap, fdr)
    if stage == "fit":
        got = io.read_fit(str(tmp_path), ds)
        pairs = [(got.resp, fit.resp),
                 (got.loglik_trace, fit.loglik_trace),
                 (got.iterations, fit.iterations),
                 (got.converged, fit.converged)]
        # every parameter, so a field params.json does not hold fails here
        for field in fields(MixtureParams):
            read = getattr(got.params, field.name)
            written = getattr(fit.params, field.name)
            np.testing.assert_array_equal(read, written, strict=True)
            pairs.append((read, written))
    else:
        got = io.read_amap(str(tmp_path), ds)
        pairs = [(got.t_stat, t), (got.pvals, pvals), (got.reject, reject),
                 (got.cluster, cluster), (got.df, amap.df)]
    for read, written in pairs:
        assert _bits(read) == _bits(written)
