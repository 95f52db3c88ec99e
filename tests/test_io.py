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
from trialmix.types import (MAX_FACTOR_DIM, ActivationMap, Dims, FitResult,
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


def _truth_bits(truth):
    """Every SimTruth field's shape, dtype and bytes, parameters included."""
    values = ([getattr(truth, k) for k in ("labels", "seed", "shift_offsets")]
              + [getattr(truth.params, f.name) for f in fields(truth.params)])
    return [(np.shape(v), _bits(v)) for v in values]


# q=6, q=0 (a two-column sidecar) and jittered phase (shift_offsets set)
TRUTH_CASES = {
    "q6": dict(n_voxels=300, n_covariates=6),
    "q0": dict(n_voxels=7, n_times=4, n_epochs=3, n_covariates=0),
    "jitter": dict(n_voxels=12, n_times=4, n_epochs=3, n_covariates=2,
                   phase="jitter"),
}


def test_truth_roundtrip(tmp_path):
    for case, sim in TRUTH_CASES.items():
        ds, truth = simulate_dataset(SimConfig(**sim), seed=6)
        path = str(tmp_path / case)
        write_dataset(ds, path, truth)
        assert _truth_bits(read_truth(path)) == _truth_bits(truth), case
        q = ds.dims.n_covariates
        assert os.path.getsize(os.path.join(path, "truth.f64")) == \
            8 * ds.dims.n_voxels * (2 + q), case
        with open(os.path.join(path, "truth.json")) as f:
            assert set(json.load(f)) == {"seed", "shift_offsets", "params"}


def test_truth_sidecar_of_another_size_or_label_is_refused(bundle):
    _, _, path = bundle
    sidecar = os.path.join(path, "truth.f64")
    rows = np.fromfile(sidecar, dtype="<f8").reshape(12, 4)
    rows[:-1].tofile(sidecar)
    with pytest.raises(BundleFormatError,
                       match="truth.f64: expected 384 bytes, found 352"):
        read_truth(path)
    rows[3, 0] = 2.0
    rows.tofile(sidecar)
    with pytest.raises(BundleFormatError, match="label is not 0 or 1"):
        read_truth(path)


def test_writers_agree_with_the_declarations(bundle, tmp_path):
    ds, truth, path = bundle
    write_params_json(truth.params, str(tmp_path / "params.json"))
    with open(os.path.join(path, "design.csv")) as f:
        assert f.readline() == "x1,x2\n"
    with open(os.path.join(path, "coords.csv")) as f:
        assert f.readline() == "x,y,z\n"
    # each record reads back, through its declaration, to the same bits
    back = read_dataset(path)
    assert (back.dims, back.mask_shape) == (ds.dims, ds.mask_shape)
    pairs = [(getattr(back, k), getattr(ds, k)) for k in
             ("series", "design", "coords", "stimulus_times", "tr")]
    got = read_truth(path)
    pairs += [(got.labels, truth.labels), (got.seed, truth.seed),
              (got.shift_offsets, truth.shift_offsets)]
    pairs += [(getattr(got.params, f.name), getattr(truth.params, f.name))
              for f in fields(MixtureParams)]
    # params.json holds the global parameters only
    written = read_params_json(str(tmp_path / "params.json"))
    assert list(written) == list(io.GLOBAL_PARAMS)
    pairs += [(v, getattr(truth.params, k)) for k, v in written.items()]
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
    for name in ("header.json", "data.f64", "coords.csv", "design.csv",
                 "truth.json", "truth.f64"):
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
    _patch_header(path, version="1")
    with pytest.raises(BundleFormatError, match="version '1' unsupported"):
        read_dataset(path)
    _patch_header(path, version="2", endianness="big")
    with pytest.raises(BundleFormatError, match="endianness 'big'"):
        read_dataset(path)


def test_read_refuses_a_version_1_bundle_by_its_version(bundle):
    # version "1" held the coordinates in header.json; the version is
    # checked before the keys, so the error names it, not the key
    ds, _, path = bundle
    _patch_header(path, version="1", coords=ds.coords.tolist())
    os.remove(os.path.join(path, "coords.csv"))
    with pytest.raises(BundleFormatError,
                       match=r"^header.json: format version '1' unsupported "
                             r"\(expected '2'\)$"):
        read_dataset(path)


@pytest.mark.parametrize(
    "changes",
    [
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


def _write_coords(path, coords):
    """coords.csv holding ``coords``, one x,y,z row per voxel."""
    with open(os.path.join(path, "coords.csv"), "w") as f:
        f.write("x,y,z\n" + "".join(f"{x},{y},{z}\n" for x, y, z in coords))


@pytest.mark.parametrize("line, message", [
    ("0,1,2.5", r"row 3, column 3 \(z\): 2.5 is not an integer"),
    ("0,1", "row 3: expected 3 columns, found 2"),
    ("0,one,2", r"row 3, column 2 \(y\): cannot parse 'one' as a number"),
    ("0,1,1e300", r"row 3, column 3 \(z\): 1e\+300 is not an integer"),
])
def test_read_rejects_malformed_coordinates(bundle, line, message):
    ds, _, path = bundle
    rows = [",".join(map(str, c)) for c in ds.coords.tolist()]
    rows[2] = line
    with open(os.path.join(path, "coords.csv"), "w") as f:
        f.write("x,y,z\n" + "\n".join(rows) + "\n")
    with pytest.raises(BundleFormatError, match=f"^coords.csv: {message}$"):
        read_dataset(path)
    _write_coords(path, ds.coords[:-1])
    with pytest.raises(BundleFormatError,
                       match="^coords.csv: expected the header 'x,y,z' and 12 rows"):
        read_dataset(path)
    os.remove(os.path.join(path, "coords.csv"))
    with pytest.raises(BundleFormatError, match="^coords.csv: file not found"):
        read_dataset(path)


def test_read_rejects_duplicate_coordinates(bundle):
    ds, _, path = bundle
    coords = ds.coords.tolist()
    _write_coords(path, coords[:-1] + [coords[2]])
    with pytest.raises(BundleFormatError, match="not unique"):
        read_dataset(path)
    # same column values in other rows are not duplicates
    _write_coords(path, [[v, v % 2, 0] for v in range(len(coords))])
    _patch_header(path, mask_shape=[len(coords), 2, 1])
    read_dataset(path)


def test_read_rejects_coordinates_outside_mask_shape(bundle):
    ds, _, path = bundle
    coords = ds.coords.tolist()
    coords[3] = [ds.mask_shape[0], 0, 0]
    _write_coords(path, coords)
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
    _write_coords(path, coords)
    _patch_header(path, mask_shape=None)
    assert read_dataset(path).mask_shape is None
    coords[3] = [0, 0, 256]
    _write_coords(path, coords)
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
    write_csv(str(tmp_path / "loglik.csv"), io.ARTIFACTS["loglik.csv"],
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
    assert set(back) == {"active_prob", "hrf", "within_cov", "between_cov",
                         "noise_var"}
    for field in ("hrf", "within_cov", "between_cov"):
        np.testing.assert_array_equal(back[field], getattr(params, field))
    assert back["active_prob"] == params.active_prob
    assert back["noise_var"] == params.noise_var
    # a file short of a declared key is a format error that names it
    with open(path, "w") as f:
        json.dump({"active_prob": 0.5}, f)
    with pytest.raises(BundleFormatError,
                       match="^params.json: hrf: expected .*, got no value"):
        read_params_json(path)
    # per-voxel values are no params.json keys
    with open(path, "w") as f:
        json.dump({**{k: v.tolist() if isinstance(v, np.ndarray) else v
                      for k, v in back.items()}, "amplitude": [1.0]}, f)
    with pytest.raises(BundleFormatError,
                       match="^params.json: unknown key.s. amplitude"):
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
    # the global parameters only: the file's size does not depend on V
    expected = json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                           for k, v in vars(params).items()
                           if k not in ("amplitude", "coeffs")},
                          indent=2, sort_keys=True)
    assert path.read_bytes() == (expected + "\n").encode()
    back = read_params_json(str(path))
    for field in ("hrf", "within_cov", "between_cov"):
        np.testing.assert_array_equal(back[field], getattr(params, field))
    assert back["active_prob"] == params.active_prob
    assert back["noise_var"] == params.noise_var


def test_format_float_roundtrips(tmp_path):
    # a float column's text gives back every float64 exactly
    floats = [0.1, 1.0 / 3.0, 1e-300, -0.0, 2.0**-52, np.pi, 1e308]
    path = str(tmp_path / "f.csv")
    write_csv(path, {"x": float}, columns=[floats])
    with open(path) as f:
        cells = f.read().split("\n")[1:-1]
    assert [float(c) for c in cells] == floats
    assert cells[floats.index(-0.0)].startswith("-")


def test_write_csv_uses_lf_only(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, {"a": str, "b": float}, columns=[[1, "x"], [0.1, 2.5]])
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


def test_pgm_infinities_saturate_on_a_flat_scale(tmp_path):
    # the finite values are all equal: they are mid-gray, and +inf and
    # -inf still take the ends of the scale
    write_map_pgm(np.array([[0.0, 0.0], [np.inf, -np.inf]])[:, :, None],
                  str(tmp_path / "inf.pgm"))
    assert _read_bytes(str(tmp_path / "inf_s000.pgm")) == (
        b"P5\n2 2\n255\n" + bytes([128, 128, 255, 0]))
    with open(str(tmp_path / "inf.json")) as f:
        sidecar = json.load(f)
    assert (sidecar["min"], sidecar["max"], sidecar["constant"]) == (0.0, 0.0, True)


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


def _write_csv_per_cell(path, declared, rows):
    """Cell-by-cell rendering by the declared types, as the byte oracle:
    f"{x:.17g}" for a float, the integer's text for an int or bool, str
    for a str."""
    render = {float: lambda c: f"{float(c):.17g}",
              int: lambda c: str(int(c)), bool: lambda c: str(int(c)), str: str}
    with open(path, "w", newline="\n") as f:
        f.write(",".join(declared) + "\n")
        for row in rows:
            f.write(",".join(render[kind](c)
                             for c, kind in zip(row, declared.values())) + "\n")


def _read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def test_write_csv_matches_per_cell_rendering(tmp_path):
    floats = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1.0 / 3.0]
    n = len(floats)
    declared_columns = [
        (int, np.arange(n)),
        (float, np.array(floats)),
        (float, [np.float64(x) for x in floats]),
        (float, np.array(floats, dtype=np.float32)),
        (float, list(range(n))),
        (int, [int(i) * 10**17 for i in range(n)]),
        (int, [np.int64(-i) for i in range(n)]),
        (int, np.arange(n, dtype=np.float64)),
        (bool, np.arange(n) % 2 == 0),
        (bool, [True, False] * (n // 2)),
        (str, [f"s{i}" for i in range(n)]),
        (str, np.array(["plus", "minus"])[np.arange(n) % 2]),
    ]
    declared = {f"c{j}": kind for j, (kind, _) in enumerate(declared_columns)}
    columns = [column for _, column in declared_columns]
    oracle = str(tmp_path / "oracle.csv")
    _write_csv_per_cell(oracle, declared, list(zip(*columns)))
    path = str(tmp_path / "columns.csv")
    write_csv(path, declared, columns=columns)
    assert _read_bytes(path) == _read_bytes(oracle)
    table = np.random.default_rng(0).standard_normal((7, 3))
    declared = {"a": float, "b": float, "c": float}
    _write_csv_per_cell(oracle, declared, table)
    write_csv(str(tmp_path / "array.csv"), declared, columns=table.T)
    assert _read_bytes(str(tmp_path / "array.csv")) == _read_bytes(oracle)


def test_write_csv_zero_rows_and_bad_shapes(tmp_path):
    oracle = str(tmp_path / "oracle.csv")
    declared = {"a": float, "b": int}
    _write_csv_per_cell(oracle, declared, [])
    for name, columns in (
        ("columns", [np.zeros(0), np.zeros(0, dtype=np.int64)]),
        ("array", np.zeros((0, 2)).T),
    ):
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, declared, columns=columns)
        assert _read_bytes(path) == _read_bytes(oracle) == b"a,b\n", name
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, declared, columns=[[1, 2], [1.0]])
    with pytest.raises(ValueError, match="zip"):
        write_csv(path, declared, columns=[[1, 2]])


def _json_dump_bytes(obj, path):
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    return _read_bytes(path)


def test_dump_json_matches_json_dump(tmp_path):
    # a record is rendered by its declaration, every float to the same
    # bits and arrays and tuples to lists, then written as json.dump
    # writes it
    header = {
        "version": "2",
        "endianness": "little",
        "dims": {"n_times": 4, "n_epochs": 3, "n_voxels": 3, "n_covariates": 0},
        "tr": 2.0,
        "stimulus_times": [0.0, 8.5, 17.25],
        "mask_shape": [2, 2, 1],
    }
    truth = {
        "seed": 7,
        "shift_offsets": None,
        "params": {
            "active_prob": 0.25,
            "hrf": [0.5, -0.0],
            "within_cov": [[1.0, 5e-324], [1e16, -1e-300]],
            "between_cov": [[1.0]],
            "noise_var": 1.0 / 3.0,
        },
    }
    sidecar = {"min": -0.0, "max": 0.1, "maxval": 255, "constant": False,
               "masked": True, "files": ["m_s000.pgm", "m_s001.pgm"]}
    values = {
        "header.json": {**header, "dims": Dims(**header["dims"]),
                        "stimulus_times": np.array(header["stimulus_times"]),
                        "mask_shape": (2, 2, 1)},
        "truth.json": {**truth, "params": {
            k: np.asarray(v) if isinstance(v, list) else np.float64(v)
            for k, v in truth["params"].items()}},
        "tmap.json": {**sidecar, "min": np.float64(-0.0), "maxval": np.int64(255),
                      "masked": np.bool_(True), "files": tuple(sidecar["files"])},
    }
    for name, obj in (("header.json", header), ("truth.json", truth),
                      ("tmap.json", sidecar)):
        path = str(tmp_path / name)
        io._write_record(path, io.ARTIFACTS[name], values[name])
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
    assert tuple(_read_bytes(os.path.join(dst, name))
                 for name in ("truth.json", "truth.f64")) == raw
    assert _truth_bits(read_truth(dst)) == _truth_bits(truth)
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
    with io.OutputDir(str(tmp_path), ("fit", "infer")) as out:
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


@pytest.mark.parametrize("n_covariates", [6, 0])
def test_read_fit_rebuilds_the_parameters_from_two_files(tmp_path,
                                                         n_covariates):
    # params.json holds the global parameters and resp.csv the per-voxel
    # ones; read_fit joins them back into the MixtureParams written
    rng = np.random.default_rng(n_covariates)
    dims = make_dims(n_voxels=30, n_covariates=n_covariates)
    params = make_params(dims, rng)
    params = params.with_updates(amplitude=np.concatenate(
        [[-0.0, 5e-324, 1e300, 1.0 / 3.0], params.amplitude[4:]]))
    fit = FitResult(params, rng.uniform(size=dims.n_voxels),
                    np.array([-10.0, -5.0]), 1, True)
    with io.OutputDir(str(tmp_path), ("fit",)) as out:
        io.write_fit(out, fit)
    with open(tmp_path / "params.json") as f:
        assert list(json.load(f)) == sorted(io.GLOBAL_PARAMS)
    with open(tmp_path / "resp.csv") as f:
        assert f.readline() == ",".join(
            ["voxel", "resp", "amplitude"]
            + [f"x{j + 1}" for j in range(n_covariates)]) + "\n"
    got = io.read_fit(str(tmp_path), make_dataset(dims, rng)).params
    for field in fields(MixtureParams):
        read, written = getattr(got, field.name), getattr(params, field.name)
        np.testing.assert_array_equal(read, written, strict=True)
        assert _bits(read) == _bits(written), field.name
