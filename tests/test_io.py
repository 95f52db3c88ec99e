"""Bundle format round-trips and serialization edge cases."""
import json
import os

import numpy as np
import pytest

from trialmix.io import (
    BundleFormatError,
    format_float,
    params_from_dict,
    params_to_dict,
    read_dataset,
    read_params_json,
    read_truth,
    write_csv,
    write_dataset,
    write_map_pgm,
    write_params_json,
)
from trialmix.simulate import SimConfig, simulate_dataset

from helpers import make_dims, make_params


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
        BundleFormatError, match="row 2, column 2: cannot parse 'not-a-number'"
    ):
        read_dataset(path)
    # wrong column count points at the row
    lines[2] = cells[0]
    with open(dp, "w", newline="\n") as f:
        f.write("\n".join(lines))
    with pytest.raises(
        BundleFormatError, match="row 2: expected 2 columns, found 1"
    ):
        read_dataset(path)


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
    np.testing.assert_array_equal(back.hrf.values, params.hrf.values)
    assert back.active_prob == params.active_prob
    assert back.noise_var == params.noise_var
    # dict form survives a JSON round trip bit-for-bit
    blob = json.dumps(params_to_dict(params))
    again = params_from_dict(json.loads(blob))
    np.testing.assert_array_equal(again.amplitude, params.amplitude)
    with pytest.raises(BundleFormatError, match="bad parameter block"):
        params_from_dict({"active_prob": 0.5})


@pytest.mark.parametrize(
    "n_voxels, n_covariates", [(30, 6), (30, 0), (1, 6)]
)
def test_params_json_bytes_match_json_dump(tmp_path, n_voxels, n_covariates):
    rng = np.random.default_rng(n_voxels + n_covariates)
    dims = make_dims(n_voxels=n_voxels, n_covariates=n_covariates)
    params = make_params(dims, rng)
    path = tmp_path / "params.json"
    write_params_json(params, str(path))
    expected = json.dumps(params_to_dict(params), indent=2, sort_keys=True)
    assert path.read_bytes() == (expected + "\n").encode()
    back = read_params_json(str(path))
    for field in ("amplitude", "coeffs", "within_cov", "between_cov"):
        np.testing.assert_array_equal(
            getattr(back, field), getattr(params, field)
        )
    np.testing.assert_array_equal(back.hrf.values, params.hrf.values)
    assert back.active_prob == params.active_prob
    assert back.noise_var == params.noise_var


def test_format_float_roundtrips():
    for x in (0.1, 1.0 / 3.0, 1e-300, -0.0, 2.0**-52, np.pi, 1e308):
        s = format_float(x)
        assert float(s) == x or (x == 0.0 and float(s) == 0.0)
    assert float(format_float(-0.0)) == 0.0
    assert format_float(-0.0).startswith("-")


def test_write_csv_uses_lf_only(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [[1, 0.1], ["x", 2.5]])
    with open(path, "rb") as f:
        raw = f.read()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.split("\n")[0] == "a,b"
    assert text.split("\n")[1] == "1,0.10000000000000001"
    assert text.endswith("\n")


def test_pgm_two_by_two_gray_levels(tmp_path):
    path = str(tmp_path / "map.pgm")
    write_map_pgm(np.array([[0.0, 1.0], [2.0, 3.0]]), path)
    with open(path, "rb") as f:
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
        "files": ["map.pgm"],
    }


def test_pgm_constant_field_is_midgray(tmp_path):
    path = str(tmp_path / "flat.pgm")
    write_map_pgm(np.full((2, 3), 7.5), path)
    with open(path, "rb") as f:
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
    field = np.array([[10.0, -99.0], [20.0, 30.0]])
    mask = np.array([[True, False], [True, True]])
    path = str(tmp_path / "m.pgm")
    write_map_pgm(field, path, mask=mask)
    with open(path, "rb") as f:
        pixels = f.read()[-4:]
    # scale comes from visible values only (10..30); hidden pixel is 0
    assert pixels == bytes([0, 0, 128, 255])
    with open(str(tmp_path / "m.json")) as f:
        sidecar = json.load(f)
    assert sidecar["masked"] is True
    assert sidecar["min"] == 10.0 and sidecar["max"] == 30.0


def test_pgm_validation(tmp_path):
    path = str(tmp_path / "x.pgm")
    with pytest.raises(ValueError, match="2-D or 3-D"):
        write_map_pgm(np.zeros(4), path)
    with pytest.raises(ValueError, match="finite"):
        write_map_pgm(np.array([[np.nan, 0.0]]), path)
    with pytest.raises(ValueError, match="mask shape"):
        write_map_pgm(np.zeros((2, 2)), path, mask=np.ones((3, 3), bool))
