"""Preprocessing oracles: cosine drift removal, Fourier trial alignment,
and mask-aware smoothing."""
import itertools
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from trialmix.preprocess import (
    PreprocConfig,
    center_columns,
    dct_basis,
    dct_highpass,
    mean_center,
    preprocess_dataset,
    shift_offsets_from_stimulus,
    trial_time_shift,
    _axis_kernel,
)
from trialmix.types import Dataset, DegenerateDataError, Dims

from helpers import (assert_near, gaussian_smooth_3d, make_bundle,
                     make_dataset, make_dims, preprocess_whole, traced_peak)


def test_centering_helpers():
    rng = np.random.default_rng(0)
    series = rng.standard_normal((4, 30)) + 5.0
    out = mean_center(series)
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    design = rng.standard_normal((30, 3)) + 2.0
    np.testing.assert_allclose(
        center_columns(design).mean(axis=0), 0.0, atol=1e-12
    )
    assert center_columns(np.zeros((5, 0))).shape == (5, 0)


def test_dct_basis_orthogonality():
    n = 40
    basis = dct_basis(n, 6)
    gram = basis.T @ basis
    np.testing.assert_allclose(gram, (n / 2.0) * np.eye(6), atol=1e-10)
    # all columns orthogonal to the constant, which the basis excludes
    np.testing.assert_allclose(basis.sum(axis=0), 0.0, atol=1e-10)


def test_dct_basis_rejects_too_many_functions():
    with pytest.raises(ValueError):
        dct_basis(5, 5)


def test_highpass_removes_basis_and_keeps_constants():
    n, tr, cutoff = 140, 2.0, 128.0
    # floor(2 * 140 * 2 / 128) = 4 drift functions removed
    basis = dct_basis(n, 4)
    for k in range(4):
        out = dct_highpass(basis[:, k], tr, cutoff)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)
    # the next function survives
    survivor = dct_basis(n, 5)[:, 4]
    np.testing.assert_allclose(
        dct_highpass(survivor, tr, cutoff), survivor, atol=1e-10
    )
    np.testing.assert_allclose(
        dct_highpass(np.full(n, 3.0), tr, cutoff), 3.0, atol=1e-10
    )


def test_highpass_is_idempotent_and_batched():
    rng = np.random.default_rng(1)
    series = rng.standard_normal((7, 90))
    once = dct_highpass(series, 2.0, 100.0)
    twice = dct_highpass(once, 2.0, 100.0)
    np.testing.assert_allclose(twice, once, atol=1e-10)
    # batch rows match one-at-a-time filtering
    np.testing.assert_allclose(once[3], dct_highpass(series[3], 2.0, 100.0))


def test_highpass_short_series_pass_through():
    series = np.arange(10.0)
    # cutoff longer than twice the record: zero functions removed
    np.testing.assert_array_equal(dct_highpass(series, 2.0, 1000.0), series)


def test_highpass_rejects_cutoff_at_sampling_limit():
    with pytest.raises(ValueError, match="cutoff"):
        dct_highpass(np.zeros(20), 2.0, 4.0)


def test_trial_shift_matches_sinusoid_resampling():
    n_times, k = 11, 3
    shifts = np.array([0.3, -0.45])
    t = np.arange(n_times)
    phases = [0.2, 1.1]
    series = np.concatenate(
        [np.cos(2.0 * np.pi * k * t / n_times + ph) for ph in phases]
    )
    expected = np.concatenate(
        [
            np.cos(2.0 * np.pi * k * (t - s) / n_times + ph)
            for s, ph in zip(shifts, phases)
        ]
    )
    out = trial_time_shift(series, shifts)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_trial_shift_integer_shift_rolls():
    rng = np.random.default_rng(2)
    series = rng.standard_normal(9)
    out = trial_time_shift(series, np.array([2.0]))
    np.testing.assert_allclose(out, np.roll(series, 2), atol=1e-10)


def test_trial_shift_invertible_for_odd_epochs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n_ep = int(rng.integers(1, 5))
        n_t = int(rng.choice([5, 7, 9, 13]))
        series = rng.standard_normal((3, n_ep * n_t))
        shifts = rng.uniform(-0.5, 0.5, n_ep)
        back = trial_time_shift(trial_time_shift(series, shifts), -shifts)
        np.testing.assert_allclose(back, series, atol=1e-9)


def test_trial_shift_composes():
    rng = np.random.default_rng(4)
    series = rng.standard_normal(2 * 7)
    s1 = np.array([0.2, -0.1])
    s2 = np.array([0.15, 0.3])
    np.testing.assert_allclose(
        trial_time_shift(trial_time_shift(series, s1), s2),
        trial_time_shift(series, s1 + s2),
        atol=1e-10,
    )


def test_trial_shift_even_epochs_invertible_below_nyquist():
    # zero out the Nyquist bin first; the remaining band shifts exactly
    rng = np.random.default_rng(5)
    n_t = 8
    spec = np.zeros(n_t // 2 + 1, dtype=complex)
    spec[1:-1] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    series = np.fft.irfft(spec, n=n_t)
    shifts = np.array([0.37])
    back = trial_time_shift(trial_time_shift(series, shifts), -shifts)
    np.testing.assert_allclose(back, series, atol=1e-9)


def test_trial_shift_validates_inputs():
    with pytest.raises(ValueError, match="vector"):
        trial_time_shift(np.zeros(6), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="finite"):
        trial_time_shift(np.zeros(6), np.array([np.nan]))
    with pytest.raises(ValueError, match="multiple"):
        trial_time_shift(np.zeros(7), np.zeros(2))


def test_shift_offsets_from_stimulus_hand_cases():
    # onsets 0, 2.5, 3.5 with tr 2: fractions 0, .25, .75 -> .75 wraps to -.25
    got = shift_offsets_from_stimulus(np.array([0.0, 2.5, 3.5]), 2.0)
    np.testing.assert_allclose(got, [0.0, -0.25, 0.25], atol=1e-12)
    # exactly half a TR stays at +0.5, mapping to a -0.5 shift
    got = shift_offsets_from_stimulus(np.array([1.0]), 2.0)
    np.testing.assert_allclose(got, [-0.5], atol=1e-12)


def test_smoothing_impulse_gives_separable_kernel():
    size, center, fwhm = 15, 7, 1.5
    vol = np.zeros((size, size, size))
    vol[center, center, center] = 1.0
    out = gaussian_smooth_3d(vol, fwhm)
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    radius = int(np.ceil(4.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kern = np.exp(-0.5 * (x / sigma) ** 2)
    kern /= kern.sum()
    expected = np.zeros_like(vol)
    sl = slice(center - radius, center + radius + 1)
    expected[sl, sl, sl] = np.einsum("i,j,k->ijk", kern, kern, kern)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    assert abs(out.sum() - 1.0) < 1e-12


def test_smoothing_preserves_interior_mass():
    rng = np.random.default_rng(6)
    vol = np.zeros((24, 24, 24))
    vol[8:16, 8:16, 8:16] = rng.standard_normal((8, 8, 8))
    out = gaussian_smooth_3d(vol, 2.0)
    assert abs(out.sum() - vol.sum()) < 1e-9 * abs(vol.sum())


def test_smoothing_is_mask_aware():
    rng = np.random.default_rng(7)
    vol = np.full((8, 8, 8), 3.0)
    mask = rng.random((8, 8, 8)) < 0.6
    mask[4, 4, 4] = True
    out = gaussian_smooth_3d(vol, 2.0, mask=mask)
    # constant data stays constant on the mask, zero off it
    np.testing.assert_allclose(out[mask], 3.0, atol=1e-12)
    np.testing.assert_array_equal(out[~mask], 0.0)
    # garbage outside the mask cannot leak in
    poisoned = vol.copy()
    poisoned[~mask] = 1e12
    np.testing.assert_allclose(
        gaussian_smooth_3d(poisoned, 2.0, mask=mask), out, atol=1e-9
    )


def test_smoothing_wider_than_the_grid_averages_the_mask():
    # the kernel radius stops at the grid's extent, where taps past it
    # would meet no voxel; a kernel that fits keeps its bits
    assert _axis_kernel(1.3, 6).tobytes() == _axis_kernel(1.3, 100).tobytes()
    assert _axis_kernel(1e300, 4).size == 9
    rng = np.random.default_rng(8)
    vol = rng.standard_normal((5, 4, 3))
    mask = rng.random(vol.shape) < 0.7
    out = gaussian_smooth_3d(vol, 1e300, mask=mask)
    np.testing.assert_allclose(out[mask], vol[mask].mean(), rtol=1e-12)
    np.testing.assert_array_equal(out[~mask], 0.0)


def test_smoothing_zero_fwhm_copies():
    vol = np.arange(27.0).reshape(3, 3, 3)
    mask = vol > 10.0
    out = gaussian_smooth_3d(vol, 0.0, mask=mask)
    np.testing.assert_array_equal(out[mask], vol[mask])
    np.testing.assert_array_equal(out[~mask], 0.0)


def test_smoothing_validates_inputs():
    with pytest.raises(ValueError, match="3-D"):
        gaussian_smooth_3d(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        gaussian_smooth_3d(np.zeros((2, 2, 2)), -1.0)
    with pytest.raises(ValueError, match="mask shape"):
        gaussian_smooth_3d(np.zeros((2, 2, 2)), 1.0, mask=np.ones((3, 3, 3), bool))


def test_preprocess_dataset_composes_the_steps():
    rng = np.random.default_rng(9)
    dims = make_dims(n_times=9, n_epochs=4, n_voxels=5, n_covariates=2)
    ds = make_dataset(dims, rng)
    # offset the onsets so alignment has something to do
    ds = type(ds)(
        dims=ds.dims,
        series=ds.series,
        design=ds.design,
        coords=ds.coords,
        stimulus_times=ds.stimulus_times + np.array([0.0, 0.5, -0.6, 0.3]),
        tr=ds.tr,
        mask_shape=ds.mask_shape,
    )
    cfg = PreprocConfig(smooth_fwhm=0.0, highpass_cutoff=30.0)
    out = preprocess_dataset(ds, cfg)
    shifts = shift_offsets_from_stimulus(ds.stimulus_times, ds.tr)
    manual = trial_time_shift(ds.series, shifts)
    manual = dct_highpass(manual, ds.tr, 30.0)
    manual = mean_center(manual)
    np.testing.assert_allclose(out.series, manual, atol=1e-12)
    expected_design = center_columns(dct_highpass(ds.design.T, ds.tr, 30.0).T)
    np.testing.assert_allclose(out.design, expected_design, atol=1e-12)


def test_preprocess_overflow_is_degenerate():
    # finite values near the float64 limit overflow in the shift's FFT
    rng = np.random.default_rng(9)
    dims = make_dims(n_times=9, n_epochs=4, n_voxels=5, n_covariates=2)
    ds = make_dataset(dims, rng)
    huge = Dataset(dims, ds.series * 1e307, ds.design, ds.coords,
                   ds.stimulus_times + 0.5, ds.tr)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DegenerateDataError, match="^preprocess: series contains non-finite"):
        preprocess_dataset(huge, PreprocConfig())


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocConfig(smooth_fwhm=-1.0)
    with pytest.raises(ValueError):
        PreprocConfig(voxel_size=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        PreprocConfig(highpass_cutoff=0.0)


def test_dataset_smoothing_matches_per_image_bits():
    # _smooth_columns smooths one image per pass, in place, and must give
    # each image gaussian_smooth_3d's bits
    rng = np.random.default_rng(13)
    mask = rng.random((6, 5, 4)) < 0.6
    coords = np.argwhere(mask)
    n_epochs, n_times = 3, 4
    dims = Dims(n_times=n_times, n_epochs=n_epochs, n_voxels=coords.shape[0],
                n_covariates=0)
    ds = Dataset(
        dims=dims,
        series=rng.standard_normal((dims.n_voxels, dims.n_images)),
        design=np.zeros((dims.n_images, 0)),
        coords=coords,
        stimulus_times=np.arange(n_epochs) * 10.0,
        tr=2.0,
        mask_shape=mask.shape,
    )
    cfg = PreprocConfig(smooth_fwhm=2.5, voxel_size=(1.0, 1.5, 2.0))
    expected = np.empty_like(ds.series)
    vol = np.zeros(mask.shape)
    for n in range(dims.n_images):
        vol[mask] = ds.series[:, n]
        expected[:, n] = gaussian_smooth_3d(
            vol, cfg.smooth_fwhm, cfg.voxel_size, mask
        )[mask]
    smoothed = preprocess_dataset(ds, replace(
        cfg, align_trials=False, highpass_cutoff=None, center=False))
    assert smoothed.series.tobytes() == expected.tobytes()
    # a (X, Y, Z, K) stack gets each volume's bits, masked or not, at any fwhm
    stack = rng.standard_normal(mask.shape + (5,))
    for m, fwhm in ((mask, 2.5), (None, 2.5), (mask, 0.0), (None, 0.0)):
        alone = [gaussian_smooth_3d(stack[..., k], fwhm, cfg.voxel_size, m)
                 for k in range(stack.shape[-1])]
        got = gaussian_smooth_3d(stack, fwhm, cfg.voxel_size, m)
        assert got.tobytes() == np.stack(alone, axis=-1).tobytes()


# 1791 to 1793 voxels end in a block of 255, 256 and 1 voxels, and 3621
# in one of 37 after fourteen full ones
@pytest.mark.parametrize("n_voxels", [1, 300, 1791, 1792, 1793, 3621])
def test_preprocess_blocks_keep_the_whole_array_bits(n_voxels):
    # the high-pass GEMMs of a block may round differently from those of
    # the whole series, never by more than 1e-12 of the largest entry
    # (1.2e-13 measured); the FFTs and means are per voxel
    ds = make_bundle(n_voxels, seed=n_voxels)
    # a 1e6 s cutoff removes no cosine function
    for fwhm, align, cutoff, center in itertools.product(
            (0.0, 2.0), (False, True), (None, 128.0, 1e6), (False, True)):
        cfg = PreprocConfig(smooth_fwhm=fwhm, align_trials=align,
                            highpass_cutoff=cutoff, center=center)
        got = preprocess_dataset(ds, cfg)
        want = preprocess_whole(ds, cfg)
        assert_near(got.series, want.series, str(cfg))
        np.testing.assert_array_equal(got.design, want.design, err_msg=str(cfg))


def test_preprocess_bits_do_not_depend_on_blas_threads():
    # the high-pass GEMMs of 21 blocks and a last block of 37 voxels, or
    # of one voxel, whose GEMMs numpy takes as GEMVs
    code = (f"import sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r}); "
            "import hashlib; from helpers import make_bundle; "
            "from trialmix.preprocess import PreprocConfig, preprocess_dataset\n"
            "for n in (21 * 256 + 37, 21 * 256 + 1):\n"
            "    ds = preprocess_dataset(make_bundle(n), PreprocConfig(smooth_fwhm=2.0))\n"
            "    print(hashlib.sha256(ds.series.tobytes() + ds.design.tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("fwhm", [0.0, 2.0])
def test_preprocess_holds_one_series_sized_buffer(fwhm):
    # the per-voxel steps run in voxel blocks into the one output array;
    # whole-array steps peaked at 3.03 (3.29 smoothed) series above the input
    cfg = PreprocConfig(smooth_fwhm=fwhm)
    # first-call allocations (numpy's lazy imports and caches) stay out of
    # the measurement
    preprocess_dataset(make_bundle(30), cfg)
    ds = make_bundle(20000)
    peak, _ = traced_peak(lambda: preprocess_dataset(ds, cfg))
    assert peak / ds.series.nbytes <= 1.7


ALL_STEPS = PreprocConfig(smooth_fwhm=2.0, align_trials=True,
                          highpass_cutoff=128.0, center=True)


def test_preprocess_in_place_holds_no_second_series():
    # with overwrite, every step writes the series it is given, and its
    # temporaries are a few volumes or blocks; the output array alone put
    # the copying pipeline at 1.6 series above the dataset
    preprocess_dataset(make_bundle(30), ALL_STEPS)
    ds = make_bundle(5000)
    series = ds.series
    peak, out = traced_peak(
        lambda: preprocess_dataset(ds, ALL_STEPS, overwrite=True))
    assert out.series is series
    assert peak < 0.25 * series.nbytes


def test_preprocess_dataset_leaves_its_input_and_matches_the_command(tmp_path):
    from trialmix import io
    from trialmix.cli import main
    bundle = make_bundle(700, seed=3)
    before = bundle.series.tobytes()
    out = preprocess_dataset(bundle, ALL_STEPS)
    assert bundle.series.tobytes() == before
    io.write_dataset(bundle, str(tmp_path / "sim"))
    config = tmp_path / "config.json"
    config.write_text(
        '{"preprocess": {"smooth_fwhm": 2.0, "align_trials": true, '
        '"highpass_cutoff": 128.0, "center": true}}')
    rc = main(["preprocess", str(tmp_path / "sim"), "--config", str(config),
               "--out", str(tmp_path / "pre")])
    assert rc == 0
    io.write_dataset(out, str(tmp_path / "api"))
    for name in ("header.json", "data.f64", "coords.csv", "design.csv"):
        assert ((tmp_path / "pre" / "dataset" / name).read_bytes()
                == (tmp_path / "api" / name).read_bytes()), name
