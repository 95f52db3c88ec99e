"""t statistics, tail probabilities, FDR, and clustering.

The t tail is checked against the arctan and algebraic closed forms it
must reproduce at one and two degrees of freedom; the FDR procedure is
checked against hand-worked step-up examples.
"""
from dataclasses import replace

import numpy as np
import pytest

from trialmix.inference import (
    InferenceConfig,
    activation_map,
    cluster_active,
    fdr_adaptive,
    t_sf,
    t_statistics,
)
from trialmix.kernels import voxel_blocks
from trialmix.simulate import SimConfig, simulate_dataset
from trialmix.em import em_fit

from helpers import (
    dense_t_statistics,
    make_dataset,
    make_dims,
    make_params,
)


def test_t_statistics_match_least_squares_oracle():
    rng = np.random.default_rng(2)
    dims = make_dims(n_times=6, n_epochs=4, n_voxels=6, n_covariates=3)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    t, df = t_statistics(ds, params)
    t_ref, df_ref = dense_t_statistics(ds, params)
    assert df == df_ref == dims.n_images - dims.n_covariates - 1
    np.testing.assert_allclose(t, t_ref, rtol=1e-10, atol=0)


def test_t_statistics_exact_fit_gives_infinity():
    # identity factors and a dyadic shape: every product is exact, so
    # multiples of the shape regressor leave a residual of exactly 0
    rng = np.random.default_rng(3)
    dims = make_dims(n_times=4, n_epochs=2, n_voxels=3, n_covariates=0)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng).with_updates(
        hrf=np.full(4, 0.5), within_cov=np.eye(4), between_cov=np.eye(2))
    mu = np.tile(params.hrf, dims.n_epochs)
    ds.series[:] = np.stack([3.0 * mu, -2.0 * mu, 0.0 * mu])
    with pytest.warns(RuntimeWarning, match="^3 voxel.*exactly"):
        t, _ = t_statistics(ds, params)
    assert t.tolist() == [np.inf, -np.inf, 0.0]


def test_t_statistics_reject_nonpositive_df():
    rng = np.random.default_rng(5)
    dims = make_dims(n_times=2, n_epochs=2, n_voxels=1, n_covariates=3)
    with pytest.raises(ValueError, match="degrees of freedom"):
        t_statistics(make_dataset(dims, rng), make_params(dims, rng))


T_GRID = np.array([
    -50.0, -20.0, -10.0, -5.0, -3.0, -2.0, -1.5, -1.0, -0.5, -0.25,
    0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0,
])


def test_t_sf_closed_form_df1():
    # Cauchy tail: 1/2 - arctan(t)/pi
    expected = 0.5 - np.arctan(T_GRID) / np.pi
    got = t_sf(T_GRID, 1)
    np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0.0)


def test_t_sf_closed_form_df2():
    # algebraic tail: (1 - t / sqrt(2 + t^2)) / 2
    expected = 0.5 * (1.0 - T_GRID / np.sqrt(2.0 + T_GRID**2))
    got = t_sf(T_GRID, 2)
    np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0.0)


def test_t_sf_monotone_symmetric_and_bounded():
    interior = np.abs(T_GRID) <= 10.0
    for df in (1, 2, 5, 30):
        vals = np.asarray(t_sf(T_GRID, df))
        # non-increasing everywhere, strictly so away from saturation
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(np.diff(vals[interior]) < 0.0)
        np.testing.assert_allclose(
            np.asarray(t_sf(-T_GRID, df)), 1.0 - vals, atol=1e-14
        )
    assert t_sf(0.0, 7) == 0.5
    assert t_sf(np.inf, 3) == 0.0
    assert t_sf(-np.inf, 3) == 1.0
    assert isinstance(t_sf(1.3, 4), float)
    with pytest.raises(ValueError):
        t_sf(1.0, 0)


def test_fdr_hand_worked_four_values():
    # slopes increase throughout, so the null count stays at m = 4;
    # cutoffs .0125/.025/.0375/.05: k=3 fails but k=4 passes, and the
    # step-up quality rejects everything at or below p(4) = .041
    res = fdr_adaptive(np.array([0.001, 0.008, 0.039, 0.041]), q=0.05)
    assert res.m0_hat == 4
    assert res.threshold == 0.041
    assert res.n_rejected == 4
    assert np.all(res.reject)


def test_fdr_hand_worked_ten_values():
    # first slope decrease at k = 9 where S = (1-.5)/2 = .25, so
    # m0 = ceil(1/.25 + 1) = 5 and the cutoffs are .01 k; the largest
    # passing order statistic is p(6) = .006
    pvals = np.array([0.001, 0.002, 0.003, 0.004, 0.005, 0.006,
                      0.08, 0.1, 0.5, 0.95])
    res = fdr_adaptive(pvals, q=0.05)
    assert res.m0_hat == 5
    assert res.threshold == 0.006
    assert res.n_rejected == 6
    np.testing.assert_array_equal(res.reject, pvals <= 0.006)


def test_fdr_no_rejections_and_small_inputs():
    res = fdr_adaptive(np.array([0.2, 0.5, 0.9]), q=0.05)
    assert res.n_rejected == 0 and res.threshold == 0.0
    assert not res.reject.any()
    res = fdr_adaptive(np.zeros(0), q=0.05)
    assert res.n_rejected == 0 and res.m0_hat == 0
    res = fdr_adaptive(np.array([0.01]), q=0.05)
    assert res.n_rejected == 1


def test_fdr_rejects_ties_together():
    pvals = np.array([0.001, 0.01, 0.01, 0.9, 0.95, 0.99])
    res = fdr_adaptive(pvals, q=0.2)
    if res.threshold >= 0.01:
        assert res.reject[1] and res.reject[2]


def test_fdr_validates_inputs():
    with pytest.raises(ValueError):
        fdr_adaptive(np.array([0.1, 1.5]), q=0.05)
    with pytest.raises(ValueError):
        fdr_adaptive(np.array([0.1, np.nan]), q=0.05)
    with pytest.raises(ValueError):
        fdr_adaptive(np.array([[0.1]]), q=0.05)
    with pytest.raises(ValueError):
        fdr_adaptive(np.array([0.1]), q=0.0)


def _blob(origin, shape):
    pts = np.argwhere(np.ones(shape, dtype=bool))
    return pts + np.asarray(origin)


def test_clustering_sizes_and_relabeling():
    # a 7-voxel blob, a 4-voxel blob, and a lone voxel, far apart
    big = _blob((0, 0, 0), (7, 1, 1))
    small = _blob((20, 0, 0), (2, 2, 1))
    lone = np.array([[40, 40, 40]])
    coords = np.concatenate([small, big, lone])
    labels = cluster_active(coords, min_size=5)
    assert np.all(labels[4:11] == 1)
    assert np.all(labels[:4] == 0)
    assert labels[-1] == 0
    # lowering the floor keeps both blobs, ordered by size
    labels = cluster_active(coords, min_size=2)
    assert np.all(labels[4:11] == 1)
    assert np.all(labels[:4] == 2)


def test_clustering_uses_diagonal_adjacency():
    coords = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    labels = cluster_active(coords, min_size=3)
    assert np.all(labels == 1)


def test_clustering_edge_cases():
    assert cluster_active(np.zeros((0, 3), dtype=int), min_size=5).size == 0
    with pytest.raises(ValueError):
        cluster_active(np.zeros((3, 2), dtype=int), min_size=5)


def test_activation_map_finds_planted_signal():
    ds, truth = simulate_dataset(
        SimConfig(n_voxels=400, n_times=8, n_epochs=5, n_covariates=1), seed=11
    )
    fit = em_fit(ds)
    amap, fdr = activation_map(ds, fit, InferenceConfig(q=0.05, min_cluster=1))
    active = truth.labels.astype(bool)
    # most discoveries are real and most of the signal is found
    if fdr.n_rejected:
        precision = np.mean(active[amap.reject])
        assert precision > 0.85
    assert np.mean(amap.reject[active]) > 0.5
    assert amap.pvals.shape == (400,)
    assert np.all(amap.cluster[~amap.reject] == 0)


def test_activation_map_screen_none_adjusts_everything():
    ds, _ = simulate_dataset(
        SimConfig(n_voxels=100, n_times=6, n_epochs=4, n_covariates=0), seed=5
    )
    fit = em_fit(ds)
    amap, fdr = activation_map(ds, fit, InferenceConfig(q=0.05, screen_alpha=None))
    whole = fdr_adaptive(amap.pvals, 0.05)
    assert whole.n_rejected > 0
    np.testing.assert_array_equal(fdr.reject, whole.reject)
    np.testing.assert_array_equal(amap.reject, whole.reject)
    assert (fdr.threshold, fdr.m0_hat, fdr.n_rejected) == (
        whole.threshold, whole.m0_hat, whole.n_rejected)
    # a screen that nothing passes leaves nothing to adjust
    strict = float(amap.pvals.min())
    amap, fdr = activation_map(ds, fit, InferenceConfig(screen_alpha=strict))
    assert not np.any(amap.pvals < strict)
    assert (fdr.threshold, fdr.m0_hat, fdr.n_rejected) == (0.0, 0, 0)
    assert not np.any(fdr.reject) and not np.any(amap.reject)


def test_blocked_t_statistics_match_the_unblocked_bits():
    # three blocks of kernels.BLOCK voxels, the last one partial; each
    # block's voxels on their own make one block, computed unblocked
    rng = np.random.default_rng(12)
    dims = make_dims(n_times=5, n_epochs=4, n_voxels=600, n_covariates=2)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    ds.series[7] = 0.0
    with pytest.warns(RuntimeWarning, match="^1 voxel"):
        t, _ = t_statistics(ds, params)
    assert t[7] == 0.0
    parts = [replace(ds, dims=replace(dims, n_voxels=ds.series[sl].shape[0]),
                     series=ds.series[sl], coords=ds.coords[sl])
             for sl in voxel_blocks(dims.n_voxels)]
    with pytest.warns(RuntimeWarning, match="^1 voxel"):
        t_parts = [t_statistics(part, params)[0] for part in parts]
    assert np.concatenate(t_parts).tobytes() == t.tobytes()
