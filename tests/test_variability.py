"""Component scores, the additive two-way summary, and curve rebuilding."""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from trialmix.em import em_fit, residual_matrices
from trialmix.inference import InferenceConfig, activation_map
from trialmix.simulate import SimConfig, simulate_dataset
from trialmix.types import ActivationMap, DegenerateDataError, FitResult
from trialmix.variability import (
    PcsConfig,
    analyze_variability,
    anova_two_way,
    pc_effect_curves,
    pc_scores,
    pca_cov,
)

from helpers import (anova_explicit_design, assert_near, fitted_response,
                     make_dataset, make_dims, make_params, rand_spd,
                     traced_peak)


def test_pca_cov_diagonal_oracle():
    res = pca_cov(np.diag([9.0, 4.0, 1.0]))
    np.testing.assert_allclose(res.eigenvalues, [9.0, 4.0, 1.0])
    np.testing.assert_allclose(np.abs(res.loadings), np.eye(3), atol=1e-12)
    assert np.all(np.diag(res.loadings) > 0.0)
    np.testing.assert_allclose(
        res.variance_pct, [900.0 / 14, 400.0 / 14, 100.0 / 14]
    )


def test_pca_cov_two_by_two_hand_values():
    res = pca_cov(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(res.loadings[:, 0], [s, s], atol=1e-12)
    np.testing.assert_allclose(res.loadings[:, 1], [s, -s], atol=1e-12)


def test_pca_cov_sign_convention_and_validation():
    rng = np.random.default_rng(0)
    cov = rand_spd(rng, 5)
    res = pca_cov(cov)
    for k in range(5):
        col = res.loadings[:, k]
        assert col[int(np.argmax(np.abs(col)))] > 0.0
    with pytest.raises(ValueError):
        pca_cov(np.diag([1.0, -1.0]))


def _scored_fixture(seed=1, n_voxels=10):
    rng = np.random.default_rng(seed)
    dims = make_dims(n_times=5, n_epochs=4, n_voxels=n_voxels, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    resp = rng.uniform(0.0, 1.0, dims.n_voxels)
    fit = FitResult(
        params=params,
        resp=resp,
        loglik_trace=np.array([0.0]),
        iterations=1,
        converged=True,
    )
    return ds, fit, rng


def test_pc_scores_projects_residuals():
    ds, fit, rng = _scored_fixture()
    reject = rng.random(ds.dims.n_voxels) < 0.7
    expected_idx = np.nonzero(reject & (fit.resp >= 0.5))[0]
    if expected_idx.size == 0:
        reject[:] = True
        expected_idx = np.nonzero(fit.resp >= 0.5)[0]
    idx, scores, pca = pc_scores(ds, fit, reject, n_components=2)
    np.testing.assert_array_equal(idx, expected_idx)
    resid = residual_matrices(ds, fit.params)
    for a, v in enumerate(idx):
        for j in range(ds.dims.n_epochs):
            for k in range(2):
                expected = resid[v, j] @ pca.loadings[:, k]
                assert abs(scores[a, j, k] - expected) < 1e-12


def test_pc_scores_full_rank_preserves_energy():
    ds, fit, _ = _scored_fixture(seed=2)
    reject = np.ones(ds.dims.n_voxels, dtype=bool)
    idx, scores, _ = pc_scores(ds, fit, reject, n_components=ds.dims.n_times)
    resid = residual_matrices(ds, fit.params)[idx]
    # orthonormal loadings keep each epoch's squared norm
    np.testing.assert_allclose(
        np.sum(scores**2, axis=2),
        np.sum(resid**2, axis=2),
        rtol=1e-12,
    )


def test_pc_scores_validates():
    ds, fit, _ = _scored_fixture(seed=3)
    with pytest.raises(DegenerateDataError):
        pc_scores(ds, fit, np.zeros(ds.dims.n_voxels, dtype=bool), n_components=2)
    with pytest.raises(ValueError):
        pc_scores(ds, fit, np.ones(ds.dims.n_voxels, dtype=bool), n_components=99)


def test_anova_balanced_matches_cell_means():
    # noiseless additive data on a balanced layout: effects equal the
    # marginal means minus the grand mean, exactly
    epochs = np.tile([1, 2, 3], 4)
    clusters = np.repeat([1, 2], 6)
    epoch_eff = {1: 0.5, 2: -0.2, 3: -0.3}
    cluster_eff = {1: 1.0, 2: -1.0}
    scores = np.array(
        [4.0 + epoch_eff[e] + cluster_eff[c] for e, c in zip(epochs, clusters)]
    )
    tab = anova_two_way(scores, epochs, clusters)
    assert abs(tab.grand_mean - 4.0) < 1e-12
    np.testing.assert_allclose(tab.epoch_effects, [0.5, -0.2, -0.3], atol=1e-12)
    np.testing.assert_allclose(tab.cluster_effects, [1.0, -1.0], atol=1e-12)
    assert tab.resid_var < 1e-20
    np.testing.assert_allclose(
        tab.fitted,
        4.0 + np.add.outer([1.0, -1.0], [0.5, -0.2, -0.3]),
        atol=1e-12,
    )


def test_anova_matches_normal_equations_oracle():
    rng = np.random.default_rng(4)
    epochs = np.tile(np.arange(1, 5), 6)
    clusters = np.repeat(np.arange(1, 4), 8)
    scores = rng.standard_normal(24)
    tab = anova_two_way(scores, epochs, clusters)

    # independent sum-to-zero coding
    def codes(labels, n_levels):
        cols = np.zeros((labels.size, n_levels - 1))
        for j in range(n_levels - 1):
            cols[labels == j + 1, j] = 1.0
        cols[labels == n_levels] = -1.0
        return cols

    design = np.column_stack(
        [np.ones(24), codes(epochs, 4), codes(clusters, 3)]
    )
    gram_inv = np.linalg.inv(design.T @ design)
    coef = gram_inv @ design.T @ scores
    resid = scores - design @ coef
    s2 = resid @ resid / (24 - 6)
    assert abs(tab.grand_mean - coef[0]) < 1e-10
    np.testing.assert_allclose(tab.epoch_effects[:3], coef[1:4], atol=1e-10)
    np.testing.assert_allclose(tab.cluster_effects[:2], coef[4:6], atol=1e-10)
    assert abs(tab.epoch_effects.sum()) < 1e-10
    assert abs(tab.cluster_effects.sum()) < 1e-10
    assert abs(tab.resid_var - s2) < 1e-10
    np.testing.assert_allclose(
        tab.epoch_se[:3], np.sqrt(s2 * np.diag(gram_inv)[1:4]), atol=1e-10
    )
    # the dropped level's effect is minus the sum, so its variance is
    # the summed block of the coefficient covariance
    block = s2 * gram_inv[1:4, 1:4]
    assert abs(tab.epoch_se[3] - np.sqrt(block.sum())) < 1e-10
    assert tab.df_resid == 18


def test_anova_single_level_factor_is_dropped():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    tab = anova_two_way(scores, [1, 2, 1, 2], [1, 1, 1, 1])
    np.testing.assert_array_equal(tab.cluster_effects, [0.0])
    assert np.isnan(tab.cluster_se).all()
    assert tab.epoch_effects.size == 2
    with pytest.raises(DegenerateDataError):
        anova_two_way(scores, [1, 1, 1, 1], [1, 1, 1, 1])
    with pytest.raises(DegenerateDataError):
        anova_two_way(np.zeros(0), [], [])
    with pytest.raises(ValueError):
        anova_two_way(scores, [1, 2], [1, 1, 1, 1])


def test_anova_refuses_cells_that_leave_levels_unconnected():
    # epoch 1 is seen only in cluster 1 and epoch 2 only in cluster 2, so
    # the epoch and cluster effects cannot be told apart
    labels = [1, 1, 1, 2, 2, 2]
    with pytest.raises(DegenerateDataError, match="singular ANOVA design"):
        anova_two_way(np.arange(6.0), labels, labels)


def test_anova_needs_residual_df():
    with pytest.raises(DegenerateDataError, match="degrees of freedom"):
        anova_two_way(np.ones(4), [1, 2, 3, 4], [1, 1, 1, 1])


def _anova_bytes(tab) -> bytes:
    return b"".join(np.asarray(getattr(tab, f)).tobytes() for f in (
        "grand_mean", "epoch_levels", "epoch_effects", "epoch_se",
        "cluster_levels", "cluster_effects", "cluster_se", "resid_var",
        "df_resid"))


def _unbalanced_layout(rng, n_obs, n_epochs, n_clusters):
    """Random labels whose cells hold unequal counts, with cell (1, 2)
    left empty when both factors vary, and scores with real effects."""
    epochs = rng.integers(1, n_epochs + 1, n_obs)
    clusters = rng.integers(1, n_clusters + 1, n_obs)
    if n_epochs > 1 and n_clusters > 1:
        epochs[(epochs == 1) & (clusters == 2)] = 2
    scores = (0.3 * epochs - 0.5 * clusters + rng.standard_normal(n_obs)
              + np.where(rng.random(n_obs) < 0.1, 5.0, 0.0))
    return scores, epochs, clusters


@pytest.mark.parametrize("n_obs,n_epochs,n_clusters", [
    (60, 4, 3),           # unbalanced, with an empty cell
    (10000, 10, 7),       # many observations per cell
    (500, 1, 6),          # a single epoch level
    (500, 5, 1),          # a single cluster level
])
def test_anova_matches_the_explicit_design(n_obs, n_epochs, n_clusters):
    rng = np.random.default_rng(n_obs + n_epochs + n_clusters)
    scores, epochs, clusters = _unbalanced_layout(rng, n_obs, n_epochs,
                                                  n_clusters)
    if n_epochs > 1 and n_clusters > 1:
        assert not np.any((epochs == 1) & (clusters == 2))
        assert np.unique(np.stack([epochs, clusters]), axis=1).shape[1] == (
            n_epochs * n_clusters - 1)
    got = anova_two_way(scores, epochs, clusters)
    want = anova_explicit_design(scores, epochs, clusters)
    assert got.df_resid == want.df_resid
    for name in ("grand_mean", "resid_var", "epoch_effects", "cluster_effects",
                 "fitted"):
        assert_near(getattr(got, name), getattr(want, name), name)
    for name in ("epoch_se", "cluster_se"):
        got_se, want_se = getattr(got, name), getattr(want, name)
        np.testing.assert_array_equal(np.isnan(got_se), np.isnan(want_se))
        if not np.isnan(want_se).all():
            assert_near(got_se, want_se, name)
    np.testing.assert_array_equal(got.epoch_levels, want.epoch_levels)
    np.testing.assert_array_equal(got.cluster_levels, want.cluster_levels)


def test_anova_bits_do_not_depend_on_blas_threads():
    # 100 clusters x 10 epochs: 1,000 cells x 109^2 parameters is past the
    # 5.2e5 multiply-adds where OpenBLAS splits a product over threads
    code = (
        f"import sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
        "import hashlib, numpy as np\n"
        "from test_variability import _anova_bytes, _unbalanced_layout\n"
        "from trialmix.variability import anova_two_way\n"
        "args = _unbalanced_layout(np.random.default_rng(3), 20000, 10, 100)\n"
        "print(hashlib.sha256(_anova_bytes(anova_two_way(*args))).hexdigest())\n"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_anova_memory_is_a_few_numbers_per_observation():
    # 10 epochs x 30 clusters: the explicit design held 39 doubles per
    # observation, twice over while its blocks were concatenated; the
    # cell-sum fit holds a few per observation at any size
    rng = np.random.default_rng(8)
    for n_obs in (20000, 200000):
        args = _unbalanced_layout(rng, n_obs, 10, 30)
        anova_two_way(*args)  # first-call allocations stay out
        peak = traced_peak(lambda: anova_two_way(*args))[0]
        assert peak < 8 * args[0].nbytes, (n_obs, peak / args[0].nbytes)


def test_fitted_scores_stacks_cells():
    # PcAnalysis.fitted stacks each component table's cells to (C, E, K)
    ds, fit, _ = _scored_fixture(seed=4, n_voxels=30)
    n = ds.dims.n_voxels
    amap = ActivationMap(
        t_stat=np.zeros(n),
        pvals=np.zeros(n),
        reject=np.ones(n, dtype=bool),
        cluster=1 + np.arange(n) % 3,
        df=10,
    )
    pa = analyze_variability(ds, fit, amap, PcsConfig(n_components=2))
    assert pa.fitted.shape == (3, ds.dims.n_epochs, 2)
    for k, tab in enumerate(pa.tables):
        np.testing.assert_array_equal(pa.fitted[:, :, k], tab.fitted)
    # and each curve is the single-cell oracle's response of its cell
    loadings = pa.within_pca.loadings[:, :2]
    for c in range(3):
        for j in range(ds.dims.n_epochs):
            np.testing.assert_array_equal(pa.curves[c, j], fitted_response(
                pa.cluster_amplitude[c], fit.params.hrf, loadings,
                pa.fitted[c, j]))


def test_fitted_response_full_rank_reconstructs():
    rng = np.random.default_rng(5)
    n_t = 6
    pca = pca_cov(rand_spd(rng, n_t))
    h = rng.standard_normal(n_t)
    r = rng.standard_normal(n_t)
    scores = pca.loadings.T @ r
    curve = fitted_response(2.5, h, pca.loadings, scores)
    np.testing.assert_allclose(curve, 2.5 * h + r, atol=1e-9)


def test_pc_effect_curves_bracket_the_scaled_shape():
    rng = np.random.default_rng(6)
    pca = pca_cov(rand_spd(rng, 5))
    h = rng.standard_normal(5)
    out = pc_effect_curves(h, pca, n_components=3, scale=10.0)
    assert out.shape == (3, 2, 5)
    for k in range(3):
        np.testing.assert_allclose(
            (out[k, 0] + out[k, 1]) / 2.0, 10.0 * h, atol=1e-12
        )
        np.testing.assert_allclose(
            out[k, 0] - out[k, 1],
            2.0 * np.sqrt(pca.eigenvalues[k]) * pca.loadings[:, k],
            atol=1e-12,
        )


def test_analyze_variability_end_to_end():
    ds, truth = simulate_dataset(
        SimConfig(n_voxels=300, n_times=8, n_epochs=5, n_covariates=1), seed=21
    )
    fit = em_fit(ds)
    amap, _ = activation_map(ds, fit, InferenceConfig(min_cluster=2))
    if not np.any(amap.cluster > 0):
        pytest.skip("no spatial clusters at this size")
    pa = analyze_variability(ds, fit, amap, PcsConfig(n_components=2))
    d = ds.dims
    n_clusters = pa.cluster_levels.size
    assert pa.scores.shape[2] == 2
    assert pa.fitted.shape == (n_clusters, d.n_epochs, 2)
    assert pa.curves.shape == (n_clusters, d.n_epochs, d.n_times)
    assert pa.effect_curves.shape == (2, 2, d.n_times)
    assert pa.cluster_amplitude.shape == (n_clusters,)
    # curves are the amplitude-scaled shape plus the loading mix
    gamma = pa.within_pca.loadings[:, :2]
    for c in range(n_clusters):
        for j in range(d.n_epochs):
            expected = (
                pa.cluster_amplitude[c] * fit.params.hrf
                + gamma @ pa.fitted[c, j]
            )
            np.testing.assert_allclose(pa.curves[c, j], expected, atol=1e-10)


def test_analyze_variability_requires_clustered_voxels():
    ds, fit, _ = _scored_fixture(seed=9)
    amap = ActivationMap(
        t_stat=np.zeros(ds.dims.n_voxels),
        pvals=np.ones(ds.dims.n_voxels),
        reject=np.ones(ds.dims.n_voxels, dtype=bool),
        cluster=np.zeros(ds.dims.n_voxels, dtype=np.int64),
        df=10,
    )
    with pytest.raises(DegenerateDataError, match="clustered"):
        analyze_variability(ds, fit, amap)
