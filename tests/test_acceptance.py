"""Acceptance suite: one test per shipped guarantee.

Each test is a self-contained check of one externally stated property
of the package, at its stated tolerance, so `pytest tests/test_acceptance.py -v`
prints one pass/fail line per guarantee. Numbers frozen here were
verified against independent oracles (hand-worked arithmetic, dense
reconstructions, closed forms, or the synthetic generator).
"""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from trialmix.em import EmConfig, em_fit
from trialmix.inference import fdr_adaptive, t_sf, t_statistics
from trialmix.linalg import kron_logdet
from trialmix.modelsel import aic, compare_models, count_params, fit_model
from trialmix.preprocess import dct_highpass, trial_time_shift
from trialmix.simulate import SimConfig, default_scenario, generate, simulate_dataset
from trialmix.types import Dims, FitResult
from trialmix.variability import anova_two_way, pc_scores, pca_cov

from helpers import (
    dense_t_statistics,
    fitted_response,
    gaussian_smooth_3d,
    kron_quad_form,
    log_density_active,
    make_dataset,
    make_dims,
    make_params,
    mstep_stationarity_gaps,
    rand_spd,
)


def test_criterion_01_comparison_table_arithmetic():
    """count_params and aic reproduce the published table exactly."""
    dims = Dims(n_times=14, n_epochs=10, n_voxels=10062, n_covariates=6)
    assert count_params(1, dims) == 70434
    assert count_params(2, dims) == 70447
    assert count_params(3, dims) == 80566
    assert count_params(4, dims) == 80616
    assert count_params(5, dims) == 80671
    assert aic(-12348551.0, 70447) == 24837996.0


def test_criterion_02_em_loglik_monotone():
    """20 seeded fits: every log-likelihood trace is non-decreasing."""
    cfg = SimConfig(n_voxels=200, n_times=8, n_epochs=5, n_covariates=2)
    for seed in range(20):
        ds, _ = simulate_dataset(cfg, seed=seed)
        t0 = time.time()
        fit = em_fit(ds)
        elapsed = time.time() - t0
        assert elapsed < 30.0, f"seed {seed}: fit took {elapsed:.1f}s"
        trace = fit.loglik_trace
        slack = 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
        drops = np.diff(trace) + slack
        assert np.all(drops >= 0.0), (
            f"seed {seed}: loglik fell by {-np.diff(trace).min():.3e}"
        )


def test_criterion_03_mstep_stationarity():
    """Each conditional update zeroes its own Q gradient (50 instances)."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        dims = make_dims(
            n_times=int(rng.integers(2, 4)),
            n_epochs=int(rng.integers(2, 4)),
            n_voxels=10,
            n_covariates=int(rng.integers(1, 3)),
        )
        ds = make_dataset(dims, rng)
        params = make_params(dims, rng)
        resp = rng.uniform(0.05, 0.95, dims.n_voxels)
        gaps = mstep_stationarity_gaps(ds, resp, params, step=1e-6,
                                       cov_sweeps=100)
        for name, gap in gaps.items():
            worst = max(worst, gap)
            assert gap < 1e-5, f"{name}: max |dQ| = {gap:.2e}"
    assert worst < 1e-5


def test_criterion_04_kronecker_dense_equivalence():
    """Log-density, amplitude t, logdet, quad form vs dense T**TE** math."""
    rng = np.random.default_rng(44)
    for _ in range(100):
        dims = make_dims(
            n_times=int(rng.integers(2, 5)),
            n_epochs=int(rng.integers(2, 5)),
            n_voxels=3,
            n_covariates=int(rng.integers(1, 3)),
        )
        ds = make_dataset(dims, rng)
        params = make_params(dims, rng)
        t, e = dims.n_times, dims.n_epochs
        n = t * e
        dense = np.kron(params.between_cov, params.within_cov)
        sign, logdet_d = np.linalg.slogdet(dense)
        assert sign > 0
        got = kron_logdet(params.between_cov, params.within_cov)
        assert abs(got - logdet_d) <= 1e-8 * max(1.0, abs(logdet_d))

        mu = np.tile(params.hrf, e)
        for v in range(dims.n_voxels):
            resid = (
                ds.series[v]
                - params.amplitude[v] * mu
                - ds.design @ params.coeffs[v]
            )
            quad_d = float(resid @ np.linalg.solve(dense, resid))
            quad = kron_quad_form(
                params.between_cov,
                params.within_cov,
                resid.reshape(e, t).T,
            )
            assert abs(quad - quad_d) <= 1e-8 * max(1.0, abs(quad_d))
            ld = log_density_active(ds.series[v], ds.design, params, v)
            ld_dense = -0.5 * (n * np.log(2.0 * np.pi) + logdet_d + quad_d)
            assert abs(ld - ld_dense) <= 1e-8 * max(1.0, abs(ld_dense))

        t_stats, df = t_statistics(ds, params)
        t_dense, df_dense = dense_t_statistics(ds, params)
        assert df == df_dense
        np.testing.assert_allclose(t_stats, t_dense, rtol=0, atol=1e-8)


@pytest.fixture(scope="module")
def default_fit():
    ds, truth = simulate_dataset(SimConfig(), seed=0)
    t0 = time.time()
    fit = em_fit(ds)
    return ds, truth, fit, time.time() - t0


def test_criterion_05_parameter_recovery(default_fit):
    """Default 2000-voxel scenario: shape, labels, p, covariance recovered."""
    _, truth, fit, elapsed = default_fit
    assert elapsed < 300.0
    h_corr = np.corrcoef(fit.params.hrf, truth.params.hrf)[0, 1]
    assert abs(h_corr) > 0.99, f"|corr(h_hat, h)| = {abs(h_corr):.5f}"
    accuracy = np.mean((fit.resp >= 0.5) == truth.labels)
    assert accuracy >= 0.95, f"classification accuracy = {accuracy:.4f}"
    dp = abs(fit.params.active_prob - truth.params.active_prob)
    assert dp <= 0.05, f"|p_hat - p_true| = {dp:.4f}"
    kron_true = np.kron(truth.params.between_cov, truth.params.within_cov)
    kron_fit = np.kron(fit.params.between_cov, fit.params.within_cov)
    rel = np.linalg.norm(kron_fit - kron_true) / np.linalg.norm(kron_true)
    assert rel <= 0.15, f"Kronecker covariance relative error = {rel:.4f}"


def test_criterion_06_convergence_iterations(default_fit):
    """Default scenario converges at tol 1e-4 within 150 iterations."""
    _, _, fit, _ = default_fit
    assert fit.converged
    assert fit.iterations <= 150, f"took {fit.iterations} iterations"


def test_criterion_07_null_calibration():
    """Global null, 200 replications: uniform p-values, FDR held."""
    n_reps = 200
    cfg = SimConfig(n_voxels=1000, active_frac=1.0)
    base = default_scenario(cfg, seed=0)
    null_params = base.with_updates(amplitude=np.zeros(cfg.n_voxels))
    pooled = []
    reps_with_rejection = 0
    for rep in range(n_reps):
        ds, _ = generate(cfg, null_params, seed=10_000 + rep)
        t, df = t_statistics(ds, null_params)
        pvals = t_sf(t, df)
        pooled.append(pvals)
        # under the global null the FDP is 1 whenever anything is
        # rejected, so the empirical FDR is the any-rejection share
        if fdr_adaptive(pvals, 0.05).n_rejected > 0:
            reps_with_rejection += 1
    ks = stats.kstest(np.concatenate(pooled), "uniform").statistic
    assert ks < 0.05, f"KS distance from uniform = {ks:.5f}"
    fdr_hat = reps_with_rejection / n_reps
    assert fdr_hat <= 0.07, f"empirical FDR = {fdr_hat:.4f}"


def test_criterion_08_t_distribution_accuracy():
    """t_sf matches df=1,2 closed forms at 20 abscissae; invariants hold."""
    grid = np.concatenate(
        [
            np.array([-50.0, -20.0, -10.0, -5.0]),
            np.linspace(-2.0, 2.0, 12),
            np.array([5.0, 10.0, 20.0, 50.0]),
        ]
    )
    assert grid.size == 20
    sf1 = np.array([t_sf(x, 1) for x in grid])
    np.testing.assert_allclose(
        sf1, 0.5 - np.arctan(grid) / np.pi, rtol=0, atol=1e-12
    )
    sf2 = np.array([t_sf(x, 2) for x in grid])
    np.testing.assert_allclose(
        sf2, 0.5 * (1.0 - grid / np.sqrt(2.0 + grid**2)), rtol=0, atol=1e-12
    )
    for df in (1, 2, 5, 30):
        vals = np.array([t_sf(x, df) for x in grid])
        assert np.all(np.diff(vals) <= 0.0)
        flipped = np.array([t_sf(-x, df) for x in grid])
        np.testing.assert_allclose(vals + flipped, 1.0, rtol=0, atol=1e-14)
        assert t_sf(0.0, df) == 0.5


def test_criterion_09_model_selection():
    """Data from the full model: AIC picks it; nested loglik order holds."""
    cfg = SimConfig(
        n_voxels=200,
        n_times=10,
        n_epochs=8,
        n_covariates=1,
        within_rho=0.6,
        between_rho=0.5,
        active_frac=0.4,
    )
    best_full = 0
    order_ok = 0
    n_seeds = 20
    for seed in range(n_seeds):
        ds, _ = simulate_dataset(cfg, seed=seed)
        cmp = compare_models(ds, {m: fit_model(ds, m, EmConfig(max_iter=200))
                                  for m in range(1, 6)})
        ll = {r.model_id: r.loglik for r in cmp.rows}
        if cmp.best_aic == 5:
            best_full += 1
        if ll[5] >= ll[4] - 1e-3 and ll[5] >= ll[3] - 1e-3:
            order_ok += 1
    assert best_full >= 18, f"model 5 won AIC in only {best_full}/20 seeds"
    assert order_ok >= 19, f"nested ordering held in only {order_ok}/20 seeds"


def test_criterion_10_component_machinery():
    """Parseval at full rank; ANOVA vs normal equations; exact rebuild."""
    rng = np.random.default_rng(10)
    dims = make_dims(n_times=6, n_epochs=4, n_voxels=8, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    fit = FitResult(
        params=params,
        resp=np.full(dims.n_voxels, 0.9),
        loglik_trace=np.array([0.0]),
        iterations=1,
        converged=True,
    )
    idx, scores, _ = pc_scores(
        ds, fit, np.ones(dims.n_voxels, dtype=bool),
        n_components=dims.n_times,
    )
    from trialmix.em import residual_matrices

    resid = residual_matrices(ds, params)[idx]
    np.testing.assert_allclose(
        np.sum(scores**2, axis=2), np.sum(resid**2, axis=2), rtol=1e-9
    )

    epochs = np.tile(np.arange(1, 5), 6)
    clusters = np.repeat(np.arange(1, 4), 8)
    vals = rng.standard_normal(24)
    tab = anova_two_way(vals, epochs, clusters)

    def codes(labels, n_levels):
        cols = np.zeros((labels.size, n_levels - 1))
        for j in range(n_levels - 1):
            cols[labels == j + 1, j] = 1.0
        cols[labels == n_levels] = -1.0
        return cols

    design = np.column_stack([np.ones(24), codes(epochs, 4), codes(clusters, 3)])
    gram_inv = np.linalg.inv(design.T @ design)
    coef = gram_inv @ design.T @ vals
    resid_v = vals - design @ coef
    s2 = resid_v @ resid_v / (24 - 6)
    assert abs(tab.grand_mean - coef[0]) < 1e-10
    np.testing.assert_allclose(tab.epoch_effects[:3], coef[1:4], atol=1e-10)
    np.testing.assert_allclose(tab.cluster_effects[:2], coef[4:6], atol=1e-10)
    assert abs(tab.resid_var - s2) < 1e-10
    np.testing.assert_allclose(
        tab.epoch_se[:3], np.sqrt(s2 * np.diag(gram_inv)[1:4]), atol=1e-10
    )

    pca = pca_cov(rand_spd(rng, 6))
    h = rng.standard_normal(6)
    r = rng.standard_normal(6)
    curve = fitted_response(1.7, h, pca.loadings, pca.loadings.T @ r)
    np.testing.assert_allclose(curve, 1.7 * h + r, rtol=0, atol=1e-9)


def test_criterion_11_preprocessing_invariants():
    """Filter idempotence, shift invertibility, smoothing mass (50 each)."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(32, 201))
        series = rng.standard_normal(n)
        once = dct_highpass(series, tr=2.0, cutoff=128.0)
        twice = dct_highpass(once, tr=2.0, cutoff=128.0)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-9)

    for _ in range(50):
        n_times = int(rng.choice([5, 7, 9, 11, 13, 15]))
        n_epochs = int(rng.integers(2, 5))
        series = rng.standard_normal(n_epochs * n_times)
        shifts = rng.uniform(-0.5, 0.5, n_epochs)
        shifted = trial_time_shift(series.reshape(1, -1), shifts)
        back = trial_time_shift(shifted, -shifts)
        np.testing.assert_allclose(back[0], series, rtol=0, atol=1e-8)

    for _ in range(50):
        volume = np.zeros((24, 24, 24))
        volume[8:16, 8:16, 8:16] = rng.standard_normal((8, 8, 8))
        total = volume.sum()
        fwhm = float(rng.uniform(0.8, 2.0))
        smoothed = gaussian_smooth_3d(volume, fwhm)
        assert abs(smoothed.sum() - total) <= 1e-9 * abs(total)


def test_criterion_12_bitwise_determinism(tmp_path):
    """Two identical CLI runs produce byte-identical artifacts."""
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as f:
        json.dump(
            {
                "seed": 17,
                "simulate": {
                    "n_voxels": 300,
                    "n_times": 10,
                    "n_epochs": 8,
                    "n_covariates": 1,
                },
                "em": {"max_iter": 150},
                "inference": {"min_cluster": 2},
            },
            f,
        )

    def run(tag):
        root = str(tmp_path / tag)
        sim = os.path.join(root, "sim")
        fit = os.path.join(root, "fit")
        infer = os.path.join(root, "infer")
        bundle = os.path.join(sim, "dataset")
        for argv in (
            ["simulate", "--config", cfg_path, "--out", sim],
            ["fit", bundle, "--config", cfg_path, "--out", fit],
            ["infer", bundle, fit, "--config", cfg_path, "--out", infer],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "trialmix"] + argv,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        return {
            "data.f64": os.path.join(bundle, "data.f64"),
            "header.json": os.path.join(bundle, "header.json"),
            "coords.csv": os.path.join(bundle, "coords.csv"),
            "truth.json": os.path.join(bundle, "truth.json"),
            "truth.f64": os.path.join(bundle, "truth.f64"),
            "params.json": os.path.join(fit, "params.json"),
            "resp.csv": os.path.join(fit, "resp.csv"),
            "loglik.csv": os.path.join(fit, "loglik.csv"),
            "tstats.csv": os.path.join(infer, "tstats.csv"),
            "fdr.json": os.path.join(infer, "fdr.json"),
        }

    first = run("run1")
    second = run("run2")
    for name in first:
        with open(first[name], "rb") as f:
            a = f.read()
        with open(second[name], "rb") as f:
            b = f.read()
        assert a == b, f"{name} differs between identical runs"
