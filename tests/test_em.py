"""E-step identities, M-step stationarity, and the fitting loop."""
import functools
import inspect
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

import trialmix.em as em
from trialmix.em import (
    EmConfig,
    ModelStructure,
    canonical_hrf,
    em_fit,
    hrf_shape_raw,
    residual_matrices,
    update_covariances,
    update_h,
)
from trialmix.cli import main
from trialmix.inference import _gls_design
from trialmix.io import write_dataset
from trialmix.linalg import inv_spd
from trialmix.modelsel import MODEL_SPECS, compare_models, fit_model
from trialmix.preprocess import center_columns
from trialmix.simulate import SimConfig, simulate_dataset
from trialmix.types import Dataset, DegenerateDataError

from helpers import (
    assert_near,
    central_diff,
    estep,
    inactive_residual,
    log_density_active,
    log_density_inactive,
    make_dataset,
    make_dims,
    make_params,
    mean_step_oracle,
    mstep_stationarity_gaps,
    observed_loglik,
    q_function,
    rand_spd,
    record_forks,
    scipy_hrf_shape_raw,
    seed_params,
    shape_numerator,
    sweep_covariances,
    traced_peak,
    update_b,
    update_beta,
    update_h_raw,
)


def test_canonical_hrf_shape():
    times = np.linspace(0.5, 24.0, 48)
    hrf = canonical_hrf(times)
    assert abs(np.linalg.norm(hrf) - 1.0) < 1e-12
    # difference of gammas peaks near 5 s and undershoots after 10 s
    assert abs(times[int(np.argmax(hrf))] - 5.0) < 0.5
    late = hrf[times > 10.0]
    assert late.min() < 0.0
    assert hrf_shape_raw(np.array([-1.0, 0.0]))[0] == 0.0
    assert hrf_shape_raw(np.array([-1.0, 0.0]))[1] == 0.0


def test_log_gamma_literals_are_scipys_bits():
    # math.lgamma differs from both in the last bit
    assert em.LOG_GAMMA_6.hex() == float(gammaln(6.0)).hex()
    assert em.LOG_GAMMA_16.hex() == float(gammaln(16.0)).hex()


def test_hrf_shape_raw_matches_scipy_oracle():
    times = np.concatenate([np.linspace(-5.0, 60.0, 1301),
                            [0.0, -0.0, 5e-324, 1e-300, 1e-3, 700.0, 1e4]])
    got = hrf_shape_raw(times)
    assert got.tobytes() == scipy_hrf_shape_raw(times).tobytes()


def test_canonical_hrf_validates():
    with pytest.raises(ValueError):
        canonical_hrf(np.array([1.0]))
    with pytest.raises(ValueError):
        canonical_hrf(np.array([-1.0, 2.0]))


def test_unit_shape_sign_and_norm():
    raw = np.array([1.0, -3.0, 0.5])
    shape, flip = em._unit_shape(raw)
    assert flip
    assert shape[1] > 0.0
    assert abs(np.linalg.norm(shape) - 1.0) < 1e-12
    np.testing.assert_array_equal(shape, -(raw / np.linalg.norm(raw)))
    assert em._unit_shape(-raw)[1] is False
    with pytest.raises(ValueError):
        em._unit_shape(np.zeros(3))


def test_update_h_flips_the_amplitudes_with_the_shape():
    # a shape estimate with a negative dominant entry: the amplitudes
    # change sign so amplitude * shape stays the raw estimate's
    rng = np.random.default_rng(7)
    dims = make_dims(n_times=4, n_epochs=3, n_voxels=12, n_covariates=1)
    params = make_params(dims, rng)
    # data of positive amplitudes, fitted with negative ones
    amplitude = np.abs(params.amplitude) + 1.0
    ds = make_dataset(dims, rng)
    ds = replace(ds, series=0.1 * ds.series
                 + np.outer(amplitude, np.tile(params.hrf, dims.n_epochs)))
    params = params.with_updates(amplitude=-amplitude,
                                 coeffs=np.zeros_like(params.coeffs))
    resp = rng.uniform(0.2, 0.9, dims.n_voxels)
    resid_inactive = inactive_residual(ds, params.coeffs)
    w_between = inv_spd(params.between_cov)
    raw = update_h_raw(resp, params.amplitude, w_between, resid_inactive)
    assert raw[int(np.argmax(np.abs(raw)))] < 0.0
    hrf, amp = update_h(resp, params, shape_numerator(
        resp, params.amplitude, w_between, resid_inactive))
    assert hrf[int(np.argmax(np.abs(hrf)))] > 0.0
    assert abs(np.linalg.norm(hrf) - 1.0) < 1e-12
    np.testing.assert_array_equal(amp, -(params.amplitude * np.linalg.norm(raw)))


def test_estep_matches_direct_bayes():
    rng = np.random.default_rng(0)
    dims = make_dims(n_times=3, n_epochs=2, n_voxels=8, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    resp = estep(ds, params)
    for i in range(dims.n_voxels):
        f1 = np.exp(log_density_active(ds.series[i], ds.design, params, i))
        f2 = np.exp(log_density_inactive(ds.series[i], ds.design, params, i))
        p = params.active_prob
        expected = p * f1 / (p * f1 + (1.0 - p) * f2)
        assert abs(resp[i] - expected) < 1e-12


def test_estep_saturates_and_short_circuits():
    rng = np.random.default_rng(1)
    dims = make_dims(n_times=3, n_epochs=2, n_voxels=4, n_covariates=0)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    # an absurd noise variance makes the inactive density collapse
    tiny_noise = params.with_updates(noise_var=1e-300)
    resp = estep(ds, tiny_noise)
    assert np.all((resp == 0.0) | (resp == 1.0))
    np.testing.assert_array_equal(estep(ds, params.with_updates(active_prob=0.0)), 0.0)
    np.testing.assert_array_equal(estep(ds, params.with_updates(active_prob=1.0)), 1.0)


def test_observed_loglik_matches_direct_sum():
    rng = np.random.default_rng(2)
    dims = make_dims(n_times=3, n_epochs=2, n_voxels=6, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    total = 0.0
    p = params.active_prob
    for i in range(dims.n_voxels):
        l1 = log_density_active(ds.series[i], ds.design, params, i)
        l2 = log_density_inactive(ds.series[i], ds.design, params, i)
        total += np.logaddexp(np.log(p) + l1, np.log1p(-p) + l2)
    assert abs(observed_loglik(ds, params) - total) < 1e-9


def test_q_function_matches_direct_sum():
    rng = np.random.default_rng(3)
    dims = make_dims(n_times=3, n_epochs=2, n_voxels=6, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    resp = rng.uniform(0.1, 0.9, dims.n_voxels)
    total = 0.0
    p = params.active_prob
    for i in range(dims.n_voxels):
        l1 = log_density_active(ds.series[i], ds.design, params, i)
        l2 = log_density_inactive(ds.series[i], ds.design, params, i)
        total += resp[i] * (np.log(p) + l1)
        total += (1.0 - resp[i]) * (np.log1p(-p) + l2)
    assert abs(q_function(ds, resp, params) - total) < 1e-9


def test_update_p_is_stationary_mean():
    rng = np.random.default_rng(4)
    dims = make_dims(n_times=3, n_epochs=2, n_voxels=10, n_covariates=0)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    resp = rng.uniform(0.1, 0.9, dims.n_voxels)
    p_hat = em._mean_step(
        ds, resp, params, em._Residuals(ds).fill(params), ModelStructure()
    ).active_prob
    assert abs(p_hat - resp.mean()) < 1e-15
    grad = central_diff(
        lambda v: q_function(ds, resp, params.with_updates(active_prob=float(v[0]))),
        np.array([p_hat]),
    )
    assert abs(grad[0]) < 1e-6


def test_each_update_zeroes_its_q_gradient():
    # spot check; the wide sweep runs in the acceptance suite
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        dims = make_dims(
            n_times=3, n_epochs=3, n_voxels=10, n_covariates=2 - seed % 2
        )
        ds = make_dataset(dims, rng)
        params = make_params(dims, rng)
        resp = rng.uniform(0.05, 0.95, dims.n_voxels)
        gaps = mstep_stationarity_gaps(ds, resp, params)
        for name, gap in gaps.items():
            assert gap < 1e-5, f"{name} gradient {gap:.2e} at seed {seed}"


def test_update_h_keeps_fitted_mean_and_convention():
    rng = np.random.default_rng(5)
    dims = make_dims(n_times=4, n_epochs=3, n_voxels=12, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    resp = rng.uniform(0.2, 0.9, dims.n_voxels)
    resid_inactive = inactive_residual(ds, params.coeffs)
    hrf, amp = update_h(resp, params, shape_numerator(
        resp, params.amplitude, inv_spd(params.between_cov), resid_inactive))
    assert abs(np.linalg.norm(hrf) - 1.0) < 1e-12
    peak = hrf[int(np.argmax(np.abs(hrf)))]
    assert peak > 0.0
    # raw solution times old amplitudes equals new shape times new amplitudes
    w_between = np.linalg.inv(params.between_cov)
    raw = update_h_raw(resp, params.amplitude, w_between, resid_inactive)
    np.testing.assert_allclose(
        np.outer(params.amplitude, raw), np.outer(amp, hrf), atol=1e-12
    )


def test_update_h_degenerate_mass_keeps_previous_shape():
    rng = np.random.default_rng(6)
    dims = make_dims(n_times=3, n_epochs=2, n_voxels=5, n_covariates=0)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng).with_updates(amplitude=np.zeros(5))
    resp = np.full(5, 0.5)
    numer = shape_numerator(resp, params.amplitude, inv_spd(params.between_cov),
                            inactive_residual(ds, params.coeffs))
    with pytest.warns(RuntimeWarning, match="degenerate"):
        hrf, amp = update_h(resp, params, numer)
    assert hrf is params.hrf
    np.testing.assert_array_equal(amp, params.amplitude)


def test_covariance_updates_require_mass():
    resid = np.zeros((3, 2, 2))
    for covariance in em.FACTOR_STEPS:
        with pytest.raises(DegenerateDataError):
            update_covariances(resid, np.zeros(3), np.eye(2), np.eye(2),
                               covariance)


@pytest.mark.filterwarnings("ignore:.*adding ridge:RuntimeWarning")
def test_covariance_updates_are_exactly_symmetric_for_one_voxel():
    # one voxel's scatter is rank-deficient and its GEMM sums need not be
    # symmetric in the last bit
    rng = np.random.default_rng(10)
    resid = rng.standard_normal((1, 10, 14))
    between0 = rand_spd(rng, 10)
    within0 = rand_spd(rng, 14)
    within, _ = update_covariances(resid, np.ones(1), within0, between0,
                                   "within")
    _, between = update_covariances(resid, np.ones(1), within0, between0,
                                    "between")
    np.testing.assert_array_equal(within, within.T)
    np.testing.assert_array_equal(between, between.T)


@pytest.mark.parametrize("n_covariates", [1, 6])
@pytest.mark.parametrize("n_voxels", [1, 255, 256, 257, 1000, 2600])
def test_mean_step_keeps_the_whole_array_bits(n_voxels, n_covariates):
    # the mean block rebuilds the non-responding residual block by block
    # and sums the shape numerator across blocks; every output matches
    # the same step over whole residual arrays to 1e-12 of its largest
    # entry (9e-15 measured), a one-voxel last block included
    rng = np.random.default_rng(n_voxels + n_covariates)
    dims = make_dims(n_times=14, n_epochs=10, n_voxels=n_voxels,
                     n_covariates=n_covariates)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    for mixture in (True, False):
        resp = (rng.uniform(0.0, 1.0, n_voxels) if mixture
                else np.ones(n_voxels))
        for estimate_hrf in (True, False):
            structure = ModelStructure(mixture=mixture, estimate_hrf=estimate_hrf)
            resid = em._Residuals(ds).fill(params)
            got = em._mean_step(ds, resp, params, resid, structure)
            want, ssq = mean_step_oracle(ds, resp, params, structure)
            for name in ("active_prob", "amplitude", "coeffs", "hrf"):
                assert_near(getattr(got, name), getattr(want, name),
                            f"{name}, {structure}")
            assert_near(resid.ssq, ssq, str(structure))
            np.testing.assert_array_equal(resid.active, residual_matrices(ds, got))


@pytest.mark.parametrize("q", [1, 2, 6])
def test_projection_blocks_keep_the_whole_products_bits(q):
    # the amplitudes and right-hand sides taken from one block's
    # projection at a time may round differently from the same arithmetic
    # on the product over all voxels, never by more than 1e-12 of its
    # largest entry
    rng = np.random.default_rng(q)
    block = em.kernels.BLOCK
    for n_vox in (1, block - 1, block, block + 1, 7 * block + 1, 10 * block + 37):
        dims = make_dims(n_times=14, n_epochs=10, n_voxels=n_vox,
                         n_covariates=q)
        ds = make_dataset(dims, rng)
        params = make_params(dims, rng)
        resp = rng.uniform(0.0, 1.0, n_vox)
        _, _, _, pz, gram = _gls_design(ds, params)
        amplitude, rhs = em._projection(ds, resp, params, pz, gram)
        proj = ds.series @ np.concatenate([pz, ds.design], axis=1)
        want = (proj[:, 0] - params.coeffs @ gram[1:, 0]) / gram[0, 0]
        assert_near(amplitude, want, f"amplitude, {n_vox} voxels")
        want = (resp[:, None] * (proj[:, 1:q + 1] - want[:, None] * gram[0, 1:])
                + (1.0 - resp)[:, None] * proj[:, q + 1:] / params.noise_var)
        assert_near(rhs, want, f"right-hand side, {n_vox} voxels")


def test_fit_holds_one_full_size_residual():
    # the non-responding residual is rebuilt per block from the series,
    # so the responding residual is the fit's one series-sized buffer
    ds, _ = simulate_dataset(SimConfig(n_voxels=4096), seed=0)
    config = EmConfig(max_iter=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # first-call allocations (numpy's lazy imports and caches) stay out
        # of the measurement
        em_fit(ds, config, MODEL_SPECS[5].structure)
        peak, _ = traced_peak(
            lambda: em_fit(ds, config, MODEL_SPECS[5].structure))
    # a second full-size residual buffer put it at 2.59
    assert peak / ds.series.nbytes <= 1.8


@pytest.mark.parametrize("noise_scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("n_covariates", [1, 6])
def test_update_b_all_matches_per_voxel_oracle(n_covariates, noise_scale):
    # the mean block's coefficient step, after its amplitude step
    resp = np.array([0.0, 0.3, 0.5, 0.7, 1.0])
    rng = np.random.default_rng(20 + n_covariates)
    dims = make_dims(
        n_times=4, n_epochs=3, n_voxels=resp.size, n_covariates=n_covariates
    )
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    within, between = params.within_cov, params.between_cov
    # noise variance against the mean variance of the Kronecker covariance
    kron_var = np.trace(within) * np.trace(between) / dims.n_images
    params = params.with_updates(noise_var=noise_scale * kron_var)
    got = em._mean_step(ds, resp, params, em._Residuals(ds).fill(params),
                        ModelStructure(estimate_hrf=False))
    expected = np.array(
        [
            update_b(
                ds.series[v],
                ds.design,
                got.amplitude[v],
                resp[v],
                params.hrf,
                within,
                between,
                params.noise_var,
            )
            for v in range(dims.n_voxels)
        ]
    )
    np.testing.assert_allclose(got.coeffs, expected, rtol=1e-9)


def test_amplitude_step_matches_per_voxel_oracle():
    # a voxel's amplitude is (y - Xb)'Pm / m'Pm, taken from the shared
    # projection as (y'Pm - b'X'Pm) / m'Pm. The last voxel is its
    # covariates' fit Xb plus noise 1e-8 of its size, so the two
    # products cancel: its amplitude is 9e-11 of their size
    # ||y|| ||Pm|| / m'Pm. Every error stays within 1e-13 of that size
    # (3e-16 measured), which leaves the last amplitude within 1e-5
    # (4e-7 measured)
    rng = np.random.default_rng(31)
    dims = make_dims(n_times=14, n_epochs=10, n_voxels=6, n_covariates=6)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    fitted = ds.design @ params.coeffs[-1]
    noise = rng.standard_normal(dims.n_images)
    series = ds.series.copy()
    series[-1] = fitted + 1e-8 * np.linalg.norm(fitted) / np.linalg.norm(noise) * noise
    ds = replace(ds, series=series)
    structure = ModelStructure(mixture=False, estimate_hrf=False)
    got = em._mean_step(ds, np.ones(dims.n_voxels), params,
                        em._Residuals(ds).fill(params), structure).amplitude
    want = np.array([
        update_beta(series[v], ds.design, params.coeffs[v], params.hrf,
                    params.within_cov, params.between_cov)
        for v in range(dims.n_voxels)
    ])
    mean = np.tile(params.hrf, dims.n_epochs)
    pm = np.linalg.solve(np.kron(params.between_cov, params.within_cov), mean)
    size = np.linalg.norm(series, axis=1) * np.linalg.norm(pm) / (mean @ pm)
    assert np.all(np.abs(got - want) <= 1e-13 * size)
    np.testing.assert_allclose(got[:-1], want[:-1], rtol=1e-12)
    np.testing.assert_allclose(got[-1], want[-1], rtol=1e-5)


@pytest.mark.parametrize("structure", [
    ModelStructure(), ModelStructure(mixture=False, covariance="spherical")])
def test_every_step_leaves_the_residuals_of_its_parameters(structure):
    # the owner holds the residuals of the parameters each step returns,
    # bit for bit those a fresh owner builds on them
    rng = np.random.default_rng(13)
    dims = make_dims(n_times=14, n_epochs=10, n_voxels=300, n_covariates=3)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    resp = (rng.uniform(0.0, 1.0, dims.n_voxels) if structure.mixture
            else np.ones(dims.n_voxels))
    resid = em._Residuals(ds).fill(params)

    def assert_owner_holds(params, step):
        fresh = em._Residuals(ds).fill(params)
        assert resid.active.tobytes() == fresh.active.tobytes(), step
        assert resid.ssq.tobytes() == fresh.ssq.tobytes(), step

    params = em._mean_step(ds, resp, params, resid, structure)
    assert_owner_holds(params, "mean")
    params = em._variance_step(ds, resp, params, resid, 1e-12, structure)
    assert_owner_holds(params, "variance")


# three mean steps with every voxel near one endpoint, then 50 ms of
# busy-waiting; prints the CPU seconds of every thread but the main one
HELPER_CPU = """
import time
import numpy as np
import trialmix.em as em
from trialmix.simulate import SimConfig, simulate_dataset
ds, _ = simulate_dataset(SimConfig(n_voxels=20000), seed=0)
params, resid, _ = em._start(ds)
resp = np.ones(ds.dims.n_voxels)
structure = em.ModelStructure(mixture=False)
time.sleep(0.3)  # any helper thread woken while building the bundle rests
before = time.process_time() - time.thread_time()
for _ in range(3):
    params = em._mean_step(ds, resp, params, resid, structure)
stop = time.perf_counter() + 0.05
while time.perf_counter() < stop:
    pass
print(time.process_time() - time.thread_time() - before)
"""


def test_coefficient_step_wakes_no_second_blas_thread():
    # one (rows x q)(q x q) product over 20,000 gathered rows would be
    # split over two OpenBLAS threads, whose helper then spins for about
    # 0.1 s, and so would one projection of the series over all voxels.
    # Where numpy's BLAS does not thread, no helper time accrues
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", HELPER_CPU],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.010


def test_flipflop_is_idempotent_at_its_fixed_point():
    rng = np.random.default_rng(7)
    dims = make_dims(n_times=3, n_epochs=3, n_voxels=15, n_covariates=0)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    resp = rng.uniform(0.3, 1.0, dims.n_voxels)
    resid = residual_matrices(ds, params)
    within, between = sweep_covariances(
        resid, resp, params.within_cov, params.between_cov, 200
    )
    w2, b2 = update_covariances(resid, resp, within, between)
    np.testing.assert_allclose(w2, within, rtol=1e-10)
    np.testing.assert_allclose(b2, between, rtol=1e-10)


def test_trace_rescale_leaves_q_unchanged():
    rng = np.random.default_rng(8)
    dims = make_dims(n_times=3, n_epochs=3, n_voxels=8, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng, rescaled=False)
    resp = rng.uniform(0.2, 0.8, dims.n_voxels)
    within, between = em._rescale_trace(params.within_cov, params.between_cov)
    assert abs(np.trace(between) - dims.n_epochs) < 1e-12
    rescaled = params.with_updates(within_cov=within, between_cov=between)
    assert abs(
        q_function(ds, resp, params) - q_function(ds, resp, rescaled)
    ) < 1e-9


def test_estep_unchanged_under_dense_quad_oracle(monkeypatch):
    rng = np.random.default_rng(9)
    dims = make_dims(n_times=3, n_epochs=3, n_voxels=10, n_covariates=1)
    ds = make_dataset(dims, rng)
    params = make_params(dims, rng)
    fast = estep(ds, params)

    def dense_quads(resid, w_within, w_between):
        big = np.kron(w_between, w_within)
        flat = resid.reshape(resid.shape[0], -1)
        return np.einsum("vn,nm,vm->v", flat, big, flat)

    monkeypatch.setattr(em.kernels, "quad_forms_kron", dense_quads)
    slow = estep(ds, params)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.fixture(scope="module")
def small_mixture():
    return simulate_dataset(
        SimConfig(n_voxels=120, n_times=8, n_epochs=5, n_covariates=2), seed=42
    )


def test_em_fit_small_mixture_run(small_mixture):
    ds, truth = small_mixture
    fit = em_fit(ds)
    assert fit.converged
    trace = fit.loglik_trace
    slack = 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) + slack >= 0.0)
    assert np.all((fit.resp >= 0.0) & (fit.resp <= 1.0))
    assert abs(np.trace(fit.params.between_cov) - 5.0) < 1e-6
    # most voxels classified correctly even at this small size
    acc = np.mean((fit.resp >= 0.5) == truth.labels.astype(bool))
    assert acc > 0.8


def test_fit_result_matches_public_estep_and_loglik(small_mixture):
    # the fit loop shares one density evaluation between the trace entry
    # and the responsibilities; the from-scratch oracles must agree to the bit
    ds, _ = small_mixture
    fit = em_fit(ds)
    assert fit.loglik_trace[-1] == observed_loglik(ds, fit.params)
    np.testing.assert_array_equal(fit.resp, estep(ds, fit.params))


def test_one_density_evaluation_per_parameter_value(small_mixture, monkeypatch):
    ds, _ = small_mixture
    calls, phases = [], []
    quads = em.kernels.quad_forms_kron
    iterate = em._iterate

    def counting_quads(*args):
        calls.append(1)
        return quads(*args)

    def recording_iterate(*args):
        phases.append(iterate(*args))
        return phases[-1]

    monkeypatch.setattr(em.kernels, "quad_forms_kron", counting_quads)
    monkeypatch.setattr(em, "_iterate", recording_iterate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = em_fit(ds)
    # a mixture runs the reduced phase, then the main loop
    reduced, main_loop = phases
    assert main_loop is fit
    assert len(calls) == reduced.iterations + 1 + fit.iterations + 1
    calls.clear()
    phases.clear()
    reduced = em_fit(ds, EmConfig(max_iter=4), ModelStructure(mixture=False))
    assert phases == [reduced]
    assert len(calls) == reduced.iterations + 1


def test_one_residual_owner_per_fit(small_mixture, monkeypatch):
    # seeding changes only the covariances, the noise and p, so the
    # reduced phase, the seeding and the main loop share one _Residuals
    ds, _ = small_mixture
    builds = []
    build = em._Residuals.__init__

    def counting_build(self, *args):
        builds.append(1)
        build(self, *args)

    monkeypatch.setattr(em._Residuals, "__init__", counting_build)
    config = EmConfig(max_iter=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for model_id, spec in MODEL_SPECS.items():
            builds.clear()
            em_fit(ds, config, spec.structure)
            assert len(builds) == 1, model_id
        builds.clear()
        seed_params(ds, config)
        assert len(builds) == 1
        builds.clear()
        fits = {mid: fit_model(ds, mid, config) for mid in MODEL_SPECS}
        compare_models(ds, fits)
        assert len(builds) == 5


def test_init_fit_rejects_uncentered_design(small_mixture):
    ds, _ = small_mixture
    shifted = replace(ds, design=ds.design + 1.0)
    with pytest.raises(DegenerateDataError, match="not mean-centered"):
        seed_params(shifted)


def test_centering_check_scales_with_each_column():
    # a centered design in any units fits with the same labels: the
    # bound on a column's sum scales with its largest magnitude, where a
    # fixed 1e-9 * n_images failed a x1e8 design that preprocess had
    # just centered; an offset of 0.01 in one column still fails
    ds, _ = simulate_dataset(SimConfig(n_voxels=300), seed=0)
    config = EmConfig(max_iter=20)
    labels = em_fit(ds, config).resp > 0.5
    for factor in (1e-8, 1e8, 1e10):
        scaled = replace(ds, design=center_columns(ds.design * factor))
        np.testing.assert_array_equal(
            em_fit(scaled, config).resp > 0.5, labels, f"x{factor:g}")
    offset = ds.design.copy()
    offset[:, 0] += 0.01
    with pytest.raises(DegenerateDataError, match="not mean-centered"):
        em_fit(replace(ds, design=offset), config)


def test_fit_rejects_a_series_variance_of_zero_or_overflowed(small_mixture):
    # the fit starts from the series variance and floors the noise
    # variance at a share of it, so a constant series (0) and one whose
    # variance overflows (inf) are numerical failures, not tracebacks
    ds, _ = small_mixture
    for series in (np.full_like(ds.series, 3.0), ds.series * 1e200):
        with np.errstate(over="ignore"), pytest.raises(
                DegenerateDataError, match="^fit: noise_var must be positive"):
            em_fit(replace(ds, series=series))


def test_init_fit_returns_valid_params():
    ds, _ = simulate_dataset(
        SimConfig(n_voxels=80, n_times=6, n_epochs=4, n_covariates=1), seed=3
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        params = seed_params(ds)
    assert 0.01 <= params.active_prob <= 0.99
    assert params.noise_var > 0.0
    assert abs(np.linalg.norm(params.hrf) - 1.0) < 1e-10


def test_init_fit_all_active_screen_seeds_pooled_noise(monkeypatch):
    # every voxel responds and the screen passes them all, so no
    # non-responding voxel is left to seed the noise variance from
    ds, _ = simulate_dataset(
        SimConfig(n_voxels=60, n_times=6, n_epochs=4, n_covariates=1,
                  active_frac=1.0),
        seed=4,
    )
    monkeypatch.setattr(em, "INIT_ALPHA", 1.0 - 1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        params = seed_params(ds)
        reduced = em_fit(ds, EmConfig(max_iter=em.INIT_MAX_ITER),
                         ModelStructure(mixture=False))
    messages = [str(w.message) for w in caught]
    assert any("no voxels classified non-responding" in m for m in messages)
    assert not any("noise update skipped" in m for m in messages)
    assert params.active_prob == 0.99
    resid = ds.series - reduced.params.coeffs @ ds.design.T
    np.testing.assert_allclose(params.noise_var, np.mean(resid**2), rtol=1e-12)
    # the covariance factors are seeded from every voxel
    within, between = em._rescale_trace(*update_covariances(
        residual_matrices(ds, reduced.params), np.ones(ds.dims.n_voxels),
        reduced.params.within_cov, reduced.params.between_cov,
    ))
    np.testing.assert_allclose(params.within_cov, within, rtol=1e-12)
    np.testing.assert_allclose(params.between_cov, between, rtol=1e-12)


def test_seeding_fallback_is_reported_where_em_fit_seeds():
    # a numerical intervention is reported at the caller of the function
    # that made it: _seed's fallback points at em_fit's call of _seed. On
    # this null bundle model 3's screen passes no voxel
    ds, _ = simulate_dataset(SimConfig(n_voxels=200, active_frac=0.0), seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        em_fit(ds, EmConfig(max_iter=5), MODEL_SPECS[3].structure)
    fallback = [w for w in caught if "initial screen found" in str(w.message)]
    assert len(fallback) == 1
    assert fallback[0].filename.endswith("em.py")
    lines, first = inspect.getsourcelines(em.em_fit)
    assert 0 <= fallback[0].lineno - first < len(lines)
    assert "_seed(" in lines[fallback[0].lineno - first]


def test_config_validation():
    with pytest.raises(ValueError):
        EmConfig(tol=0.0)
    with pytest.raises(ValueError):
        EmConfig(max_iter=0)


def test_rescale_trace_property():
    assert ModelStructure().rescale_trace
    for covariance in ("within", "between"):
        assert not ModelStructure(covariance=covariance).rescale_trace
    assert not ModelStructure(mixture=False, covariance="spherical").rescale_trace


@pytest.mark.parametrize("mixture", [True, False])
@pytest.mark.parametrize("estimate_hrf", [True, False])
@pytest.mark.parametrize(
    "covariance", ["kronecker", "within", "between", "spherical", "full", ""]
)
def test_model_structure_states(mixture, estimate_hrf, covariance):
    # a mixture's non-responding side already is the spherical model, and
    # an unknown name has no conditional steps
    valid = covariance in ("kronecker", "within", "between") or (
        covariance == "spherical" and not mixture)
    if valid:
        structure = ModelStructure(mixture, estimate_hrf, covariance)
        assert structure.covariance == covariance
    else:
        with pytest.raises(ValueError, match="covariance"):
            ModelStructure(mixture, estimate_hrf, covariance)


@pytest.mark.parametrize("covariance, within, between", [
    ("kronecker", 2, 2), ("within", 1, 0), ("between", 0, 1),
])
def test_variance_step_runs_each_conditional_step_once(
        small_mixture, monkeypatch, covariance, within, between):
    # one free factor takes one step: its partner stays at the identity,
    # so a repeat would recompute the same value
    ds, _ = small_mixture
    structure = ModelStructure(covariance=covariance)
    params, resid, floor = em._start(ds)
    resp = np.linspace(0.1, 0.9, ds.dims.n_voxels)
    calls = {"within": 0, "between": 0}
    for factor in calls:
        scatter = getattr(em.kernels, f"scatter_{factor}")

        def counting(*args, factor=factor, scatter=scatter):
            calls[factor] += 1
            return scatter(*args)

        monkeypatch.setattr(em.kernels, f"scatter_{factor}", counting)
    em._variance_step(ds, resp, params, resid, floor, structure)
    assert calls == {"within": within, "between": between}


@pytest.mark.parametrize("covariance", ["within", "between"])
def test_one_free_factor_step_is_idempotent(small_mixture, covariance):
    ds, _ = small_mixture
    params, resid, _ = em._start(ds)
    resp = np.linspace(0.1, 0.9, ds.dims.n_voxels)
    once = update_covariances(resid.active, resp, params.within_cov,
                              params.between_cov, covariance)
    twice = update_covariances(resid.active, resp, *once, covariance)
    for a, b in zip(once, twice):
        np.testing.assert_array_equal(a, b)


def test_dataset_is_checked_once_when_built(small_mixture, monkeypatch,
                                            tmp_path):
    # a command checks the Dataset read_dataset builds, and no fit builds one
    ds, _ = small_mixture
    bundle = str(tmp_path / "dataset")
    write_dataset(ds, bundle)
    calls = []
    check = Dataset.__post_init__

    def counting_check(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(Dataset, "__post_init__", counting_check)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["fit", bundle, "--out", str(tmp_path / "fit")]) == 0
        assert len(calls) == 1
        calls.clear()
        em_fit(ds)
        seed_params(ds)
        compare_models(ds, {mid: fit_model(ds, mid, EmConfig(max_iter=20))
                            for mid in MODEL_SPECS})
    assert calls == []


@pytest.fixture(scope="module")
def fit_2000():
    ds, _ = simulate_dataset(SimConfig(n_voxels=2000), seed=0)
    return ds, em_fit(ds)


@pytest.mark.parametrize("scale", [1e-7, 1e-3, 1e6, 1e-20])
def test_fit_is_scale_equivariant(fit_2000, scale):
    # every floor is relative to the data's scale: the series scaled by c
    # gives the same responding voxels and mixing proportion, and no
    # intervention (an absolute floor once made p 1 at 1e-7)
    ds, base = fit_2000
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = em_fit(replace(ds, series=ds.series * scale))
    np.testing.assert_array_equal(fit.resp >= 0.5, base.resp >= 0.5)
    assert abs(fit.params.active_prob - base.params.active_prob) <= 1e-5


def _fit_bytes(fit) -> list[bytes]:
    params = [np.asarray(getattr(fit.params, name)).tobytes() for name in (
        "active_prob", "amplitude", "coeffs", "hrf", "within_cov",
        "between_cov", "noise_var")]
    return [fit.resp.tobytes(), fit.loglik_trace.tobytes(),
            repr((fit.iterations, fit.converged)).encode(), *params]


@pytest.fixture(scope="module")
def helper_bundles():
    return {n_vox: simulate_dataset(
        SimConfig(n_voxels=n_vox, active_frac=0.3), seed=0)[0]
        for n_vox in (256, 257, 300, 4999, 5000)}


@pytest.mark.parametrize("model", [3, 4, 5])
@pytest.mark.parametrize("n_vox", [256, 257, 300, 4999, 5000])
def test_fit_with_a_helper_keeps_every_bit(helper_bundles, monkeypatch,
                                           two_block_split, n_vox, model):
    # the helper takes the second half of the blocks of every pass over
    # voxels, and the caller adds the helper's partial sums after its
    # own, in block order: the fit is the one-process fit, byte for byte.
    # One block (256 voxels) has no second half, so nothing forks; the
    # threshold is lowered to two blocks (two_block_split) so that small
    # bundles split
    ds = helper_bundles[n_vox]
    forks = record_forks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alone = fit_model(ds, model)
        assert forks == []
        helped = fit_model(ds, model, helper=True)
    assert len(forks) == (0 if n_vox == 256 else 1)
    assert _fit_bytes(helped) == _fit_bytes(alone)
    for pid in forks:  # reaped before the fit returned
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_fit_with_a_helper_allocates_under_half_a_series(two_block_split):
    # the fit's process holds its lane's rows of the shared residual,
    # which tracemalloc does not count, and builds no full-size temporary:
    # np.var's put the peak at one series above the dataset
    ds, _ = simulate_dataset(SimConfig(n_voxels=8192, active_frac=0.3), seed=0)
    config = EmConfig(max_iter=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # first-call allocations stay out of the measurement
        em_fit(ds, config, helper=True)
        peak, _ = traced_peak(lambda: em_fit(ds, config, helper=True))
    assert peak / ds.series.nbytes < 0.5


def _recording(rows_fn, seen):
    """``rows_fn`` that records the row count of each call in this
    process; it pickles by the name it replaces, so the helper runs it
    too (its records stay in its own copy of ``seen``)."""
    @functools.wraps(rows_fn)
    def recording(flat, *args):
        seen.append(flat.shape[0])
        return rows_fn(flat, *args)
    return recording


def test_fit_with_a_helper_fills_only_its_lanes_rows(monkeypatch,
                                                     two_block_split):
    # the helper is forked before the start residuals are built, so the
    # fit's process writes only its own rows of the residual, from the
    # first fill on, and never touches the helper's pages
    ds, _ = simulate_dataset(SimConfig(n_voxels=1000, active_frac=0.3), seed=0)
    seen = {"_refresh_rows": [], "_set_mean_rows": []}
    for name, rows in seen.items():
        monkeypatch.setattr(em, name, _recording(getattr(em, name), rows))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = em_fit(ds, EmConfig(max_iter=2), helper=True)
    mid = em.kernels.Lanes(ds.dims.n_voxels, helper=True).mid
    assert mid == 2 * em.kernels.BLOCK
    for name, rows in seen.items():
        # the start fill, and one refresh per mean step
        assert len(rows) >= 2 + fit.iterations, name
        assert set(rows) == {mid}, name


SUM_LEAF = em.SUM_LEAF


@pytest.mark.parametrize("size", [
    1, 7, 129, SUM_LEAF - 1, SUM_LEAF, SUM_LEAF + 1, SUM_LEAF + 7,
    2 * SUM_LEAF + 13, 8 * SUM_LEAF + 3])
def test_series_var_is_np_vars_bits_on_random_series(size):
    # summed one leaf of numpy's pairwise tree at a time, the variance has
    # np.var's bits; a numpy that sums in another order fails here
    rng = np.random.default_rng(size)
    series = 1e3 + rng.standard_normal(size) * rng.uniform(0.1, 10.0)
    got = em._series_var(series.reshape(1, -1))
    want = float(np.var(series))
    assert got.hex() == want.hex(), (
        f"numpy {np.__version__} no longer sums like the tree em._series_var "
        f"follows: {got.hex()} != {want.hex()}")


def test_series_var_is_np_vars_bits_on_simulated_series():
    orders = []
    for n_vox in (400, 1000, 4999):
        series = simulate_dataset(SimConfig(n_voxels=n_vox), seed=n_vox)[0].series
        want = float(np.var(series))
        assert em._series_var(series).hex() == want.hex(), n_vox
        # the series tell summation orders apart: squares summed in
        # 256-voxel blocks, added in turn, give other bits
        dev = series - series.mean()
        blocks = sum(np.sum(dev[i:i + 256] ** 2) for i in range(0, n_vox, 256))
        orders.append(float(blocks / series.size) != want)
    assert any(orders)
