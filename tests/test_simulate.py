"""Generator checks: determinism, calibration, and truth bookkeeping."""
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from trialmix.preprocess import shift_offsets_from_stimulus
from trialmix.simulate import (
    WITHIN_SCALE,
    SimConfig,
    _seat,
    _spawn_words,
    ar1_cov,
    default_scenario,
    generate,
    random_walk_design,
    simulate_dataset,
)
from trialmix.types import MAX_GRID_AXIS

from helpers import (generate_reference, make_params, observed_loglik,
                     traced_peak)


def test_ar1_cov_hand_values():
    got = ar1_cov(3, 0.5, 2.0)
    np.testing.assert_allclose(
        got, [[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]]
    )
    np.testing.assert_allclose(ar1_cov(4, 0.0), np.eye(4))
    with pytest.raises(ValueError):
        ar1_cov(3, 1.0)


def test_random_walk_design_is_standardized():
    rng = np.random.default_rng(0)
    x = random_walk_design(100, 4, rng)
    assert x.shape == (100, 4)
    np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(x.std(axis=0, ddof=0), 1.0, atol=1e-12)
    assert random_walk_design(50, 0, rng).shape == (50, 0)


def test_sim_config_defaults_and_validation():
    cfg = SimConfig()
    np.testing.assert_allclose(
        cfg.sample_times, 5.0 / 6.0 + 2.0 * np.arange(14)
    )
    assert cfg.dims.n_images == 140
    with pytest.raises(ValueError):
        SimConfig(active_frac=1.5)
    with pytest.raises(ValueError):
        SimConfig(phase="random")
    with pytest.raises(ValueError):
        SimConfig(noise_var=0.0)
    # the largest cube grid the volume bound admits, and one voxel more
    SimConfig(n_voxels=MAX_GRID_AXIS**3)
    with pytest.raises(ValueError, match="cube grid"):
        SimConfig(n_voxels=MAX_GRID_AXIS**3 + 1)


def test_default_scenario_satisfies_conventions():
    cfg = SimConfig(n_voxels=50)
    params = default_scenario(cfg, seed=4)
    assert abs(np.linalg.norm(params.hrf) - 1.0) < 1e-12
    # AR(1) with unit diagonal: trace equals the epoch count by itself
    assert abs(np.trace(params.between_cov) - cfg.n_epochs) < 1e-12
    np.testing.assert_allclose(
        params.within_cov,
        ar1_cov(cfg.n_times, cfg.within_rho, WITHIN_SCALE),
    )
    assert np.all(params.amplitude > 0.0)
    assert params.active_prob == cfg.active_frac
    assert params.noise_var == cfg.noise_var
    # scenario parameters are a pure function of (config, seed)
    again = default_scenario(cfg, seed=4)
    np.testing.assert_array_equal(params.amplitude, again.amplitude)


def test_generate_is_deterministic():
    cfg = SimConfig(n_voxels=40, n_times=5, n_epochs=4, n_covariates=2)
    ds1, tr1 = simulate_dataset(cfg, seed=7)
    ds2, tr2 = simulate_dataset(cfg, seed=7)
    np.testing.assert_array_equal(ds1.series, ds2.series)
    np.testing.assert_array_equal(ds1.design, ds2.design)
    np.testing.assert_array_equal(tr1.labels, tr2.labels)
    ds3, _ = simulate_dataset(cfg, seed=8)
    assert not np.array_equal(ds1.series, ds3.series)


def test_generate_voxel_streams_are_prefix_stable():
    # each voxel draws from its own split stream, so truncating the
    # voxel set leaves the shared draws of the survivors untouched
    rng = np.random.default_rng(11)
    cfg20 = SimConfig(n_times=4, n_epochs=3, n_voxels=20, n_covariates=1)
    cfg10 = SimConfig(n_times=4, n_epochs=3, n_voxels=10, n_covariates=1)
    params20 = make_params(cfg20.dims, rng)
    params10 = params20.with_updates(
        amplitude=params20.amplitude[:10], coeffs=params20.coeffs[:10]
    )
    design = rng.standard_normal((cfg20.dims.n_images, 1))
    design -= design.mean(axis=0)
    ds20, tr20 = generate(cfg20, params20, seed=5, design=design)
    ds10, tr10 = generate(cfg10, params10, seed=5, design=design)
    np.testing.assert_array_equal(tr10.labels, tr20.labels[:10])
    np.testing.assert_array_equal(ds10.series, ds20.series[:10])


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 1, 2**130 + 5])
def test_spawn_words_are_numpys_streams(seed):
    # one to five seed words: the zero-padded pool, a full pool, and
    # words mixed in after the pool's cross-mix
    n = 300  # the shared stream's index, past a block of 256 voxels
    words = _spawn_words(seed, n + 1)
    assert words.shape == (n + 1, 4) and words.dtype == np.uint64
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for v in (0, 1, 255, 256, 257, n - 1, n):
        seq = np.random.SeedSequence(seed, spawn_key=(v,))
        np.testing.assert_array_equal(
            words[v], seq.generate_state(4, np.uint64), err_msg=str(v))
        _seat(bitgen, words[v].tolist())
        want = np.random.default_rng(seq)
        assert rng.random() == want.random(), v
        np.testing.assert_array_equal(
            rng.standard_normal(5), want.standard_normal(5), err_msg=str(v))


def test_spawn_words_reject_a_negative_seed():
    with pytest.raises(ValueError, match="nonnegative"):
        _spawn_words(-1, 3)
    with pytest.raises(TypeError):
        _spawn_words(1.5, 3)


def assert_generate_is_the_per_voxel_loop(cfg, seed, design=None):
    truth = default_scenario(cfg, seed)
    ds, sim = generate(cfg, truth, seed, design)
    series, labels, want_design, stimulus_times, shifts = generate_reference(
        cfg, truth, seed, design)
    np.testing.assert_array_equal(ds.series, series)
    np.testing.assert_array_equal(sim.labels, labels)
    np.testing.assert_array_equal(ds.design, want_design)
    np.testing.assert_array_equal(ds.stimulus_times, stimulus_times)
    np.testing.assert_array_equal(sim.shift_offsets, shifts)


@pytest.mark.parametrize("n_voxels, active_frac, phase, n_covariates",
                         itertools.product((1, 255, 257, 1000), (0.0, 0.3, 1.0),
                                           ("zero", "jitter"), (0, 6)))
def test_generate_matches_per_voxel_streams(n_voxels, active_frac, phase,
                                            n_covariates):
    assert_generate_is_the_per_voxel_loop(
        SimConfig(n_voxels=n_voxels, active_frac=active_frac, phase=phase,
                  n_covariates=n_covariates), seed=3)


def test_generate_matches_per_voxel_streams_at_a_given_design():
    cfg = SimConfig(n_voxels=300, n_covariates=2, phase="jitter")
    design = np.random.default_rng(8).standard_normal((cfg.dims.n_images, 2))
    assert_generate_is_the_per_voxel_loop(cfg, seed=5, design=design)


def test_generate_builds_no_seed_sequence_per_voxel(monkeypatch):
    # the per-voxel SeedSequence and PCG64 constructors were most of
    # simulate's time; one vectorized pass seeds every stream instead
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    cfg = SimConfig(n_voxels=2000)
    truth = default_scenario(cfg, seed=0)
    monkeypatch.setattr(np.random, "SeedSequence", counting)
    generate(cfg, truth, seed=0)
    assert len(built) <= 1


def test_label_fraction_tracks_active_frac():
    cfg = SimConfig(n_voxels=4000, n_times=3, n_epochs=3, n_covariates=0)
    _, truth = simulate_dataset(cfg, seed=2)
    assert abs(truth.labels.mean() - 0.3) < 0.03
    cfg_all = SimConfig(
        n_voxels=60, n_times=3, n_epochs=3, n_covariates=0, active_frac=1.0
    )
    _, truth_all = simulate_dataset(cfg_all, seed=2)
    assert np.all(truth_all.labels == 1)


def test_truth_params_beat_perturbed_params():
    cfg = SimConfig(n_voxels=150, n_times=6, n_epochs=4, n_covariates=1)
    wins = 0
    for seed in range(20):
        ds, truth = simulate_dataset(cfg, seed=seed)
        ll_truth = observed_loglik(ds, truth.params)
        worse = truth.params.with_updates(
            amplitude=1.5 * truth.params.amplitude,
            noise_var=1.6 * truth.params.noise_var,
        )
        if ll_truth > observed_loglik(ds, worse):
            wins += 1
    assert wins >= 19


def test_zero_phase_bookkeeping():
    cfg = SimConfig(n_voxels=20, n_times=4, n_epochs=5, n_covariates=1)
    ds, truth = simulate_dataset(cfg, seed=3)
    np.testing.assert_array_equal(truth.shift_offsets, np.zeros(5))
    # onsets sit on the sampling grid
    np.testing.assert_allclose(ds.stimulus_times % cfg.tr, 0.0, atol=1e-12)
    np.testing.assert_array_equal(
        shift_offsets_from_stimulus(ds.stimulus_times, cfg.tr), np.zeros(5)
    )


def test_jitter_phase_records_undo_shifts():
    cfg = SimConfig(
        n_voxels=25, n_times=6, n_epochs=8, n_covariates=1, phase="jitter"
    )
    ds, truth = simulate_dataset(cfg, seed=9)
    assert truth.shift_offsets is not None
    offsets = -truth.shift_offsets
    assert np.all((offsets > -0.5) & (offsets < 0.5))
    assert np.any(np.abs(offsets) > 0.05)
    # alignment recovers exactly the stored undo shifts from the onsets
    np.testing.assert_allclose(
        shift_offsets_from_stimulus(ds.stimulus_times, cfg.tr),
        truth.shift_offsets,
        atol=1e-12,
    )


def test_generate_validation():
    rng = np.random.default_rng(1)
    cfg = SimConfig(n_times=4, n_epochs=3, n_voxels=6, n_covariates=2)
    params = make_params(cfg.dims, rng)
    with pytest.raises(ValueError, match="design shape"):
        generate(cfg, params, seed=0, design=np.zeros((3, 3)))


def test_generate_geometry():
    cfg = SimConfig(n_voxels=30, n_times=3, n_epochs=3, n_covariates=0)
    ds, _ = simulate_dataset(cfg, seed=0)
    assert ds.coords.shape == (30, 3)
    assert len(np.unique(ds.coords, axis=0)) == 30
    side = ds.mask_shape[0]
    assert ds.mask_shape == (side, side, side)
    assert side**3 >= 30 > (side - 1) ** 3


def test_generate_holds_no_second_series_array():
    # the covariate term is added per block and each voxel's stream is
    # made when it draws, so the series is the only full-size array
    cfg = SimConfig(n_voxels=4096)
    truth = default_scenario(cfg, seed=0)
    peak, (ds, _) = traced_peak(lambda: generate(cfg, truth, seed=0))
    assert (peak - ds.series.nbytes) / ds.series.nbytes < 0.75


def test_generate_bits_do_not_depend_on_blas_threads():
    # the covariate term is one GEMM per kernels.voxel_blocks block; both
    # sizes end in a narrow block that is not a multiple of 8 voxels
    # (119 and 44), the GEMM shape most likely to round by thread split
    code = ("import hashlib, sys; from trialmix.simulate import SimConfig, "
            "simulate_dataset; ds, _ = simulate_dataset(SimConfig("
            "n_voxels=int(sys.argv[1]))); "
            "print(hashlib.sha256(ds.series.tobytes()).hexdigest())")
    for n_voxels in ("631", "300"):
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code, n_voxels],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1, n_voxels
