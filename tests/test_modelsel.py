"""Candidate-model table, parameter counts, and criterion arithmetic."""
import numpy as np
import pytest

from trialmix.em import EmConfig
from trialmix.modelsel import (
    MODEL_SPECS,
    CompareConfig,
    ModelSpec,
    aic,
    bic,
    compare_models,
    count_params,
    fit_model,
)
from trialmix.simulate import SimConfig, simulate_dataset
from trialmix.types import Dims


def test_count_params_published_table():
    # parameter counts at the dataset size reported in the comparison
    # table: 10062 voxels, 14 samples per epoch, 10 epochs, 6 covariates
    dims = Dims(n_times=14, n_epochs=10, n_voxels=10062, n_covariates=6)
    assert count_params(1, dims) == 70434
    assert count_params(2, dims) == 70447
    assert count_params(3, dims) == 80566
    assert count_params(4, dims) == 80616
    assert count_params(5, dims) == 80671


def test_count_params_decomposition():
    dims = Dims(n_times=4, n_epochs=3, n_voxels=7, n_covariates=2)
    base = (1 + 2) * 7
    assert count_params(1, dims) == base
    assert count_params(2, dims) == base + 3
    mix = base + 3 + 7 + 2
    assert count_params(3, dims) == mix + 6
    assert count_params(4, dims) == mix + 10
    assert count_params(5, dims) == mix + 6 + 10


def test_aic_hand_value():
    # 2 * 70447 - 2 * (-12348551)
    assert aic(-12348551.0, 70447) == 24837996.0
    assert aic(0.0, 3) == 6.0


def test_bic_oracle_and_validation():
    assert abs(bic(-10.0, 4, 100) - (4 * np.log(100.0) + 20.0)) < 1e-12
    with pytest.raises(ValueError):
        bic(0.0, 1, 0)


def test_model_spec_lookup():
    assert ModelSpec.from_id(5).structure.mixture
    assert not MODEL_SPECS[1].structure.estimate_hrf
    assert MODEL_SPECS[2].structure.estimate_hrf
    covariances = [spec.structure.covariance for spec in MODEL_SPECS.values()]
    assert covariances == ["spherical", "spherical", "between", "within",
                           "kronecker"]
    assert [spec.structure.mixture for spec in MODEL_SPECS.values()] == [
        False, False, True, True, True]
    with pytest.raises(ValueError, match="unknown model id"):
        ModelSpec.from_id(6)


def test_descriptions_are_csv_safe():
    for spec in MODEL_SPECS.values():
        assert "," not in spec.description
        assert "\n" not in spec.description


@pytest.fixture(scope="module")
def tiny_dataset():
    ds, _ = simulate_dataset(
        SimConfig(n_voxels=80, n_times=6, n_epochs=4, n_covariates=1), seed=13
    )
    return ds


def test_fit_model_dispatch(tiny_dataset):
    cfg = EmConfig(max_iter=40)
    fit1 = fit_model(tiny_dataset, 1, cfg)
    # canonical-shape model never updates the response shape
    from trialmix.em import canonical_hrf

    d = tiny_dataset.dims
    times = tiny_dataset.tr * (np.arange(d.n_times) + 0.5)
    np.testing.assert_allclose(
        fit1.params.hrf, canonical_hrf(times)
    )
    assert np.all(fit1.resp == 1.0)
    assert fit1.params.active_prob == 1.0
    # spherical factors stay proportional to the identity
    between = fit1.params.between_cov
    within = fit1.params.within_cov
    np.testing.assert_allclose(between, np.eye(4) * between[0, 0])
    np.testing.assert_allclose(within, np.eye(6) * within[0, 0])

    fit5 = fit_model(tiny_dataset, 5, cfg)
    assert np.any((fit5.resp > 0.0) & (fit5.resp < 1.0))
    with pytest.raises(ValueError):
        fit_model(tiny_dataset, 0)


def test_compare_models_table(tiny_dataset):
    cfg = EmConfig(max_iter=60)
    fits = {mid: fit_model(tiny_dataset, mid, cfg) for mid in MODEL_SPECS}
    cmp = compare_models(tiny_dataset, fits)
    d = tiny_dataset.dims
    assert [r.model_id for r in cmp.rows] == [1, 2, 3, 4, 5]
    assert cmp.n_obs == d.n_voxels * d.n_images
    for row in cmp.rows:
        assert row.n_params == count_params(row.model_id, d)
        assert row.aic == aic(row.loglik, row.n_params)
        assert row.bic == bic(row.loglik, row.n_params, cmp.n_obs)
    aics = [r.aic for r in cmp.rows]
    bics = [r.bic for r in cmp.rows]
    assert cmp.best_aic == cmp.rows[int(np.argmin(aics))].model_id
    assert cmp.best_bic == cmp.rows[int(np.argmin(bics))].model_id


def test_compare_models_subset(tiny_dataset):
    cfg = EmConfig(max_iter=30)
    fits = {mid: fit_model(tiny_dataset, mid, cfg) for mid in (1, 2)}
    cmp = compare_models(tiny_dataset, fits, CompareConfig(models=(1, 2)))
    assert [r.model_id for r in cmp.rows] == [1, 2]
    with pytest.raises(ValueError):
        CompareConfig(models=())
