"""Tests of the benchmark harness itself; no trialmix command runs.

Run with: python3 -m pytest -q perfbench/tests
"""
import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import check  # noqa: E402
import layers  # noqa: E402
from trialmix import kernels  # noqa: E402


def span(i, parent, name, start, end, **attrs):
    out = {"id": i, "parent": parent, "name": name, "start": start, "end": end}
    if attrs:
        out["attrs"] = attrs
    return out


def test_self_times_on_a_nested_tree():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "a1", 2.0, 3.0),
        span(3, 0, "b", 5.0, 9.0),
        span(4, 3, "b1", 5.0, 6.0),
        span(5, 3, "b2", 5.5, 7.0),   # overlaps b1: covered once
        span(6, 3, "b3", 8.5, 9.5),   # runs past b: clipped at 9
    ]
    own = layers.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0,
                                 5: 1.5, 6: 1.0})


def test_inclusive_time_counts_nested_repeats_once():
    spans = [
        span(0, None, "em.em_fit", 0.0, 5.0),
        span(1, 0, "em.em_fit", 1.0, 2.0),
        span(2, None, "em.em_fit", 6.0, 7.0),
        span(3, None, "io.write_csv", 7.0, 7.5),
    ]
    assert layers.inclusive_time(spans, "em.em_fit") == pytest.approx(6.0)
    assert layers.inclusive_time(spans, ("em.em_fit", "io.write_csv")) == \
        pytest.approx(6.5)


# Naive loops over one voxel at a time, in the contraction order the cost
# formulas assume; each returns the kernel's value and its multiply-adds.

def naive_quad_forms(resid, w_within, w_between):
    n_vox, n_ep, n_t = resid.shape
    out, madds = np.zeros(n_vox), 0
    for v in range(n_vox):
        tmp = np.zeros((n_ep, n_t))
        for j in range(n_ep):
            for t in range(n_t):
                for s in range(n_t):
                    tmp[j, t] += resid[v, j, s] * w_within[s, t]
                    madds += 1
        u = np.zeros((n_ep, n_t))
        for k in range(n_ep):
            for t in range(n_t):
                for j in range(n_ep):
                    u[k, t] += w_between[j, k] * tmp[j, t]
                    madds += 1
        for k in range(n_ep):
            for t in range(n_t):
                out[v] += u[k, t] * resid[v, k, t]
                madds += 1
    return out, madds


def naive_scatter_within(resid, w_between, weights):
    n_vox, n_ep, n_t = resid.shape
    out, madds = np.zeros((n_t, n_t)), 0
    for v in range(n_vox):
        m = np.zeros((n_ep, n_t))
        for k in range(n_ep):
            for t in range(n_t):
                for j in range(n_ep):
                    m[k, t] += w_between[j, k] * resid[v, j, t]
                    madds += 1
        sv = np.zeros((n_t, n_t))
        for s in range(n_t):
            for t in range(n_t):
                for k in range(n_ep):
                    sv[s, t] += resid[v, k, s] * m[k, t]
                    madds += 1
        for s in range(n_t):
            for t in range(n_t):
                out[s, t] += weights[v] * sv[s, t]
                madds += 1
    return out, madds


def naive_scatter_between(resid, w_within, weights):
    n_vox, n_ep, n_t = resid.shape
    out, madds = np.zeros((n_ep, n_ep)), 0
    for v in range(n_vox):
        nv = np.zeros((n_ep, n_t))
        for j in range(n_ep):
            for t in range(n_t):
                for s in range(n_t):
                    nv[j, t] += resid[v, j, s] * w_within[s, t]
                    madds += 1
        pv = np.zeros((n_ep, n_ep))
        for j in range(n_ep):
            for k in range(n_ep):
                for t in range(n_t):
                    pv[j, k] += nv[j, t] * resid[v, k, t]
                    madds += 1
        for j in range(n_ep):
            for k in range(n_ep):
                out[j, k] += weights[v] * pv[j, k]
                madds += 1
    return out, madds


def spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_kernel_cost_matches_a_hand_count():
    n_vox, n_ep, n_t = 2, 2, 3
    rng = np.random.default_rng(5)
    resid = rng.standard_normal((n_vox, n_ep, n_t))
    w_within, w_between = spd(rng, n_t), spd(rng, n_ep)
    weights = rng.uniform(size=n_vox)
    cases = {
        "quad_forms_kron": (naive_quad_forms(resid, w_within, w_between),
                            kernels.quad_forms_kron(resid, w_within, w_between)),
        "scatter_within": (naive_scatter_within(resid, w_between, weights),
                           kernels.scatter_within(resid, w_between, weights)),
        "scatter_between": (naive_scatter_between(resid, w_within, weights),
                            kernels.scatter_between(resid, w_within, weights)),
    }
    for name, ((value, madds), expected) in cases.items():
        np.testing.assert_allclose(value, expected, rtol=1e-12)
        flops, _ = layers.kernel_cost(name, n_vox, n_ep, n_t)
        assert flops == 2 * madds, name
    # by hand at V=2, E=2, T=3: flops per voxel 2(ET^2 + E^2T + ET) etc.;
    # bytes 8 x (residuals 12 + factor entries + per-voxel floats 2 + result)
    assert layers.kernel_cost("quad_forms_kron", 2, 2, 3) == (144, 8 * (12 + 9 + 4 + 2))
    assert layers.kernel_cost("scatter_within", 2, 2, 3) == (156, 8 * (12 + 4 + 2 + 9))
    assert layers.kernel_cost("scatter_between", 2, 2, 3) == (136, 8 * (12 + 9 + 2 + 4))


def test_unattributed_time_closes_the_traced_wall():
    child = {
        "spans": [
            span(0, None, "io.read_dataset", 1.0, 1.5, bytes=100),
            span(1, None, "cli._run_fit", 1.5, 4.0),
            span(2, 1, "em.em_fit", 1.6, 3.8, iterations=7, model=5, key="k"),
            span(3, 2, "em.estep", 2.0, 2.5),
            span(4, 1, "io.write_csv", 3.9, 4.0, bytes=10),
        ],
        "warnings": [{"message": "ridge", "span": "em.estep"}],
    }
    setup = {"spans": [span(0, None, "simulate.simulate_dataset", 0.0, 0.7)],
             "warnings": []}
    m = layers.layer_metrics(setup, [child], traced_wall=4.2,
                             untraced_wall=4.0, traced_peak_rss_mb=100.0)
    assert set(m) == set(layers.PER_LAYER_UNITS)
    assert m["cli.unattributed_s"] == pytest.approx(4.2 - 0.5 - 2.5)
    assert m["cli.fit_s"] == pytest.approx(2.5)
    assert m["cli.artifacts_s"] == pytest.approx(0.1)
    assert m["em.fit_self_s"] == pytest.approx(2.2 - 0.5)
    assert m["em.iterations.model5"] == 7
    assert m["em.density_evals_per_iter"] == pytest.approx(1 / 7)
    assert (m["em.fits"], m["em.interventions"]) == (1, 1)
    assert (m["io.bytes_read"], m["io.bytes_written"]) == (100, 10)
    assert m["simulate.simulate_dataset_s"] == pytest.approx(0.7)
    assert m["trace.overhead_frac"] == pytest.approx(0.05)


@pytest.fixture(scope="module")
def stored():
    return check.load_reference()


@pytest.mark.parametrize("workload", ["report-20k", "fit-50k", "stages-20k"])
def test_check_accepts_the_reference_itself(stored, workload):
    ref = stored["workloads"][workload]
    assert check.check(copy.deepcopy(ref), ref) == []
    assert check.differing_artifacts(copy.deepcopy(ref), ref) == []


@pytest.mark.parametrize("field, tamper", [
    ("iterations", lambda v: v + 1),
    ("loglik", lambda v: v * (1 + 1e-6)),
    ("reject_sha256", lambda v: "0" * 64),
    ("cluster_sha256", lambda v: v[::-1]),
    ("best_aic", lambda v: 1),
    ("model_logliks", lambda v: {**v, "3": v["3"] * (1 + 1e-6)}),
])
def test_check_rejects_a_tampered_reference(stored, field, tamper):
    summary = stored["workloads"]["report-20k"]
    ref = copy.deepcopy(summary)
    ref[field] = tamper(ref[field])
    problems = check.check(summary, ref)
    assert problems and any(field.split("_")[0] in p for p in problems)


def test_check_tolerates_loglik_roundoff(stored):
    summary = copy.deepcopy(stored["workloads"]["fit-50k"])
    summary["loglik"] *= 1 + 1e-12
    assert check.check(summary, stored["workloads"]["fit-50k"]) == []


def test_summarize_and_check_on_written_artifacts(tmp_path):
    fit = tmp_path / "fit"
    fit.mkdir()
    (fit / "fit.json").write_text(json.dumps(
        {"iterations": 3, "converged": True, "loglik": -10.0}))
    (fit / "loglik.csv").write_text(
        "iteration,loglik\n0,-12.0\n1,-9.0\n2,-10.0\n")
    (fit / "resp.csv").write_text(
        "voxel,resp,amplitude\n0,0.9,1.0\n1,0.1,0.0\n")
    (tmp_path / "step0.out").write_text("logs are not artifacts\n")
    facts = check.summarize(str(tmp_path), "fit", None, None)
    assert facts["trace_drops"] == 1
    assert list(facts["artifacts"]) == ["fit/fit.json", "fit/loglik.csv",
                                        "fit/resp.csv"]
    assert check.check(facts, None) == ["log-likelihood decreased 1 time(s)"]
    other = copy.deepcopy(facts)
    other["artifacts"]["fit/resp.csv"] = "0" * 64
    assert check.differing_artifacts(facts, other) == ["fit/resp.csv"]
