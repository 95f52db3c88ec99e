"""Command-line pipeline: artifacts, exit codes, error reporting."""
import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from trialmix.cli import main
from trialmix.io import read_dataset, write_dataset
from trialmix.simulate import SimConfig, simulate_dataset

CONFIG = {
    "seed": 5,
    "simulate": {
        "n_voxels": 150,
        "n_times": 10,
        "n_epochs": 8,
        "n_covariates": 1,
    },
    "em": {"max_iter": 150},
    "inference": {"min_cluster": 2},
    "pcs": {"n_components": 2},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate -> fit -> infer -> pcs -> compare -> report run."""
    root = tmp_path_factory.mktemp("cli")
    cfg = str(root / "config.json")
    with open(cfg, "w") as f:
        json.dump(CONFIG, f)
    paths = {"cfg": cfg, "root": root}
    sim = str(root / "sim")
    assert main(["simulate", "--config", cfg, "--out", sim]) == 0
    paths["bundle"] = os.path.join(sim, "dataset")
    paths["fit"] = str(root / "fit")
    assert main(["fit", paths["bundle"], "--config", cfg,
                 "--out", paths["fit"]]) == 0
    paths["infer"] = str(root / "infer")
    assert main(["infer", paths["bundle"], paths["fit"], "--config", cfg,
                 "--out", paths["infer"]]) == 0
    paths["pcs"] = str(root / "pcs")
    assert main(["pcs", paths["bundle"], paths["fit"], paths["infer"],
                 "--config", cfg, "--out", paths["pcs"]]) == 0
    paths["cmp"] = str(root / "cmp")
    assert main(["compare", paths["bundle"], "--config", cfg,
                 "--out", paths["cmp"]]) == 0
    paths["report"] = str(root / "report")
    assert main(["report", paths["bundle"], "--config", cfg,
                 "--out", paths["report"]]) == 0
    return paths


def test_simulate_writes_readable_bundle(pipeline):
    ds = read_dataset(pipeline["bundle"])
    assert ds.dims.n_voxels == 150
    assert ds.dims.n_times == 10


def test_fit_artifacts(pipeline):
    out = pipeline["fit"]
    with open(os.path.join(out, "fit.json")) as f:
        meta = json.load(f)
    assert set(meta) == {"iterations", "converged", "loglik", "active_prob"}
    assert meta["converged"] is True
    assert 0.0 <= meta["active_prob"] <= 1.0
    with open(os.path.join(out, "resp.csv")) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "voxel,resp,amplitude"
    assert len(lines) == 151
    with open(os.path.join(out, "loglik.csv")) as f:
        trace = f.read().strip().split("\n")
    assert trace[0] == "iteration,loglik"
    lls = [float(ln.split(",")[1]) for ln in trace[1:]]
    assert meta["loglik"] == lls[-1]
    assert os.path.exists(os.path.join(out, "params.json"))


def test_infer_artifacts(pipeline):
    out = pipeline["infer"]
    with open(os.path.join(out, "tstats.csv")) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "voxel,x,y,z,t,p,reject,cluster"
    assert len(lines) == 151
    with open(os.path.join(out, "fdr.json")) as f:
        fdr = json.load(f)
    assert set(fdr) == {"df", "threshold", "m0_hat", "n_rejected", "n_clusters"}
    rejects = sum(int(ln.split(",")[6]) for ln in lines[1:])
    assert rejects == fdr["n_rejected"]
    assert fdr["n_clusters"] >= 1
    for name in ("tmap.json", "activemap.json"):
        with open(os.path.join(out, name)) as f:
            sidecar = json.load(f)
        for pgm in sidecar["files"]:
            assert os.path.exists(os.path.join(out, pgm))


def test_pcs_artifacts(pipeline):
    out = pipeline["pcs"]
    with open(os.path.join(out, "pc_spectrum.csv")) as f:
        spec = f.read().strip().split("\n")
    assert spec[0] == "component,eigenvalue,variance_pct"
    assert len(spec) == 11
    eigs = [float(ln.split(",")[1]) for ln in spec[1:]]
    assert eigs == sorted(eigs, reverse=True)
    with open(os.path.join(out, "pc_scores.csv")) as f:
        header = f.readline().strip()
    assert header == "voxel,epoch,pc1,pc2"
    with open(os.path.join(out, "anova.csv")) as f:
        rows = [ln.split(",") for ln in f.read().strip().split("\n")[1:]]
    assert {r[1] for r in rows} == {"grand_mean", "epoch", "cluster"}
    assert os.path.exists(os.path.join(out, "curves.csv"))
    assert os.path.exists(os.path.join(out, "effect_curves.csv"))
    svg = os.path.join(out, "effect_curves.svg")
    with open(svg) as f:
        body = f.read()
    assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")
    assert "polyline" in body


def test_compare_artifacts(pipeline):
    out = pipeline["cmp"]
    with open(os.path.join(out, "comparison.csv")) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "model,description,n_params,loglik,aic,bic"
    assert len(lines) == 6
    with open(os.path.join(out, "comparison.json")) as f:
        meta = json.load(f)
    aics = {int(ln.split(",")[0]): float(ln.split(",")[4]) for ln in lines[1:]}
    assert meta["best_aic"] == min(aics, key=aics.get)


def test_report_manifest(pipeline):
    with open(os.path.join(pipeline["report"], "report.json")) as f:
        manifest = json.load(f)
    assert set(manifest) == {
        "loglik",
        "iterations",
        "converged",
        "active_prob",
        "n_rejected",
        "n_clusters",
        "pcs_run",
        "best_aic",
        "best_bic",
    }
    assert manifest["pcs_run"] is True
    # report re-runs the same fit: numbers agree with the fit command
    with open(os.path.join(pipeline["fit"], "fit.json")) as f:
        fit_meta = json.load(f)
    assert manifest["loglik"] == fit_meta["loglik"]


def test_seed_flag_overrides_config(pipeline, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    cfg = pipeline["cfg"]
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", out_a]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "99", "--out", out_b]) == 0
    with open(os.path.join(out_a, "dataset", "data.f64"), "rb") as f:
        a = f.read()
    with open(os.path.join(out_b, "dataset", "data.f64"), "rb") as f:
        b = f.read()
    assert a != b
    # seed 5 equals the config-seed run bit for bit
    with open(os.path.join(pipeline["bundle"], "data.f64"), "rb") as f:
        assert f.read() == a


def test_preprocess_command(pipeline, tmp_path):
    out = str(tmp_path / "prep")
    assert main(["preprocess", pipeline["bundle"], "--out", out]) == 0
    ds = read_dataset(os.path.join(out, "dataset"))
    # default pipeline centers every voxel series
    np.testing.assert_allclose(ds.series.mean(axis=1), 0.0, atol=1e-10)


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().split("\n")[-1]
    return json.loads(err)["error"]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = str(tmp_path / "bad.json")
    with open(cfg, "w") as f:
        json.dump({"simulte": {}}, f)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = _stderr_error(capsys)
    assert err["code"] == 2
    assert err["type"] == "ConfigError"
    assert "simulte" in err["message"]


def test_unknown_section_value_exits_2(tmp_path, capsys):
    cfg = str(tmp_path / "bad2.json")
    with open(cfg, "w") as f:
        json.dump({"simulate": {"n_voxels": "many"}}, f)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert _stderr_error(capsys)["type"] == "ConfigError"


def test_missing_bundle_exits_2(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2
    err = _stderr_error(capsys)
    assert err["code"] == 2
    assert "not found" in err["message"]


def test_malformed_config_json_exits_2(tmp_path, capsys):
    cfg = str(tmp_path / "oops.json")
    with open(cfg, "w") as f:
        f.write("{oops")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "invalid JSON at byte" in _stderr_error(capsys)["message"]


def test_unknown_compare_model_exits_2(pipeline, tmp_path, capsys):
    cfg = str(tmp_path / "cmp.json")
    with open(cfg, "w") as f:
        json.dump({"compare": {"models": [1, 9]}}, f)
    rc = main(["compare", pipeline["bundle"], "--config", cfg,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown model id" in _stderr_error(capsys)["message"]


def test_pcs_without_clusters_exits_3(pipeline, tmp_path, capsys):
    # a cluster floor larger than the volume leaves nothing clustered
    cfg = str(tmp_path / "nocluster.json")
    with open(cfg, "w") as f:
        json.dump({"inference": {"min_cluster": 100000}}, f)
    infer_out = str(tmp_path / "infer")
    assert main(["infer", pipeline["bundle"], pipeline["fit"],
                 "--config", cfg, "--out", infer_out]) == 0
    capsys.readouterr()
    rc = main(["pcs", pipeline["bundle"], pipeline["fit"], infer_out,
               "--out", str(tmp_path / "pcs")])
    assert rc == 3
    err = _stderr_error(capsys)
    assert err["code"] == 3
    assert err["type"] == "DegenerateDataError"


def test_null_data_fit_succeeds(tmp_path):
    # all-inactive data: the fit must run and converge; the mixing
    # weight itself is not identified on null data (the responding
    # component nests the quiet one), so only health is asserted
    cfg = str(tmp_path / "null.json")
    with open(cfg, "w") as f:
        json.dump(
            {
                "simulate": {
                    "n_voxels": 100,
                    "n_times": 5,
                    "n_epochs": 4,
                    "n_covariates": 1,
                    "active_frac": 0.0,
                },
                "em": {"max_iter": 200},
            },
            f,
        )
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", sim, "--seed", "3"]) == 0
    fit_out = str(tmp_path / "fit")
    assert main(["fit", os.path.join(sim, "dataset"), "--config", cfg,
                 "--out", fit_out]) == 0
    with open(os.path.join(fit_out, "fit.json")) as f:
        meta = json.load(f)
    assert meta["converged"] is True
    assert np.isfinite(meta["loglik"])


@pytest.mark.parametrize("seed", [3, 4])
def test_null_data_default_geometry_fit_succeeds(tmp_path, seed):
    # a fallback seed of two voxels gives a rank-deficient between scatter
    # whose GEMM sums used to be asymmetric in the last bits
    cfg = str(tmp_path / "null.json")
    with open(cfg, "w") as f:
        json.dump({"simulate": {"n_voxels": 200, "active_frac": 0.0}}, f)
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", sim,
                 "--seed", str(seed)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["fit", os.path.join(sim, "dataset"), "--config", cfg,
                   "--out", str(tmp_path / "fit")])
    assert rc == 0


def _single_error_line(capsys):
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1, lines
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_zero_threads_exits_2(tmp_path, capsys, where):
    cfg = str(tmp_path / "c.json")
    with open(cfg, "w") as f:
        json.dump({"threads": 0} if where == "config" else {}, f)
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
    if where == "flag":
        argv += ["--threads", "0"]
    assert main(argv) == 2
    err = _single_error_line(capsys)
    assert err["code"] == 2
    assert err["type"] == "ConfigError"
    assert "threads" in err["message"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_exits_2(tmp_path, capsys, bad):
    ds, _ = simulate_dataset(
        SimConfig(n_voxels=20, n_times=4, n_epochs=3, n_covariates=1), seed=1
    )
    bundle = str(tmp_path / "dataset")
    write_dataset(ds, bundle)
    series = np.fromfile(os.path.join(bundle, "data.f64"), dtype="<f8")
    series[17] = bad
    series.tofile(os.path.join(bundle, "data.f64"))
    assert main(["fit", bundle, "--out", str(tmp_path / "fit")]) == 2
    err = _single_error_line(capsys)
    assert err["code"] == 2
    assert err["type"] == "BundleFormatError"
    assert "non-finite" in err["message"]


def test_usage_error_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    cfg = str(tmp_path / "c.json")
    with open(cfg, "w") as f:
        json.dump(
            {"simulate": {"n_voxels": 8, "n_times": 3, "n_epochs": 2,
                          "n_covariates": 0}},
            f,
        )
    proc = subprocess.run(
        [sys.executable, "-m", "trialmix", "simulate", "--config", cfg,
         "--out", str(tmp_path / "o"), "--threads", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("dataset")
    assert os.path.exists(str(tmp_path / "o" / "dataset" / "header.json"))


def test_console_stdout_summaries(pipeline, tmp_path, capsys):
    capsys.readouterr()
    assert main(["fit", pipeline["bundle"], "--config", pipeline["cfg"],
                 "--out", str(tmp_path / "f")]) == 0
    out = capsys.readouterr().out
    assert "loglik=" in out and "converged=True" in out


def _run_cli(argv, threads=1):
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "trialmix"] + argv,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def _tree_bytes(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def test_report_bit_identical_across_blas_threads(tmp_path):
    # V=5000 is large enough for a BLAS reduction over voxels or ANOVA
    # rows to be split by thread count
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as f:
        json.dump({"seed": 0, "simulate": {"n_voxels": 5000,
                                            "active_frac": 0.3}}, f)
    sim = str(tmp_path / "sim")
    _run_cli(["simulate", "--config", cfg, "--out", sim])
    bundle = os.path.join(sim, "dataset")
    reports = {}
    for threads in (1, 2):
        out = str(tmp_path / f"report{threads}")
        _run_cli(["report", bundle, "--config", cfg, "--out", out], threads)
        reports[threads] = _tree_bytes(out)
    assert sorted(reports[1]) == sorted(reports[2])
    differ = [n for n in sorted(reports[1]) if reports[1][n] != reports[2][n]]
    assert not differ, f"artifacts differ between 1 and 2 threads: {differ}"


def test_flat_voxel_is_not_flagged_active(tmp_path):
    ds, truth = simulate_dataset(SimConfig(n_voxels=400), seed=3)
    flat = int(np.nonzero(truth.labels)[0][0])
    ds.series[flat] = 0.0
    bundle = str(tmp_path / "dataset")
    write_dataset(ds, bundle)
    out = str(tmp_path / "report")
    assert main(["report", bundle, "--out", out]) == 0
    with open(os.path.join(out, "tstats.csv")) as f:
        rows = list(csv.DictReader(f))
    row = rows[flat]
    assert int(row["voxel"]) == flat
    assert float(row["t"]) == 0.0
    assert int(row["reject"]) == 0
    assert int(row["cluster"]) == 0
