"""Command-line pipeline: artifacts, exit codes, error reporting."""
import csv
import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import typing
import warnings

import numpy as np
import pytest

from trialmix import cli, em, io, kernels
from trialmix.cli import main
from trialmix.em import EmConfig
from trialmix.io import read_dataset, write_csv, write_dataset
from trialmix.modelsel import CompareConfig, compare_models, fit_model
from trialmix.simulate import SimConfig, simulate_dataset
from trialmix.types import DegenerateDataError

from helpers import (OVERSIZED_FACTORS, read_truth, record_forks,
                     write_bundle_by_hand)

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
    # the same bundle with no volume grid
    paths["unmasked"] = str(root / "unmasked")
    shutil.copytree(paths["bundle"], paths["unmasked"])
    _edit_header(paths["unmasked"], mask_shape=None)
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
    assert lines[0] == "voxel,resp,amplitude,x1"
    assert len(lines) == 151
    with open(os.path.join(out, "loglik.csv")) as f:
        trace = f.read().strip().split("\n")
    assert trace[0] == "iteration,loglik"
    lls = [float(ln.split(",")[1]) for ln in trace[1:]]
    assert meta["loglik"] == lls[-1]
    assert os.path.exists(os.path.join(out, "params.json"))


def _json_sizes(root, n_voxels):
    """simulate, preprocess and report at ``n_voxels`` under ``root``: the
    size of every JSON file they write, by path under ``root``."""
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"simulate": {"n_voxels": n_voxels}}))
    for argv, out in ((["simulate"], "sim"),
                      (["preprocess", "sim/dataset"], "pre"),
                      (["report", "pre/dataset"], "report")):
        argv = [str(root / a) if "/" in a else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv + ["--config", str(cfg),
                                "--out", str(root / out)]) == 0
    return {str(p.relative_to(root)): p.stat().st_size
            for p in root.rglob("*.json") if p != cfg}


def test_no_json_file_grows_with_the_voxel_count(tmp_path, capsys):
    # JSON holds global values only; per-voxel values live in tables
    small, large = (tmp_path / "small", tmp_path / "large")
    small.mkdir()
    large.mkdir()
    sizes = _json_sizes(small, 300)
    grown = _json_sizes(large, 2600)
    assert {"sim/dataset/header.json", "pre/dataset/truth.json",
            "report/params.json", "report/report.json"} <= set(sizes)
    assert set(grown) == set(sizes)
    assert {name: (sizes[name], grown[name]) for name in sizes
            if abs(grown[name] - sizes[name]) >= 2000} == {}


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


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_report_comparison_equals_compare(pipeline):
    # report fits the other models in a worker process; its table is the
    # compare command's, byte for byte
    for name in ("comparison.csv", "comparison.json"):
        with open(os.path.join(pipeline["cmp"], name), "rb") as f:
            expected = f.read()
        with open(os.path.join(pipeline["report"], name), "rb") as f:
            assert f.read() == expected
    _no_child_left()


@pytest.mark.parametrize("command", ["report", "compare"])
@pytest.mark.parametrize("model", [1, 5])
def test_failing_report_fit_keeps_the_sequential_outcome(tmp_path, capsys,
                                                         model, command):
    # null data at V=50, seed 2: model 5's fit loses likelihood. With
    # model 1 as the command's own fit, model 5 fails in the worker; with
    # model 5, the own fit fails and the worker is killed. Either way,
    # for report and compare alike, the error and the warnings are those
    # of fitting fit.model, then the other models in order, up to the
    # first failure
    cfg = str(tmp_path / "null.json")
    with open(cfg, "w") as f:
        json.dump({"simulate": {"n_voxels": 50, "active_frac": 0.0},
                   "fit": {"model": model}}, f)
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", sim, "--seed", "2"]) == 0
    bundle = os.path.join(sim, "dataset")
    dataset = read_dataset(bundle)
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(DegenerateDataError) as exc:
            for mid in [model] + [m for m in range(1, 6) if m != model]:
                fit_model(dataset, mid)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, bundle, "--config", cfg, "--out", str(out)]) == 3
    _no_child_left()
    err = _single_error_line(capsys)
    assert err["type"] == "DegenerateDataError"
    assert err["message"] == str(exc.value)
    assert "log-likelihood trace decreased beyond slack" in err["message"]
    assert err["warnings"] == [str(w.message) for w in caught]
    assert caught
    assert not out.exists()


def test_compare_fits_only_the_compared_models(pipeline, tmp_path,
                                               monkeypatch):
    # fit.model 5 is not among compare.models (1, 2): compare's own
    # process fits nothing, the worker fits models 1 and 2, and the table
    # is that of fitting them one after another in one process
    dataset = read_dataset(pipeline["bundle"])
    em = EmConfig(**CONFIG["em"])
    compare = CompareConfig(models=(1, 2))
    expected = str(tmp_path / "expected")
    with io.OutputDir(expected, cli.STAGES["compare"]) as out:
        io.write_compare(out, compare_models(
            dataset, {m: fit_model(dataset, m, em) for m in (1, 2)}, compare))
    fit = cli.fit_model

    def fit_compared(dataset, model_id, *args, **kwargs):
        assert model_id != 5, "compare fitted a model it does not compare"
        return fit(dataset, model_id, *args, **kwargs)

    monkeypatch.setattr(cli, "fit_model", fit_compared)
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as f:
        json.dump({**CONFIG, "fit": {"model": 5},
                   "compare": {"models": [1, 2]}}, f)
    out = str(tmp_path / "cmp")
    assert main(["compare", pipeline["bundle"], "--config", cfg,
                 "--out", out]) == 0
    _no_child_left()
    for name in ("comparison.csv", "comparison.json"):
        with open(os.path.join(expected, name), "rb") as f:
            want = f.read()
        with open(os.path.join(out, name), "rb") as f:
            assert f.read() == want


def _exit_1(*args):
    os._exit(1)


def _kill_self(*args):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("death, how", [
    (_exit_1, "the comparison worker exited with status 1 "),
    (_kill_self, "the comparison worker was killed by signal 9 "),
], ids=["exit_1", "sigkill"])
@pytest.mark.parametrize("command", ["report", "compare"])
def test_worker_that_dies_exits_3(pipeline, tmp_path, capsys, monkeypatch,
                                  command, death, how):
    # a worker that ends without sending its fits, by os._exit or by a
    # signal such as the OOM killer's SIGKILL, ends the run in one JSON
    # error naming how it ended, is reaped, and leaves --out as it was
    monkeypatch.setattr(cli, "_fit_in_order", death)
    fresh = tmp_path / "fresh"
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "mine.txt").write_bytes(b"mine\n")
    for out in (fresh, kept):
        capsys.readouterr()
        assert main([command, pipeline["bundle"], "--config", pipeline["cfg"],
                     "--out", str(out)]) == 3
        _no_child_left()
        err = _single_error_line(capsys)
        assert err["code"] == 3
        assert err["type"] == "ChildProcessError"
        assert err["message"].startswith(how)
    assert not fresh.exists()
    assert os.listdir(kept) == ["mine.txt"]
    assert (kept / "mine.txt").read_bytes() == b"mine\n"


@pytest.fixture(scope="module")
def two_block_bundle(tmp_path_factory):
    """A 300-voxel bundle: a fit's passes span two voxel blocks."""
    root = tmp_path_factory.mktemp("two_blocks")
    ds, _ = simulate_dataset(SimConfig(n_voxels=300, active_frac=0.3), seed=0)
    write_dataset(ds, str(root / "dataset"))
    return str(root / "dataset")


@pytest.fixture
def real_affinity():
    # a fit with a helper confines itself and its helper to parts of the
    # mask it reads, and restores that mask; the tests fake the mask
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


def _helper_forks(monkeypatch, cpus):
    """The pids of the helpers that fit forks with ``cpus`` CPUs, with the
    split threshold lowered so that the two-block bundle splits."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(kernels, "SPLIT_BLOCKS", 2)
    return record_forks(monkeypatch)


@pytest.mark.parametrize("cpus", [1, 2])
def test_fit_forks_a_helper_only_with_a_second_cpu(
        two_block_bundle, tmp_path, monkeypatch, real_affinity, cpus):
    forks = _helper_forks(monkeypatch, cpus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["fit", two_block_bundle, "--out", str(tmp_path / "fit")]) == 0
    assert len(forks) == cpus - 1
    _no_child_left()


def test_failing_fit_reaps_its_helper(two_block_bundle, tmp_path, capsys,
                                      monkeypatch, real_affinity):
    # a fit that fails mid-loop kills and reaps its helper, and ends in
    # one JSON error with --out as it was
    forks = _helper_forks(monkeypatch, 2)
    step = em._variance_step
    calls = []

    def failing_step(*args):
        calls.append(1)
        if len(calls) == 4:
            raise DegenerateDataError("failing on purpose")
        return step(*args)

    monkeypatch.setattr(em, "_variance_step", failing_step)
    out = tmp_path / "fit"
    assert main(["fit", two_block_bundle, "--out", str(out)]) == 3
    assert len(forks) == 1
    _no_child_left()
    err = _single_error_line(capsys)
    assert (err["type"], err["message"]) == ("DegenerateDataError",
                                             "failing on purpose")
    assert not out.exists()


def test_fit_whose_helper_dies_exits_3(two_block_bundle, tmp_path, capsys,
                                       monkeypatch, real_affinity):
    # a helper killed mid-fit (the OOM killer's SIGKILL, say) ends the fit
    # in one JSON error naming the signal, as a comparison worker's does
    forks = _helper_forks(monkeypatch, 2)
    step = em._variance_step
    calls = []

    def killing_step(*args):
        calls.append(1)
        if len(calls) == 4:
            os.kill(forks[0], signal.SIGKILL)
        return step(*args)

    monkeypatch.setattr(em, "_variance_step", killing_step)
    out = tmp_path / "fit"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["fit", two_block_bundle, "--out", str(out)]) == 3
    _no_child_left()
    err = _single_error_line(capsys)
    assert err["code"] == 3
    assert err["type"] == "ChildProcessError"
    assert err["message"].startswith("the fit's helper process was killed "
                                     "by signal 9 ")
    assert not out.exists()


ORPHAN_SCRIPT = """
import os, sys, time, warnings
from trialmix import em, kernels
from trialmix.io import read_dataset
fork = kernels._fork
def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
def stuck_step(*args):
    print("stuck", flush=True)
    time.sleep(60)
kernels._fork = reporting_fork
kernels.SPLIT_BLOCKS = 2
em._variance_step = stuck_step
warnings.simplefilter("ignore")
em.em_fit(read_dataset(sys.argv[1]), helper=True)
"""


def test_helper_exits_when_its_fit_process_dies(two_block_bundle):
    # the helper reads end of file once the fit's process is gone, and
    # exits instead of waiting for the next pass
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT,
                             two_block_bundle], stdout=subprocess.PIPE,
                            text=True)
    try:
        helper = int(proc.stdout.readline())
        assert proc.stdout.readline() == "stuck\n"
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    # an exited helper whose new parent has not reaped it is a zombie
    stat = f"/proc/{helper}/stat"
    for _ in range(200):
        if not os.path.exists(stat):
            break
        with open(stat) as f:
            if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                break
        time.sleep(0.05)
    else:
        os.kill(helper, signal.SIGKILL)
        pytest.fail("the helper outlived its fit's process")


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


# name: (command line, with BUNDLE, CFG (a config file) and DIR (a
# directory) standing for paths; the bundle file replaced by a directory)
WRONG_PATHS = {
    "bundle-is-a-file": (["fit", "CFG"], None),
    "fit-dir-is-a-file": (["infer", "BUNDLE", "CFG"], None),
    "header.json-is-a-directory": (["preprocess", "BUNDLE"], "header.json"),
    "design.csv-is-a-directory": (["preprocess", "BUNDLE"], "design.csv"),
    "truth.json-is-a-directory": (["preprocess", "BUNDLE"], "truth.json"),
    "truth.f64-is-a-directory": (["preprocess", "BUNDLE"], "truth.f64"),
    "config-is-a-directory": (["simulate", "--config", "DIR"], None),
}


@pytest.mark.parametrize("case", sorted(WRONG_PATHS))
def test_wrong_kind_of_path_exits_2(tmp_path, capsys, case):
    # each once ended in a NotADirectoryError or IsADirectoryError traceback
    argv, made_directory = WRONG_PATHS[case]
    bundle = _write_bundle(str(tmp_path / "bundle"))
    if made_directory:
        path = os.path.join(bundle, made_directory)
        if os.path.exists(path):
            os.remove(path)
        os.mkdir(path)
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as f:
        json.dump({}, f)
    paths = {"BUNDLE": bundle, "CFG": cfg, "DIR": str(tmp_path)}
    out = str(tmp_path / "out")
    argv = [paths.get(a, a) for a in argv] + ["--out", out]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    record = json.loads(err)["error"]
    assert record["code"] == 2
    assert record["type"] in ("BundleFormatError", "ConfigError")
    assert not os.path.exists(out)


def test_data_file_that_links_to_itself_exits_2(tmp_path, capsys):
    # once ended in an OSError (too many levels of symbolic links) traceback
    bundle = _write_bundle(str(tmp_path / "bundle"))
    path = os.path.join(bundle, "data.f64")
    os.remove(path)
    os.symlink("data.f64", path)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["fit", bundle, "--out", out]) == 2
    err = _single_error_line(capsys)
    assert err["type"] == "BundleFormatError"
    assert err["message"].startswith("data.f64: ")
    assert not os.path.exists(out)


def test_malformed_config_json_exits_2(tmp_path, capsys):
    cfg = str(tmp_path / "oops.json")
    with open(cfg, "w") as f:
        f.write("{oops")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "invalid JSON at byte" in _stderr_error(capsys)["message"]


def _files_under(root):
    return [name for _, _, names in os.walk(root) for name in names]


def _edit_header(bundle, **changes):
    path = os.path.join(bundle, "header.json")
    with open(path) as f:
        header = json.load(f)
    header.update(changes)
    with open(path, "w") as f:
        json.dump(header, f)


# (file, how) with a 0xff byte, which no UTF-8 text holds; each once
# ended in a UnicodeDecodeError traceback
UNDECODABLE = [("header.json", "0xff"), ("coords.csv", "0xff"),
               ("coords.csv", "0xff-header"), ("config", "0xff")]


@pytest.mark.parametrize("name, how", UNDECODABLE)
def test_undecodable_bundle_or_config_exits_2(pipeline, tmp_path, capsys,
                                              name, how):
    bundle = str(tmp_path / "bundle")
    shutil.copytree(pipeline["bundle"], bundle)
    cfg = str(tmp_path / "config.json")
    if name == "config":
        with open(cfg, "wb") as f:
            f.write(b'{"seed": "\xff"}')
    else:
        shutil.copy(pipeline["cfg"], cfg)
        _corrupt(os.path.join(bundle, name), how)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["fit", bundle, "--config", cfg, "--out", out]) == 2
    err = _single_error_line(capsys)
    assert err["code"] == 2
    if name == "config":
        assert err["type"] == "ConfigError"
        assert err["message"].startswith(f"{cfg}: not utf-8 text")
    else:
        assert err["type"] == "BundleFormatError"
        assert err["message"].startswith(f"{name}: not utf-8 text")
    assert not os.path.exists(out)


def test_unknown_compare_model_exits_2(pipeline, tmp_path, capsys):
    cfg = str(tmp_path / "cmp.json")
    with open(cfg, "w") as f:
        json.dump({"compare": {"models": [1, 9]}}, f)
    for command in ("compare", "report"):
        out = str(tmp_path / command)
        rc = main([command, pipeline["bundle"], "--config", cfg, "--out", out])
        assert rc == 2
        assert "unknown model id" in _stderr_error(capsys)["message"]
        # checked before the fit, so nothing was written
        assert _files_under(out) == []


# name: (command, config, extra flags); each value once ended in a
# traceback, in exit 3 or in a run that accepted it
BAD_RUNS = {
    "q-above-1": ("report", {"inference": {"q": 2.0}}, []),
    "q-string": ("report", {"inference": {"q": "abc"}}, []),
    "min_cluster-string": ("report", {"inference": {"min_cluster": "x"}}, []),
    "screen_alpha-above-1": ("report", {"inference": {"screen_alpha": 5}}, []),
    "model-unknown": ("report", {"fit": {"model": 9}}, []),
    "n_components-above-n_times": ("report", {"pcs": {"n_components": 40}}, []),
    "models-empty": ("report", {"compare": {"models": []}}, []),
    "models-twice": ("compare", {"compare": {"models": [2, 2, 1]}}, []),
    "seed-string": ("report", {"seed": "x"}, []),
    "seed-negative": ("report", {"seed": -1}, []),
    "seed-flag-negative": ("simulate", {}, ["--seed", "-1"]),
    "seed-flag-outside-simulate": ("fit", {}, ["--seed", "7"]),
    "highpass-below-2tr": ("preprocess", {"preprocess": {"highpass_cutoff": 3}}, []),
    "smooth-without-mask_shape":
        ("preprocess", {"preprocess": {"smooth_fwhm": 2.0}}, []),
    "sim-tr-zero": ("simulate", {"simulate": {"tr": 0}}, []),
    "sim-rho-one": ("simulate", {"simulate": {"between_rho": 1.0}}, []),
    # AR(1) factors below the positivity floor, though |rho| < 1
    **{f"sim-{name}-{rho}": ("simulate", {"simulate": {name: rho}}, [])
       for name in ("within_rho", "between_rho")
       for rho in (0.9999999999999999, 0.999999999999)},
    "sim-n_times-above-64": ("simulate", {"simulate": {"n_times": 65}}, []),
    "removed-resp_clamp": ("report", {"em": {"resp_clamp": 1e-12}}, []),
    "removed-m_sweeps": ("report", {"em": {"m_sweeps": 1}}, []),
    "removed-flipflop_sweeps": ("report", {"em": {"flipflop_sweeps": 2}}, []),
    "removed-cluster_method":
        ("report", {"inference": {"cluster_method": "connected"}}, []),
    "removed-out": ("report", {"out": "elsewhere"}, []),
    # scenario, seeding and plot constants that are module constants now
    **{f"removed-{name}": ("simulate", {"simulate": {name: 1.0}}, [])
       for name in ("stimulus_interval", "first_sample", "amp_spread",
                    "coeff_scale", "design_jitter", "within_scale")},
    "removed-init_alpha": ("report", {"em": {"init_alpha": 1e-3}}, []),
    "removed-init_max_iter": ("report", {"em": {"init_max_iter": 50}}, []),
    "removed-effect_scale": ("report", {"pcs": {"effect_scale": 10.0}}, []),
    "removed-n_obs": ("report", {"compare": {"n_obs": 50}}, []),
    "sim-n_voxels-beyond-address-space":
        ("simulate", {"simulate": {"n_voxels": 10**30}}, []),
    **{f"verbose-flag-on-{command}": (command, {}, ["--verbose"])
       for command in ("simulate", "preprocess", "infer", "pcs", "compare")},
}
# each command's positional arguments, as keys of the pipeline fixture
POSITIONALS = {"simulate": [], "infer": ["bundle", "fit"],
               "pcs": ["bundle", "fit", "infer"],
               "smooth-without-mask_shape": ["unmasked"]}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_bad_config_value_exits_2_before_any_work(pipeline, tmp_path, capsys,
                                                  case):
    command, config, flags = BAD_RUNS[case]
    cfg = str(tmp_path / "bad.json")
    with open(cfg, "w") as f:
        json.dump(config, f)
    out = str(tmp_path / "out")
    keys = POSITIONALS.get(case, POSITIONALS.get(command, ["bundle"]))
    argv = [command] + [pipeline[k] for k in keys]
    capsys.readouterr()
    try:
        rc = main(argv + ["--config", cfg, "--out", out] + flags)
    except SystemExit as exc:  # a usage error
        rc = exc.code
    assert rc == 2
    err = _single_error_line(capsys)
    assert err["code"] == 2
    assert err["type"] == "ConfigError"
    assert _files_under(out) == []


def test_smoothing_wider_than_the_grid_succeeds(pipeline, tmp_path):
    # the kernel radius stops at the grid's extent; an uncapped radius at
    # this width could not be allocated
    cfg = str(tmp_path / "wide.json")
    with open(cfg, "w") as f:
        json.dump({"preprocess": {"smooth_fwhm": 1e300}}, f)
    out = str(tmp_path / "out")
    assert main(["preprocess", pipeline["bundle"], "--config", cfg,
                 "--out", out]) == 0
    assert read_dataset(os.path.join(out, "dataset")).dims.n_voxels == 150


def test_failing_report_leaves_out_as_it_was(pipeline, tmp_path, capsys,
                                             monkeypatch):
    # fit, infer and pcs have staged their files when compare fails
    def fail(*args, **kwargs):
        raise DegenerateDataError("no comparison")

    monkeypatch.setattr(cli, "compare_models", fail)
    fresh = tmp_path / "fresh"
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "mine.txt").write_bytes(b"mine\n")
    # a file report owns and would not write: a failing run keeps it too
    (kept / "curves_cluster9.svg").write_bytes(b"old\n")
    before = _tree_bytes(kept)
    for out in (fresh, kept):
        capsys.readouterr()
        rc = main(["report", pipeline["bundle"], "--config", pipeline["cfg"],
                   "--out", str(out)])
        assert rc == 3
        assert _single_error_line(capsys)["message"] == "no comparison"
    assert not fresh.exists()
    assert _tree_bytes(kept) == before


def test_out_that_cannot_be_a_directory_exits_2(pipeline, tmp_path, capsys,
                                                 monkeypatch):
    def fit(*args, **kwargs):
        raise AssertionError("the fit ran before --out was checked")

    monkeypatch.setattr(cli, "fit_model", fit)
    path = tmp_path / "file"
    path.write_bytes(b"x")
    for out in (path, path / "sub"):
        capsys.readouterr()
        assert main(["fit", pipeline["bundle"], "--out", str(out)]) == 2
        err = _single_error_line(capsys)
        assert err["type"] == "ConfigError"
        assert str(out) in err["message"]
    assert path.read_bytes() == b"x"


def test_out_holding_a_directory_where_a_file_lands_exits_2(pipeline,
                                                            tmp_path, capsys):
    # a fit once moved two of its files into such an --out, then ended
    # in an IsADirectoryError traceback
    out = tmp_path / "fit"
    out.mkdir()
    for name in ("fit.json", "loglik.csv", "params.json"):
        (out / name).write_bytes(b"stale\n")
    (out / "resp.csv").mkdir()
    (out / "resp.csv" / "mine.txt").write_bytes(b"mine\n")
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main(["fit", pipeline["bundle"], "--config", pipeline["cfg"],
                 "--out", str(out)]) == 2
    err = _single_error_line(capsys)
    assert err["code"] == 2
    assert str(out / "resp.csv") in err["message"]
    assert _tree_bytes(out) == before
    assert sorted(os.listdir(out)) == ["fit.json", "loglik.csv",
                                       "params.json", "resp.csv"]


def test_out_is_checked_before_an_owned_file_is_removed(pipeline, tmp_path,
                                                       capsys):
    out = tmp_path / "infer"
    out.mkdir()
    # infer owns a slice image it will not write, and finds a directory
    # where tstats.csv lands
    (out / "tmap_s999.pgm").write_bytes(b"old\n")
    (out / "tstats.csv").mkdir()
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main(["infer", pipeline["bundle"], pipeline["fit"], "--config",
                 pipeline["cfg"], "--out", str(out)]) == 2
    assert str(out / "tstats.csv") in _single_error_line(capsys)["message"]
    assert _tree_bytes(out) == before
    assert sorted(os.listdir(out)) == ["tmap_s999.pgm", "tstats.csv"]


def test_coordinate_outside_mask_shape_exits_2_before_any_work(
        pipeline, tmp_path, capsys, monkeypatch):
    def fit(*args, **kwargs):
        raise AssertionError("the fit ran on a bundle that fails its checks")

    monkeypatch.setattr(cli, "fit_model", fit)
    bundle = str(tmp_path / "dataset")
    shutil.copytree(pipeline["bundle"], bundle)
    with open(os.path.join(bundle, "header.json")) as f:
        grid = json.load(f)["mask_shape"]
    with open(os.path.join(bundle, "coords.csv")) as f:
        lines = f.read().split("\n")
    lines[8] = f"{grid[0]},0,0"  # the eighth voxel's row
    with open(os.path.join(bundle, "coords.csv"), "w") as f:
        f.write("\n".join(lines))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["report", bundle, "--out", str(out)]) == 2
    err = _single_error_line(capsys)
    assert err["type"] == "BundleFormatError"
    assert "outside mask_shape" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("n_times, n_epochs", OVERSIZED_FACTORS)
@pytest.mark.parametrize("command", ["fit", "preprocess"])
def test_oversized_covariance_factor_exits_2(tmp_path, capsys, command,
                                             n_times, n_epochs):
    bundle = str(tmp_path / "dataset")
    write_bundle_by_hand(bundle, n_times, n_epochs)
    out = tmp_path / "out"
    assert main([command, bundle, "--out", str(out)]) == 2
    err = _single_error_line(capsys)
    assert err["type"] == "BundleFormatError"
    assert err["message"].startswith("header.json: dims: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare", "report"])
def test_uncentered_design_exits_3(pipeline, tmp_path, capsys, command):
    # the format holds any design; only the fit needs it centered
    bundle = str(tmp_path / "dataset")
    shutil.copytree(pipeline["bundle"], bundle)
    design = os.path.join(bundle, "design.csv")
    with open(design) as f:
        head, *rows = f.read().splitlines()
    with open(design, "w") as f:
        f.write("\n".join([head] + [f"{float(r) + 1.0!r}" for r in rows]) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "mine.txt").write_bytes(b"mine\n")
    capsys.readouterr()
    assert main([command, bundle, "--out", str(out)]) == 3
    err = _single_error_line(capsys)
    assert err["type"] == "DegenerateDataError"
    assert "trialmix preprocess" in err["message"]
    assert os.listdir(out) == ["mine.txt"]


# design.csv columns built from the bundle's one centered covariate x
RANK_DEFICIENT = {"duplicate": (lambda x: [x, x], "x2"),
                  "zero": (lambda x: [0.0 * x, x], "x1")}


@pytest.mark.parametrize("case", sorted(RANK_DEFICIENT))
@pytest.mark.parametrize("command", ["fit", "report"])
def test_rank_deficient_design_exits_3_naming_the_column(pipeline, tmp_path,
                                                         capsys, command, case):
    columns, name = RANK_DEFICIENT[case]
    bundle = str(tmp_path / "dataset")
    shutil.copytree(pipeline["bundle"], bundle)
    design = os.path.join(bundle, "design.csv")
    x = np.loadtxt(design, skiprows=1, ndmin=1)
    write_csv(design, io._design_columns(2), columns(x))
    _edit_header(bundle, dims={**CONFIG["simulate"], "n_covariates": 2})
    out = tmp_path / "out"
    out.mkdir()
    (out / "mine.txt").write_bytes(b"mine\n")
    capsys.readouterr()
    assert main([command, bundle, "--out", str(out)]) == 3
    err = _single_error_line(capsys)
    assert err["type"] == "DegenerateDataError"
    assert err["message"].startswith(f"design column {name} is zero or a "
                                     "linear combination")
    assert os.listdir(out) == ["mine.txt"]


def test_successful_commands_leave_no_staging_directory(pipeline):
    for key in ("fit", "infer", "pcs", "cmp", "report"):
        assert not [name for name in os.listdir(pipeline[key])
                    if name.startswith(".tmp-")], key
    sim = os.path.dirname(pipeline["bundle"])
    assert os.listdir(sim) == ["dataset"]


def test_rerun_into_an_output_directory_replaces_only_its_files(pipeline,
                                                                tmp_path):
    out = str(tmp_path / "fit")
    shutil.copytree(pipeline["fit"], out)
    with open(os.path.join(out, "fit.json"), "w") as f:
        f.write("stale\n")
    with open(os.path.join(out, "mine.txt"), "w") as f:
        f.write("mine\n")
    assert main(["fit", pipeline["bundle"], "--config", pipeline["cfg"],
                 "--out", out]) == 0
    assert _tree_bytes(out) == {**_tree_bytes(pipeline["fit"]),
                                "mine.txt": b"mine\n"}


def test_rerun_into_an_output_directory_replaces_its_bundle_whole(tmp_path):
    # a bundle without truth preprocessed into an --out that holds one
    # with truth once kept the earlier truth.json
    ds, truth = simulate_dataset(SimConfig(n_voxels=60, n_covariates=1), seed=0)
    with_truth, without = str(tmp_path / "with"), str(tmp_path / "without")
    write_dataset(ds, with_truth, truth)
    write_dataset(ds, without)
    out = str(tmp_path / "pre")
    assert main(["preprocess", with_truth, "--out", out]) == 0
    assert {"truth.json", "truth.f64"} <= set(os.listdir(f"{out}/dataset"))
    with open(os.path.join(out, "mine.txt"), "w") as f:
        f.write("mine\n")
    assert main(["preprocess", without, "--out", out]) == 0
    fresh = str(tmp_path / "fresh")
    assert main(["preprocess", without, "--out", fresh]) == 0
    assert _tree_bytes(out) == {**_tree_bytes(fresh), "mine.txt": b"mine\n"}
    assert sorted(os.listdir(out)) == ["dataset", "mine.txt"]


def _config(tmp_path, **sections):
    """CONFIG with ``sections`` replaced, as a config file in ``tmp_path``."""
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as f:
        json.dump({**CONFIG, **sections}, f)
    return cfg


def _rerun_into(tmp_path, used, argv):
    """Run ``argv`` into a copy of the output directory ``used`` that also
    holds an unowned mine.txt, and into a fresh one; the copy must end as
    the fresh directory plus mine.txt. Returns the copy."""
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    shutil.copytree(used, out)
    with open(os.path.join(out, "mine.txt"), "w") as f:
        f.write("mine\n")
    for where in (out, fresh):
        assert main(argv + ["--out", where]) == 0
    assert _tree_bytes(out) == {**_tree_bytes(fresh), "mine.txt": b"mine\n"}
    return out


def test_rerun_of_a_report_that_skips_pcs_removes_the_pcs_files(pipeline,
                                                                 tmp_path):
    # no cluster is large enough, so report runs no pcs; rerun into the
    # --out of a report that did, it once kept the earlier pcs files
    cfg = _config(tmp_path, inference={"min_cluster": 100000})
    out = _rerun_into(tmp_path, pipeline["report"],
                      ["report", pipeline["bundle"], "--config", cfg])
    with open(os.path.join(out, "report.json")) as f:
        assert json.load(f)["pcs_run"] is False
    assert not [name for name in os.listdir(out)
                if name.startswith(("pc_", "anova", "curves", "effect"))]


def _cluster_plots(root):
    return [name for name in os.listdir(root)
            if name.startswith("curves_cluster")]


def test_rerun_with_fewer_clusters_removes_their_plots(pipeline, tmp_path):
    cfg = _config(tmp_path, inference={"min_cluster": 3})
    infer = str(tmp_path / "infer")
    assert main(["infer", pipeline["bundle"], pipeline["fit"], "--config",
                 cfg, "--out", infer]) == 0
    out = _rerun_into(tmp_path, pipeline["pcs"],
                      ["pcs", pipeline["bundle"], pipeline["fit"], infer,
                       "--config", cfg])
    assert 0 < len(_cluster_plots(out)) < len(_cluster_plots(pipeline["pcs"]))


def _slice_images(root):
    return [name for name in os.listdir(root) if name.endswith(".pgm")]


def test_rerun_with_fewer_slices_removes_their_images(pipeline, tmp_path):
    cfg = _config(tmp_path, simulate={**CONFIG["simulate"], "n_voxels": 60})
    sim, fit = str(tmp_path / "sim"), str(tmp_path / "fit")
    assert main(["simulate", "--config", cfg, "--out", sim]) == 0
    bundle = os.path.join(sim, "dataset")
    assert main(["fit", bundle, "--config", cfg, "--out", fit]) == 0
    out = _rerun_into(tmp_path, pipeline["infer"],
                      ["infer", bundle, fit, "--config", cfg])
    assert 0 < len(_slice_images(out)) < len(_slice_images(pipeline["infer"]))


# each directory of the pipeline fixture and the command that wrote it
PIPELINE_COMMANDS = {"fit": "fit", "infer": "infer", "pcs": "pcs",
                     "cmp": "compare", "report": "report"}
# the files whose columns follow the dims, at CONFIG's dims
DIMS_DECLARED = {"design.csv": io._design_columns(1),
                 "resp.csv": io._resp_columns(1),
                 "pc_scores.csv": io._pc_columns(2)}


def test_every_written_file_is_declared(pipeline):
    runs = [(os.path.dirname(pipeline["bundle"]), "simulate")]
    runs += [(pipeline[key], command)
             for key, command in PIPELINE_COMMANDS.items()]
    for root, command in runs:
        names = os.listdir(root)
        stages = cli.STAGES[command]
        entries = [e for stage in stages for e in io.STAGE_FILES[stage]]
        # every file is one the command owns, and the pipeline's runs
        # (its report runs pcs) write every name and pattern owned
        assert [n for n in names if not io._owned(n, stages)] == [], command
        assert [e for e in entries if not any(
            n == e if isinstance(e, str) else e.fullmatch(n)
            for n in names)] == [], command
    # every CSV and JSON file has the header or keys declared
    for folder, _, files in os.walk(pipeline["root"]):
        for name in files:
            if not name.endswith((".csv", ".json")) or name == "config.json":
                continue
            path = os.path.join(folder, name)
            assert name in io.ARTIFACTS or name in DIMS_DECLARED, path
            declared = DIMS_DECLARED.get(name) or io.ARTIFACTS[name]
            with open(path) as f:
                if name.endswith(".csv"):
                    assert f.readline() == ",".join(declared) + "\n", path
                else:
                    assert sorted(json.load(f)) == sorted(declared), path


@pytest.mark.parametrize("missing", ["truth.json", "truth.f64"])
def test_one_truth_file_without_the_other_exits_2(tmp_path, capsys, missing):
    ds, truth = simulate_dataset(SimConfig(n_voxels=60, n_covariates=1), seed=0)
    bundle = str(tmp_path / "bundle")
    write_dataset(ds, bundle, truth)
    os.remove(os.path.join(bundle, missing))
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["preprocess", bundle, "--out", out]) == 2
    err = _single_error_line(capsys)
    assert err["type"] == "BundleFormatError"
    assert err["message"].startswith(f"{missing}: file not found")
    assert not os.path.exists(out)


def test_readme_config_block_loads(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        block = f.read().split("```json\n", 1)[1].split("```", 1)[0]
    cfg = str(tmp_path / "readme.json")
    with open(cfg, "w") as f:
        f.write(block)
    config = cli.load_config(cfg)
    assert config.seed == json.loads(block)["seed"]


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
        # the flag is gone: argparse rejects it as a usage error
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "0"])
        assert exc.value.code == 2
        return
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


@pytest.mark.parametrize("seed", [2, 3])
def test_null_data_ascent_failure_exits_3(tmp_path, capsys, seed):
    # on null data these seeds' fits can lose likelihood; that must end
    # as a numerical failure with one JSON line, not a traceback
    cfg = str(tmp_path / "null.json")
    with open(cfg, "w") as f:
        json.dump({"simulate": {"n_voxels": 50, "active_frac": 0.0}}, f)
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", sim,
                 "--seed", str(seed)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["fit", os.path.join(sim, "dataset"), "--config", cfg,
                   "--out", str(tmp_path / "fit")])
    assert rc in (0, 3)
    if rc == 3:
        err = _single_error_line(capsys)
        assert err["code"] == 3
        assert err["type"] == "DegenerateDataError"


def test_ascent_check_runs_under_optimization(tmp_path):
    # seed 2's null fit loses likelihood and exits 3; python -O strips
    # asserts and __debug__ blocks, and no check of the fit may be one
    cfg = str(tmp_path / "null.json")
    with open(cfg, "w") as f:
        json.dump({"simulate": {"n_voxels": 50, "active_frac": 0.0}}, f)
    sim = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", sim, "--seed", "2"]) == 0
    codes = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "trialmix", "fit",
             os.path.join(sim, "dataset"), "--config", cfg,
             "--out", str(tmp_path / f"fit{len(codes)}")],
            capture_output=True,
            text=True,
        )
        codes.append(proc.returncode)
    assert codes[1] == codes[0], codes


def _write_bundle(path, **overrides):
    sim = dict(n_voxels=60, n_times=6, n_epochs=4, n_covariates=1)
    sim.update(overrides)
    ds, _ = simulate_dataset(SimConfig(**sim), seed=0)
    write_dataset(ds, path)
    return path


# name: (source bundle, bundle under test, command, fit on the bundle
# under test); the inference directory always comes from the source
BUNDLE_MISMATCHES = {
    "infer-n_times": ({"n_times": 6}, {"n_times": 7}, "infer", False),
    "infer-n_covariates":
        ({"n_covariates": 1}, {"n_covariates": 2}, "infer", False),
    "pcs-n_covariates":
        ({"n_covariates": 1}, {"n_covariates": 2}, "pcs", False),
    "pcs-n_voxels": ({"n_voxels": 50}, {}, "pcs", True),
}


@pytest.mark.parametrize("case", sorted(BUNDLE_MISMATCHES))
def test_fit_or_infer_dir_from_another_bundle_exits_2(tmp_path, capsys, case):
    sourced, tested, command, fit_tested = BUNDLE_MISMATCHES[case]
    source = _write_bundle(str(tmp_path / "source"), **sourced)
    bundle = _write_bundle(str(tmp_path / "bundle"), **tested)
    fit_dir = str(tmp_path / "fit")
    infer_dir = str(tmp_path / "infer")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["fit", source, "--out", fit_dir]) == 0
        assert main(["infer", source, fit_dir, "--out", infer_dir]) == 0
        if fit_tested:
            assert main(["fit", bundle, "--out", fit_dir]) == 0
        capsys.readouterr()
        argv = [command, bundle, fit_dir]
        if command == "pcs":
            argv.append(infer_dir)
        rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    err = _single_error_line(capsys)
    assert err["code"] == 2
    assert err["type"] == "BundleFormatError"


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
         "--out", str(tmp_path / "o")],
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


@pytest.mark.parametrize("command", ["fit", "report"])
def test_verbose_writes_one_record_per_iteration(pipeline, tmp_path, command):
    # a fresh process, so that anything report's worker wrote to stderr
    # would show; its fits write nothing, so the records are report's own
    out = str(tmp_path / command)
    proc = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-m", "trialmix",
         command, pipeline["bundle"], "--config", pipeline["cfg"],
         "--out", out, "--verbose"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stderr.splitlines()]
    with open(os.path.join(out, "fit.json")) as f:
        iterations = json.load(f)["iterations"]
    with open(os.path.join(out, "loglik.csv")) as f:
        trace = {int(row["iteration"]): float(row["loglik"])
                 for row in csv.DictReader(f)}
    assert [r["iteration"] for r in records] == list(range(1, iterations + 1))
    for r in records:
        assert set(r) == {"iteration", "loglik", "param_change", "mix_prob"}
        assert r["loglik"] == trace[r["iteration"]]


def _run_cli(argv, threads=1, flags=(), one_cpu=False):
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
    )
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "trialmix"] + argv,
        capture_output=True,
        text=True,
        env=env,
        # fit forks its helper only with a second CPU to run it on
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tree_bytes(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def test_fit_bit_identical_under_optimization(tmp_path):
    # the fit's checks run under python -O as well (none is an assert or
    # a __debug__ block), so a mixture fit writes the same bytes in both
    # modes
    bundle = _write_bundle(str(tmp_path / "bundle"))
    fits = []
    for flags in ([], ["-O"]):
        out = str(tmp_path / f"fit{len(fits)}")
        stdout = _run_cli(["fit", bundle, "--out", out], flags=flags)
        fits.append((stdout.replace(out, "OUT"), _tree_bytes(out)))
    assert fits[1] == fits[0]


def test_simulate_bit_identical_across_blas_threads(tmp_path):
    # 631 voxels end in a 119-voxel block, not a multiple of 8
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as f:
        json.dump({"simulate": {"n_voxels": 631}}, f)
    bundles = {}
    for threads in (1, 2):
        out = str(tmp_path / f"sim{threads}")
        _run_cli(["simulate", "--config", cfg, "--out", out], threads)
        bundles[threads] = _tree_bytes(out)
    assert "dataset/truth.f64" in bundles[1]
    assert bundles[1] == bundles[2]


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


def test_fit_with_a_one_voxel_last_block_is_bit_identical_across_blas_threads(
        tmp_path):
    # the bundle ends in a one-voxel block, whose products numpy takes as
    # GEMVs and dots, and spans enough blocks to split: on a host with two
    # CPUs the fits at 1 and 2 threads split their passes with a helper
    # process, and the fit confined to one CPU forks none: all three
    # write the same bytes
    n_vox = kernels.SPLIT_BLOCKS * kernels.BLOCK + 1
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as f:
        json.dump({"seed": 0, "simulate": {"n_voxels": n_vox}}, f)
    sim = str(tmp_path / "sim")
    _run_cli(["simulate", "--config", cfg, "--out", sim])
    fits = {}
    for threads, one_cpu in ((1, False), (2, False), (2, True)):
        out = str(tmp_path / f"fit{threads}{one_cpu}")
        _run_cli(["fit", os.path.join(sim, "dataset"), "--config", cfg,
                  "--out", out], threads, one_cpu=one_cpu)
        fits[threads, one_cpu] = _tree_bytes(out)
    assert fits[1, False] == fits[2, False]
    assert fits[2, True] == fits[2, False]


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


def _corrupt(path, how):
    """Edit one cell of a CSV's fourth line, or one key of a JSON file.

    ``how`` is "non-numeric" (the second cell), "ragged" (drop the last
    cell), "no-rows" (keep only the header), "0xff" (a byte no UTF-8 text
    holds, in the fourth line), "0xff-header" (the same in the first) or
    "name=value" for the named column or key; a JSON value is parsed as
    JSON where it can be, else kept as a string.
    """
    if how.startswith("0xff"):
        with open(path, "rb") as f:
            lines = f.read().split(b"\n")
        row = 0 if how == "0xff-header" else 4
        lines[row] = lines[row][:2] + b"\xff" + lines[row][2:]
        with open(path, "wb") as f:
            f.write(b"\n".join(lines))
        return
    name, _, value = how.partition("=")
    if path.endswith(".json"):
        with open(path) as f:
            obj = json.load(f)
        try:
            obj[name] = json.loads(value)
        except json.JSONDecodeError:
            obj[name] = value
        with open(path, "w") as f:
            json.dump(obj, f)
        return
    with open(path) as f:
        lines = f.read().split("\n")
    cells = lines[4].split(",")
    if how == "non-numeric":
        cells[1] = "abc"
    elif how == "ragged":
        cells.pop()
    elif how != "no-rows":
        cells[lines[0].split(",").index(name)] = value
    lines[4] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines[:1] if how == "no-rows" else lines))


# (file, how); fit files are read back by infer and pcs, inference files
# by pcs. Before io checked each cell against its declared type, every
# case after the first four but df=three exited 0 or 3, read back another
# value, or (no-rows) ended in a traceback; loglik=nan exited 0 until a
# fit's trace had to be finite. A within_cov whose smallest eigenvalue is
# positive but below the positivity floor exited 3 from infer and 0 from
# pcs until both checks read one floor. The 0xff cases ended in a
# UnicodeDecodeError traceback until io mapped it to a format error.
FLOORED = np.diag([1e-20] + [1.0] * (CONFIG["simulate"]["n_times"] - 1))
MALFORMED = [
    ("resp.csv", "non-numeric"),
    ("resp.csv", "ragged"),
    ("tstats.csv", "non-numeric"),
    ("tstats.csv", "ragged"),
    ("resp.csv", "resp=nan"),
    ("resp.csv", "resp=7"),
    ("resp.csv", "resp=-0.5"),
    ("resp.csv", "voxel=2.5"),
    ("resp.csv", "amplitude=nan"),
    ("resp.csv", "x1=inf"),
    ("loglik.csv", "loglik=-1e300"),
    ("loglik.csv", "iteration=inf"),
    ("loglik.csv", "no-rows"),
    ("loglik.csv", "loglik=nan"),
    ("tstats.csv", "reject=0.3"),
    ("tstats.csv", "reject=2"),
    ("tstats.csv", "cluster=1.5"),
    ("tstats.csv", "cluster=nan"),
    ("tstats.csv", "cluster=1e300"),
    ("fit.json", "converged=no"),
    ("fit.json", "converged=1"),
    ("fit.json", "iterations=2.7"),
    ("fdr.json", "df=three"),
    ("fdr.json", "df=true"),
    ("resp.csv", "0xff"),
    ("params.json", "0xff"),
    pytest.param("params.json", f"within_cov={json.dumps(FLOORED.tolist())}",
                 id="params.json-within_cov=diag(1e-20,1,...)"),
]
FIT_FILES = ("params.json", "resp.csv", "loglik.csv", "fit.json")


@pytest.mark.parametrize("table, how", MALFORMED)
def test_malformed_fit_or_infer_csv_exits_2(pipeline, tmp_path, capsys, table,
                                            how):
    fit_dir = str(tmp_path / "fit")
    infer_dir = str(tmp_path / "infer")
    shutil.copytree(pipeline["fit"], fit_dir)
    shutil.copytree(pipeline["infer"], infer_dir)
    _corrupt(os.path.join(fit_dir if table in FIT_FILES else infer_dir, table),
             how)
    argvs = [["pcs", pipeline["bundle"], fit_dir, infer_dir]]
    if table in FIT_FILES:
        argvs.append(["infer", pipeline["bundle"], fit_dir])
    for argv in argvs:
        capsys.readouterr()
        out = str(tmp_path / f"out-{argv[0]}")
        rc = main(argv + ["--config", pipeline["cfg"], "--out", out])
        assert rc == 2, argv[0]
        err = _single_error_line(capsys)
        assert err["code"] == 2
        assert err["type"] == "BundleFormatError"
        assert err["message"].startswith(table)
        assert not os.path.exists(out)


def _declared_keys(declared, path=""):
    """(dotted key, hint) for every leaf of a declaration in io.ARTIFACTS,
    a {key: hint} dict or a dataclass."""
    if dataclasses.is_dataclass(declared):
        declared = typing.get_type_hints(declared)
    for key, hint in declared.items():
        where = f"{path}.{key}" if path else key
        if isinstance(hint, dict) or dataclasses.is_dataclass(hint):
            yield from _declared_keys(hint, where)
        else:
            yield where, hint


def _wrong_typed(value, hint):
    """``value`` turned into one of another JSON type than ``hint``'s: a
    string for a bool or a null, true for a string, 2.5 for an int, NaN
    for a float, and a first entry of NaN (arrays) or 0.5 (tuples) in a
    list."""
    if value is None:
        return "x"
    if type(None) in typing.get_args(hint):  # an optional value's own type
        hint = typing.get_args(hint)[0]
    if hint in (bool, str, int, float):
        return {bool: "yes", str: True, int: 2.5, float: float("nan")}[hint]
    cell = value
    while isinstance(cell[0], list):
        cell = cell[0]
    cell[0] = float("nan") if hint is np.ndarray else 0.5
    return value


# each declared JSON file: the pipeline directory it lives in, and the
# command that reads it (truth.json is read by no command)
JSON_FILES = {"header.json": ("bundle", "infer"), "truth.json": ("bundle", None),
              "params.json": ("fit", "infer"), "fit.json": ("fit", "infer"),
              "fdr.json": ("infer", "pcs")}


@pytest.mark.parametrize("name, key, hint", [
    pytest.param(name, key, hint, id=f"{name}:{key}")
    for name in JSON_FILES for key, hint in _declared_keys(io.ARTIFACTS[name])
])
def test_wrong_typed_json_value_is_a_format_error(pipeline, tmp_path, capsys,
                                                  name, key, hint):
    dirs = {k: str(tmp_path / k) for k in ("bundle", "fit", "infer")}
    for k, folder in dirs.items():
        shutil.copytree(pipeline[k], folder)
    folder, command = JSON_FILES[name]
    path = os.path.join(dirs[folder], name)
    with open(path) as f:
        obj = json.load(f)
    *parents, last = key.split(".")
    holder = obj
    for parent in parents:
        holder = holder[parent]
    holder[last] = _wrong_typed(holder[last], hint)
    with open(path, "w") as f:
        json.dump(obj, f)
    message = f"{name}: {key}: expected "
    dataset = read_dataset(pipeline["bundle"])
    read = {"header.json": lambda: read_dataset(dirs["bundle"]),
            "truth.json": lambda: read_truth(dirs["bundle"]),
            "params.json": lambda: io.read_fit(dirs["fit"], dataset),
            "fit.json": lambda: io.read_fit(dirs["fit"], dataset),
            "fdr.json": lambda: io.read_amap(dirs["infer"], dataset)}[name]
    with pytest.raises(io.BundleFormatError, match="^" + re.escape(message)):
        read()
    if command is None:
        return
    out = tmp_path / "out"
    out.mkdir()
    (out / "mine.txt").write_bytes(b"mine\n")
    argv = [command, dirs["bundle"], dirs["fit"]]
    if command == "pcs":
        argv.append(dirs["infer"])
    capsys.readouterr()
    assert main(argv + ["--config", pipeline["cfg"], "--out", str(out)]) == 2
    err = _single_error_line(capsys)
    assert err["type"] == "BundleFormatError"
    assert err["message"].startswith(message)
    assert _files_under(out) == ["mine.txt"]
    assert (out / "mine.txt").read_bytes() == b"mine\n"


def test_column_csv_reads_the_float_bits_it_wrote(tmp_path):
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.standard_normal(200),
        rng.standard_normal(50) * 1e300,
        rng.standard_normal(50) * 1e-310,
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 2.0**-1074],
    ])
    path = str(tmp_path / "loglik.csv")
    write_csv(path, io.ARTIFACTS["loglik.csv"],
              columns=[np.arange(values.size), values])
    table = io._read_table(str(tmp_path), "loglik.csv", values.size)
    with open(path) as f:
        parsed = [float(line.split(",")[1]) for line in f.read().split()[1:]]
    assert table["loglik"].tobytes() == np.array(parsed).tobytes()
    assert table["loglik"].tobytes() == values.tobytes()
    assert table["iteration"].tobytes() == np.arange(values.size).tobytes()


def test_failing_command_stderr_is_one_json_object(tmp_path):
    # null data at V=50, seed 2: the fit raises ridge and skip warnings,
    # then loses likelihood; no warnings filter is set in the child
    cfg = str(tmp_path / "null.json")
    with open(cfg, "w") as f:
        json.dump({"simulate": {"n_voxels": 50, "active_frac": 0.0}}, f)
    sim = str(tmp_path / "sim")
    base = [sys.executable, "-m", "trialmix"]
    proc = subprocess.run(
        base + ["simulate", "--config", cfg, "--out", sim, "--seed", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        base + ["fit", os.path.join(sim, "dataset"), "--config", cfg,
                "--out", str(tmp_path / "fit")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    err = json.loads(proc.stderr)["error"]
    assert err["type"] == "DegenerateDataError"
    assert err["warnings"]
    assert all("ridge" in w or "skipped" in w for w in err["warnings"])


def test_successful_command_still_raises_its_warnings(tmp_path):
    # a flat voxel fits exactly: infer warns and succeeds
    ds, _ = simulate_dataset(SimConfig(n_voxels=400), seed=3)
    ds.series[0] = 0.0
    bundle = str(tmp_path / "dataset")
    write_dataset(ds, bundle)
    fit_dir = str(tmp_path / "fit")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["fit", bundle, "--out", fit_dir]) == 0
    with pytest.warns(RuntimeWarning, match="fit exactly"):
        assert main(["infer", bundle, fit_dir,
                     "--out", str(tmp_path / "infer")]) == 0


def test_no_command_loads_scipy(tmp_path):
    # the package runs on numpy alone: scipy is a test-only dependency,
    # and importing it would load a second BLAS into the process
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "preprocess": {"smooth_fwhm": 2.0}}))
    out = {name: str(tmp_path / name)
           for name in ("sim", "pre", "fit", "infer", "pcs", "cmp", "report")}
    bundle = os.path.join(out["pre"], "dataset")
    argvs = [
        ["simulate", "--out", out["sim"]],
        ["preprocess", os.path.join(out["sim"], "dataset"), "--out", out["pre"]],
        ["fit", bundle, "--out", out["fit"]],
        ["infer", bundle, out["fit"], "--out", out["infer"]],
        ["pcs", bundle, out["fit"], out["infer"], "--out", out["pcs"]],
        ["compare", bundle, "--out", out["cmp"]],
        ["report", bundle, "--out", out["report"]],
    ]
    code = ("import json, sys, warnings\n"
            "from trialmix.cli import main\n"
            "warnings.simplefilter('ignore', RuntimeWarning)\n"
            "runs = []\n"
            f"for argv in {argvs!r}:\n"
            f"    rc = main(argv + ['--config', {str(cfg)!r}])\n"
            "    runs.append([argv[0], rc, sorted(m for m in sys.modules\n"
            "                                     if m.startswith('scipy'))])\n"
            "print(json.dumps(runs))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [argv[0], 0, []] for argv in argvs]
