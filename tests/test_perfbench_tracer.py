"""perfbench/tracer.py still finds the functions and results it reads.

The tracer wraps the package's functions from outside and reads some of
their arguments and results by name, so a change in the package can
leave a benchmark metric reading 0 without any error. This runs
simulate, a smoothing preprocess and report under the tracer in a
subprocess, as perfbench/run.py does, and checks the spans it records.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CONFIG = {
    "simulate": {"n_voxels": 300, "n_times": 10, "n_epochs": 8,
                 "n_covariates": 1, "active_frac": 0.3},
    "preprocess": {"smooth_fwhm": 2.0},
    "em": {"max_iter": 40},
    "pcs": {"n_components": 2},
}


def _traced(tmp_path, name, *args) -> list[dict]:
    """The spans of one traced command, which must exit 0."""
    spans = tmp_path / f"{name}.spans.json"
    proc = subprocess.run([sys.executable, str(TRACER), str(spans), *args],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(spans) as f:
        record = json.load(f)
    assert record["exit"] == 0
    return record["spans"]


def test_tracer_sees_each_stage(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    sim, pre, rep = (str(tmp_path / d) for d in ("sim", "pre", "report"))
    spans = _traced(tmp_path, "simulate", "simulate", "--config", str(cfg),
                    "--out", sim)
    assert "io.write_dataset" in {s["name"] for s in spans}
    spans = _traced(tmp_path, "preprocess", "preprocess", sim + "/dataset",
                    "--config", str(cfg), "--out", pre)
    assert "io.write_dataset" in {s["name"] for s in spans}
    spans = _traced(tmp_path, "report", "report", pre + "/dataset",
                    "--config", str(cfg), "--out", rep)
    by_id = {s["id"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert "inference.activation_map" in names
    # the spans are report's own process's: its fit of fit.model is a
    # fit_model call under _run_fit, and the worker's fits are not seen
    fits = [s for s in spans if s["name"] == "modelsel.fit_model"]
    assert [s["attrs"] for s in fits] == [{"model": 5}]
    assert by_id[fits[0]["parent"]]["name"] == "cli._run_fit"
