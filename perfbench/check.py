"""Result check of one workload pass.

``summarize`` reduces a pass's artifacts to a few facts; ``check`` tests
them. Every pass must converge with a non-decreasing log-likelihood. On
the reference seed the facts must also match ``reference.json``, which
``run.py --make-reference`` writes at one BLAS thread: the final
log-likelihood (and each compared model's) within REL_TOL, the iteration
count exactly, SHA-256 digests of the rejected-voxel set and the cluster
labels (of the responding set where no inference runs), and the AIC/BIC
winners.

``differing_artifacts`` compares every artifact byte with the reference.
It is reported, not counted as a failure: the package states that its
artifacts are bit-identical across BLAS thread counts, and this shows
where that does not hold.

Standard library only: the driver runs it without numpy.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os

REL_TOL = 1e-9
# the package's own monotonicity slack (FitResult.validate)
SLACK = 1e-8
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _sha256(items) -> str:
    return hashlib.sha256("\n".join(map(str, items)).encode()).hexdigest()


def _file_digests(top: str) -> dict[str, str]:
    """Relative path -> SHA-256 of every file in the subdirectories of top."""
    out = {}
    for folder, _, files in os.walk(top):
        if folder == top:
            continue
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, top)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


def summarize(out: str, fit: str, infer: str | None, compare: str | None) -> dict:
    """Facts of one pass, read from the artifact subdirectories of ``out``.

    ``fit``, ``infer`` and ``compare`` name the subdirectories holding the
    fit, inference and comparison artifacts (None where a stage does not run).
    """
    fit_dir = os.path.join(out, fit)
    infer_dir = None if infer is None else os.path.join(out, infer)
    compare_dir = None if compare is None else os.path.join(out, compare)
    with open(os.path.join(fit_dir, "fit.json")) as f:
        meta = json.load(f)
    trace = [float(r["loglik"]) for r in _rows(os.path.join(fit_dir, "loglik.csv"))]
    facts = {
        "loglik": float(meta["loglik"]),
        "iterations": int(meta["iterations"]),
        "converged": bool(meta["converged"]),
        "trace_drops": sum(
            b - a + SLACK * max(1.0, abs(a)) < 0.0 for a, b in zip(trace, trace[1:])
        ),
    }
    if infer_dir is None:
        resp = _rows(os.path.join(fit_dir, "resp.csv"))
        facts["responding_sha256"] = _sha256(
            r["voxel"] for r in resp if float(r["resp"]) >= 0.5)
    else:
        tstats = _rows(os.path.join(infer_dir, "tstats.csv"))
        facts["reject_sha256"] = _sha256(r["voxel"] for r in tstats if r["reject"] == "1")
        facts["cluster_sha256"] = _sha256(r["cluster"] for r in tstats)
        with open(os.path.join(infer_dir, "fdr.json")) as f:
            fdr = json.load(f)
        facts["n_rejected"] = int(fdr["n_rejected"])
        facts["n_clusters"] = int(fdr["n_clusters"])
    if compare_dir is not None:
        with open(os.path.join(compare_dir, "comparison.json")) as f:
            cmp = json.load(f)
        facts["best_aic"] = int(cmp["best_aic"])
        facts["best_bic"] = int(cmp["best_bic"])
        facts["model_logliks"] = {
            r["model"]: float(r["loglik"])
            for r in _rows(os.path.join(compare_dir, "comparison.csv"))
        }
    facts["artifacts"] = _file_digests(out)
    return facts


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(summary: dict, reference: dict | None) -> list[str]:
    """Problems found in one pass; an empty list means it passed."""
    problems = []
    if not summary["converged"]:
        problems.append("fit did not converge")
    if summary["trace_drops"]:
        problems.append(f"log-likelihood decreased {summary['trace_drops']} time(s)")
    if reference is None:
        return problems
    if not _close(summary["loglik"], reference["loglik"]):
        problems.append(
            f"loglik {summary['loglik']!r} != reference {reference['loglik']!r}")
    for key in ("iterations", "responding_sha256", "reject_sha256",
                "cluster_sha256", "n_rejected", "n_clusters", "best_aic",
                "best_bic"):
        if key in reference and summary.get(key) != reference[key]:
            problems.append(
                f"{key} {summary.get(key)!r} != reference {reference[key]!r}")
    ref_models = reference.get("model_logliks", {})
    got_models = summary.get("model_logliks", {})
    if set(ref_models) != set(got_models) or not all(
        _close(got_models[m], ref_models[m]) for m in ref_models
    ):
        problems.append(f"model logliks {got_models} != reference {ref_models}")
    return problems


def differing_artifacts(summary: dict, reference: dict) -> list[str]:
    """Artifacts whose bytes differ from the reference, or exist in one only."""
    got, ref = summary["artifacts"], reference["artifacts"]
    return sorted(p for p in set(got) | set(ref) if got.get(p) != ref.get(p))


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)
