"""Span-tree arithmetic and the per-layer metrics of a traced run.

A span is a dict with ``id``, ``parent`` (id or None), ``name``, ``start``
and ``end`` (seconds on one clock), plus optional ``attrs`` recorded by
the tracer. Spans of one child process share a clock; spans of different
children are never compared with each other.

This module imports nothing from trialmix, so the driver can aggregate
without loading numpy.
"""
from __future__ import annotations

KERNELS = ("quad_forms_kron", "scatter_within", "scatter_between")
ARTIFACT_WRITERS = (
    "io.write_csv",
    "io.write_map_pgm",
    "io.write_params_json",
    "cli.write_svg_curves",
)
IO_READERS = ("io.read_dataset", "io.read_truth", "io.read_params_json",
              "cli._read_column_csv")
IO_WRITERS = ("io.write_dataset",) + ARTIFACT_WRITERS
MODEL_IDS = (1, 2, 3, 4, 5)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out


def _ancestors(span: dict, by_id: dict[int, dict]):
    parent = span["parent"]
    while parent is not None:
        yield by_id[parent]
        parent = by_id[parent]["parent"]


def inclusive_time(spans: list[dict], names) -> float:
    """Wall time inside any span named in ``names``, nested repeats once."""
    names = {names} if isinstance(names, str) else set(names)
    by_id = {s["id"]: s for s in spans}
    return sum(
        duration(s)
        for s in spans
        if s["name"] in names
        and not any(a["name"] in names for a in _ancestors(s, by_id))
    )


def kernel_cost(kernel: str, n_voxels: int, n_epochs: int, n_times: int):
    """(flops, bytes) of one kernel call, computed from its shapes.

    Flops count a multiply-add as two, in the cheapest contraction order
    for one voxel's (n_epochs, n_times) residual R with the inverse
    factors Ww (n_times, n_times) and Wb (n_epochs, n_epochs):

    - quad_forms_kron: R Ww, then Wb (R Ww), then its dot with R.
    - scatter_within: Wb R, then R' (Wb R), then the weighted sum.
    - scatter_between: R Ww, then (R Ww) R', then the weighted sum.

    Bytes are the compulsory traffic at 8 bytes a float: the residuals,
    the inverse factors the kernel takes, one float per voxel (the output
    of quad_forms_kron, the weights of a scatter) and a scatter's result.
    Cache misses are ignored, so these are computed figures, not measured
    ones.
    """
    v, e, t = n_voxels, n_epochs, n_times
    if kernel == "quad_forms_kron":
        flops = v * (2 * e * t * t + 2 * e * e * t + 2 * e * t)
        floats = v * e * t + t * t + e * e + v
    elif kernel == "scatter_within":
        flops = v * (2 * e * e * t + 2 * e * t * t + 2 * t * t)
        floats = v * e * t + e * e + v + t * t
    elif kernel == "scatter_between":
        flops = v * (2 * e * t * t + 2 * e * e * t + 2 * e * e)
        floats = v * e * t + t * t + v + e * e
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return flops, 8 * floats


def _fit_iterations(spans: list[dict], by_id: dict[int, dict]):
    """(init, per-model, total) iteration counts of the fits in one child.

    A fit span is em.em_fit or em.fit_all_active. One under em.init_fit is
    the reduced initial fit; the rest carry the model id the tracer
    matched from their structure. An em_fit whose work was delegated to a
    direct fit_all_active child is not counted twice in the total.
    """
    init = 0
    per_model = {}
    total = 0
    delegated = {s["parent"] for s in spans if s["name"] == "em.fit_all_active"}
    for s in spans:
        if s["name"] not in ("em.em_fit", "em.fit_all_active"):
            continue
        iters = s.get("attrs", {}).get("iterations")
        if iters is None:
            continue
        if s["name"] == "em.em_fit" and s["id"] in delegated:
            continue
        total += iters
        if any(a["name"] == "em.init_fit" for a in _ancestors(s, by_id)):
            init += iters
        elif s["attrs"].get("model") is not None:
            per_model[s["attrs"]["model"]] = iters
    return init, per_model, total


def _top_fits(spans: list[dict], by_id: dict[int, dict]) -> list[dict]:
    """Fit spans that are not nested in another fit."""
    fit_names = ("em.em_fit", "em.fit_all_active")
    return [
        s for s in spans
        if s["name"] in fit_names
        and not any(a["name"] in fit_names for a in _ancestors(s, by_id))
    ]


# name -> unit for every per-layer metric, in report order
PER_LAYER_UNITS = {
    "cli.fit_s": "s",
    "cli.infer_s": "s",
    "cli.pcs_s": "s",
    "cli.compare_s": "s",
    "cli.artifacts_s": "s",
    "cli.unattributed_s": "s",
    "io.read_dataset_s": "s",
    "io.read_dataset_calls": "count",
    "io.write_dataset_s": "s",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "preprocess.preprocess_dataset_s": "s",
    "preprocess.gaussian_smooth_3d_calls": "count",
    "simulate.simulate_dataset_s": "s",
    "em.init_fit_s": "s",
    "em.fit_all_active_s": "s",
    "em.estep_s": "s",
    "em.estep_calls": "count",
    "em.observed_loglik_s": "s",
    "em.observed_loglik_calls": "count",
    "em.update_h_s": "s",
    "em.update_covariances_s": "s",
    "em.update_sigma2_s": "s",
    "em.fit_self_s": "s",
    "em.density_evals_per_iter": "ratio",
    "em.fits": "count",
    "em.fits_distinct": "count",
    "em.iterations.init": "count",
    **{f"em.iterations.model{m}": "count" for m in MODEL_IDS},
    "em.interventions": "count",
    **{
        f"kernels.{k}{suffix}": unit
        for k in KERNELS
        for suffix, unit in (("_s", "s"), ("_calls", "count"))
    },
    "kernels.flops": "flop",
    "kernels.bytes": "B",
    "kernels.flops_per_byte": "flop/B",
    "kernels.gflops": "GFLOP/s",
    "linalg.inv_spd_calls": "count",
    "linalg.regularize_spd_calls": "count",
    "inference.activation_map_s": "s",
    "inference.whiten_s": "s",
    "inference.t_statistics_all_s": "s",
    "inference.cluster_active_s": "s",
    "inference.n_rejected": "count",
    "inference.n_clusters": "count",
    "variability.analyze_variability_s": "s",
    "variability.pc_scores_s": "s",
    "variability.anova_two_way_calls": "count",
    "modelsel.compare_models_s": "s",
    **{f"modelsel.fit_model_s.m{m}": "s" for m in MODEL_IDS},
    "trace.overhead_frac": "ratio",
    "trace.peak_rss_mb": "MB",
}


def layer_metrics(
    setup: dict,
    workload: list[dict],
    traced_wall: float,
    untraced_wall: float,
    traced_peak_rss_mb: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``setup`` is the traced bundle-writing child and ``workload`` the
    traced children of the timed pass, each a dict with ``spans`` and
    ``warnings`` (captured RuntimeWarnings). io and simulate metrics
    include the set-up child; every other layer covers the timed pass
    only. ``cli.unattributed_s`` is ``traced_wall`` (the timed children,
    launch to exit) minus the top-level spans of those children.
    """
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    top_level = 0.0
    fit_keys: list = []
    iters_total = 0
    for role, child in [("setup", setup)] + [("workload", c) for c in workload]:
        spans = child["spans"]
        by_id = {s["id"]: s for s in spans}

        def t(names):
            return inclusive_time(spans, names)

        def calls(name):
            return sum(1 for s in spans if s["name"] == name)

        m["io.read_dataset_s"] += t("io.read_dataset")
        m["io.read_dataset_calls"] += calls("io.read_dataset")
        m["io.write_dataset_s"] += t("io.write_dataset")
        for s in spans:
            nbytes = s.get("attrs", {}).get("bytes", 0)
            if s["name"] in IO_READERS:
                m["io.bytes_read"] += nbytes
            elif s["name"] in IO_WRITERS:
                m["io.bytes_written"] += nbytes
        m["simulate.simulate_dataset_s"] += t("simulate.simulate_dataset")
        if role == "setup":
            continue

        top_level += sum(duration(s) for s in spans if s["parent"] is None)
        for stage in ("fit", "infer", "pcs", "compare"):
            m[f"cli.{stage}_s"] += t(f"cli._run_{stage}")
        m["cli.artifacts_s"] += t(ARTIFACT_WRITERS)
        m["preprocess.preprocess_dataset_s"] += t("preprocess.preprocess_dataset")
        m["preprocess.gaussian_smooth_3d_calls"] += calls("preprocess.gaussian_smooth_3d")

        for name in ("init_fit", "fit_all_active", "estep", "observed_loglik",
                     "update_h", "update_covariances", "update_sigma2"):
            m[f"em.{name}_s"] += t(f"em.{name}")
        m["em.estep_calls"] += calls("em.estep")
        m["em.observed_loglik_calls"] += calls("em.observed_loglik")
        own = self_times(spans)
        m["em.fit_self_s"] += sum(
            own[s["id"]] for s in spans
            if s["name"] in ("em.em_fit", "em.fit_all_active")
        )
        init, per_model, total = _fit_iterations(spans, by_id)
        m["em.iterations.init"] += init
        for model, iters in per_model.items():
            m[f"em.iterations.model{model}"] = iters
        iters_total += total
        fit_keys += [s["attrs"]["key"] for s in _top_fits(spans, by_id)]
        m["em.interventions"] += len(child["warnings"])

        for k in KERNELS:
            name = f"kernels.{k}"
            m[f"{name}_s"] += t(name)
            m[f"{name}_calls"] += calls(name)
            for s in spans:
                if s["name"] == name:
                    flops, nbytes = kernel_cost(k, *s["attrs"]["shape"])
                    m["kernels.flops"] += flops
                    m["kernels.bytes"] += nbytes
        m["linalg.inv_spd_calls"] += calls("linalg.inv_spd")
        m["linalg.regularize_spd_calls"] += calls("linalg.regularize_spd")

        for name in ("activation_map", "whiten", "t_statistics_all", "cluster_active"):
            m[f"inference.{name}_s"] += t(f"inference.{name}")
        for s in spans:
            if s["name"] == "inference.activation_map":
                m["inference.n_rejected"] = s["attrs"]["n_rejected"]
                m["inference.n_clusters"] = s["attrs"]["n_clusters"]

        m["variability.analyze_variability_s"] += t("variability.analyze_variability")
        m["variability.pc_scores_s"] += t("variability.pc_scores")
        m["variability.anova_two_way_calls"] += calls("variability.anova_two_way")

        m["modelsel.compare_models_s"] += t("modelsel.compare_models")
        for s in spans:
            if s["name"] == "modelsel.fit_model":
                m[f"modelsel.fit_model_s.m{s['attrs']['model']}"] += duration(s)

    m["cli.unattributed_s"] = traced_wall - top_level
    evals = m["em.estep_calls"] + m["em.observed_loglik_calls"]
    m["em.density_evals_per_iter"] = evals / iters_total if iters_total else 0.0
    m["em.fits"] = len(fit_keys)
    m["em.fits_distinct"] = len(set(fit_keys))
    kernel_s = sum(m[f"kernels.{k}_s"] for k in KERNELS)
    if m["kernels.bytes"]:
        m["kernels.flops_per_byte"] = m["kernels.flops"] / m["kernels.bytes"]
    if kernel_s > 0.0:
        m["kernels.gflops"] = m["kernels.flops"] / kernel_s / 1e9
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    m["trace.peak_rss_mb"] = traced_peak_rss_mb
    return m
