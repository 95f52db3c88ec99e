"""Batch command-line front end.

Subcommands wire the pipeline: simulate -> preprocess -> fit -> infer
-> pcs -> compare, with report running the last four in one pass. Every
command writes deterministic artifacts (CSV and JSON always, PGM/SVG
images as conveniences) into the output directory.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure. Failures print one machine-readable JSON object to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io, kernels
from .em import EmConfig, em_fit
from .inference import FdrResult, activation_map
from .linalg import SingularMatrixError
from .modelsel import MODEL_SPECS, ModelComparison, compare_models, fit_model
from .preprocess import PreprocConfig, preprocess_dataset
from .simulate import SimConfig, simulate_dataset
from .types import ActivationMap, Dataset, DegenerateDataError, FitResult
from .variability import PcAnalysis, analyze_variability

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """The run configuration is malformed."""


SECTIONS = (
    "seed",
    "out",
    "threads",
    "simulate",
    "preprocess",
    "em",
    "fit",
    "inference",
    "pcs",
    "compare",
)
INFER_KEYS = {"q": 0.05, "screen_alpha": 1e-3, "min_cluster": 5,
              "cluster_method": "connected"}
PCS_KEYS = {"n_components": 3, "effect_scale": 10.0}
COMPARE_KEYS = {"models": [1, 2, 3, 4, 5], "n_obs": None}
FIT_KEYS = {"model": 5}


def _check_keys(obj: dict, allowed, name: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{name}: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _build_dataclass(cls, obj: dict, name: str):
    _check_keys(obj, {f.name for f in dataclasses.fields(cls)}, name)
    try:
        return cls(**obj)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name}: {e}") from None


def _section(config: dict, name: str, defaults: dict) -> dict:
    obj = config.get(name, {})
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: must be an object")
    _check_keys(obj, defaults, name)
    merged = dict(defaults)
    merged.update(obj)
    return merged


def load_config(path: str | None) -> dict:
    """Parse and key-check the run configuration JSON."""
    if path is None:
        config = {}
    else:
        try:
            with open(path, "rb") as f:
                config = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"{path}: invalid JSON at byte {e.pos}: {e.msg}"
            ) from None
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: top level must be an object")
    _check_keys(config, SECTIONS, "config")
    # section key checks run up front so bad configs fail fast
    _section(config, "inference", INFER_KEYS)
    _section(config, "pcs", PCS_KEYS)
    _section(config, "compare", COMPARE_KEYS)
    _section(config, "fit", FIT_KEYS)
    for name, cls in (
        ("simulate", SimConfig),
        ("preprocess", PreprocConfig),
        ("em", EmConfig),
    ):
        obj = config.get(name, {})
        if not isinstance(obj, dict):
            raise ConfigError(f"{name}: must be an object")
        _build_dataclass(cls, obj, name)
    return config


def _thread_count(value) -> int:
    """The --threads / "threads" setting as a positive integer."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        n = 0
    if n < 1:
        raise ConfigError(f"threads: must be a positive integer, got {value!r}")
    return n


def _em_config(config: dict) -> EmConfig:
    return _build_dataclass(EmConfig, config.get("em", {}), "em")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------- artifacts


def _write_fit_artifacts(out: str, fit: FitResult) -> None:
    io.write_params_json(fit.params, os.path.join(out, "params.json"))
    io.write_csv(
        os.path.join(out, "resp.csv"),
        ["voxel", "resp", "amplitude"],
        (
            (v, float(fit.resp[v]), float(fit.params.amplitude[v]))
            for v in range(fit.resp.size)
        ),
    )
    io.write_csv(
        os.path.join(out, "loglik.csv"),
        ["iteration", "loglik"],
        ((i, float(ll)) for i, ll in enumerate(fit.loglik_trace)),
    )
    with open(os.path.join(out, "fit.json"), "w", newline="\n") as f:
        json.dump(
            {
                "iterations": fit.iterations,
                "converged": fit.converged,
                "loglik": float(fit.loglik_trace[-1]),
                "active_prob": float(fit.params.active_prob),
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")


def _read_column_csv(path: str, n_header: int = 1) -> np.ndarray:
    with open(path, "r", newline="") as f:
        lines = [ln for ln in f.read().split("\n") if ln]
    rows = [ln.split(",") for ln in lines[n_header:]]
    return np.asarray([[float(c) for c in row] for row in rows])


def _load_fit(fit_dir: str, dataset: Dataset) -> FitResult:
    params = io.read_params_json(os.path.join(fit_dir, "params.json"))
    table = _read_column_csv(os.path.join(fit_dir, "resp.csv"))
    if table.shape[0] != dataset.dims.n_voxels:
        raise io.BundleFormatError(
            f"resp.csv: expected {dataset.dims.n_voxels} rows, "
            f"found {table.shape[0]}"
        )
    trace = _read_column_csv(os.path.join(fit_dir, "loglik.csv"))[:, 1]
    with open(os.path.join(fit_dir, "fit.json"), "rb") as f:
        meta = json.load(f)
    return FitResult(
        params=params,
        resp=table[:, 1],
        loglik_trace=trace,
        iterations=int(meta["iterations"]),
        converged=bool(meta["converged"]),
    )


def _volume_from_voxels(dataset: Dataset, values: np.ndarray):
    coords = dataset.coords
    shape = dataset.mask_shape
    if shape is None:
        shape = tuple(int(m) + 1 for m in coords.max(axis=0))
    vol = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    vol[coords[:, 0], coords[:, 1], coords[:, 2]] = values
    mask[coords[:, 0], coords[:, 1], coords[:, 2]] = True
    return vol, mask


def _write_infer_artifacts(
    out: str, dataset: Dataset, amap: ActivationMap, fdr: FdrResult
) -> None:
    io.write_csv(
        os.path.join(out, "tstats.csv"),
        ["voxel", "x", "y", "z", "t", "p", "reject", "cluster"],
        (
            (
                v,
                int(dataset.coords[v, 0]),
                int(dataset.coords[v, 1]),
                int(dataset.coords[v, 2]),
                float(amap.t_stat[v]),
                float(amap.pvals[v]),
                int(amap.reject[v]),
                int(amap.cluster[v]),
            )
            for v in range(amap.t_stat.size)
        ),
    )
    with open(os.path.join(out, "fdr.json"), "w", newline="\n") as f:
        json.dump(
            {
                "df": amap.df,
                "threshold": float(fdr.threshold),
                "m0_hat": int(fdr.m0_hat),
                "n_rejected": int(fdr.n_rejected),
                "n_clusters": int(amap.cluster.max()) if amap.cluster.size else 0,
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    tvol, mask = _volume_from_voxels(dataset, amap.t_stat)
    io.write_map_pgm(tvol, os.path.join(out, "tmap.pgm"), mask=mask)
    avol, _ = _volume_from_voxels(
        dataset, np.where(amap.reject, amap.t_stat, 0.0)
    )
    io.write_map_pgm(avol, os.path.join(out, "activemap.pgm"), mask=mask)


def _load_amap(infer_dir: str) -> ActivationMap:
    table = _read_column_csv(os.path.join(infer_dir, "tstats.csv"))
    with open(os.path.join(infer_dir, "fdr.json"), "rb") as f:
        meta = json.load(f)
    return ActivationMap(
        t_stat=table[:, 4],
        pvals=table[:, 5],
        reject=table[:, 6].astype(bool),
        cluster=table[:, 7].astype(np.int64),
        df=int(meta["df"]),
    )


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg_curves(
    path: str,
    x: np.ndarray,
    curves: np.ndarray,
    labels: list[str],
    title: str = "",
    ylabel: str = "",
) -> None:
    """Simple line chart: one polyline per row of curves."""
    x = np.asarray(x, dtype=np.float64)
    curves = np.atleast_2d(np.asarray(curves, dtype=np.float64))
    w, h, m = 720, 440, 60
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(curves.min()), float(curves.max())
    if y1 <= y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v: float) -> float:
        return m + (v - x0) / (x1 - x0) * (w - 2 * m)

    def sy(v: float) -> float:
        return h - m - (v - y0) / (y1 - y0) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" '
        f'stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for val, anchor, xx, yy in (
        (x0, "middle", sx(x0), h - m + 18),
        (x1, "middle", sx(x1), h - m + 18),
        (y0 + pad, "end", m - 6, sy(y0 + pad) + 4),
        (y1 - pad, "end", m - 6, sy(y1 - pad) + 4),
    ):
        parts.append(
            f'<text x="{xx:.1f}" y="{yy:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{val:.4g}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{h / 2:.1f}" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 14 {h / 2:.1f})" '
            f'text-anchor="middle">{ylabel}</text>'
        )
    for i, row in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, row))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        if i < len(labels):
            parts.append(
                f'<text x="{w - m + 4}" y="{sy(row[-1]) + 4:.1f}" '
                f'font-family="sans-serif" font-size="11" '
                f'fill="{color}">{labels[i]}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(parts) + "\n")


def _write_pcs_artifacts(out: str, dataset: Dataset, pa: PcAnalysis) -> None:
    d = dataset.dims
    n_pc = pa.scores.shape[2]
    io.write_csv(
        os.path.join(out, "pc_spectrum.csv"),
        ["component", "eigenvalue", "variance_pct"],
        (
            (k + 1, float(pa.within_pca.eigenvalues[k]),
             float(pa.within_pca.variance_pct[k]))
            for k in range(pa.within_pca.eigenvalues.size)
        ),
    )
    io.write_csv(
        os.path.join(out, "pc_scores.csv"),
        ["voxel", "epoch"] + [f"pc{k + 1}" for k in range(n_pc)],
        (
            (int(pa.active_idx[a]), j + 1,
             *(float(pa.scores[a, j, k]) for k in range(n_pc)))
            for a in range(pa.active_idx.size)
            for j in range(d.n_epochs)
        ),
    )
    anova_rows = []
    for k, tab in enumerate(pa.tables):
        anova_rows.append((k + 1, "grand_mean", 0, float(tab.grand_mean), 0.0))
        for lvl, eff, se in zip(
            tab.epoch_levels, tab.epoch_effects, tab.epoch_se
        ):
            anova_rows.append((k + 1, "epoch", int(lvl), float(eff), float(se)))
        for lvl, eff, se in zip(
            tab.cluster_levels, tab.cluster_effects, tab.cluster_se
        ):
            anova_rows.append(
                (k + 1, "cluster", int(lvl), float(eff), float(se))
            )
    io.write_csv(
        os.path.join(out, "anova.csv"),
        ["component", "factor", "level", "effect", "se"],
        anova_rows,
    )
    io.write_csv(
        os.path.join(out, "curves.csv"),
        ["cluster", "epoch", "sample", "value"],
        (
            (int(pa.cluster_levels[c]), j + 1, s + 1, float(pa.curves[c, j, s]))
            for c in range(pa.curves.shape[0])
            for j in range(d.n_epochs)
            for s in range(d.n_times)
        ),
    )
    io.write_csv(
        os.path.join(out, "effect_curves.csv"),
        ["component", "direction", "sample", "value"],
        (
            (k + 1, sign, s + 1, float(pa.effect_curves[k, i, s]))
            for k in range(pa.effect_curves.shape[0])
            for i, sign in enumerate(("plus", "minus"))
            for s in range(d.n_times)
        ),
    )
    samples = np.arange(1, d.n_times + 1, dtype=np.float64)
    for c in range(pa.curves.shape[0]):
        write_svg_curves(
            os.path.join(out, f"curves_cluster{int(pa.cluster_levels[c])}.svg"),
            samples,
            pa.curves[c],
            [f"epoch {j + 1}" for j in range(d.n_epochs)],
            title=f"Fitted responses, cluster {int(pa.cluster_levels[c])}",
            ylabel="response",
        )
    write_svg_curves(
        os.path.join(out, "effect_curves.svg"),
        samples,
        pa.effect_curves.reshape(-1, d.n_times),
        [
            f"pc{k + 1} {sign}"
            for k in range(pa.effect_curves.shape[0])
            for sign in ("+", "-")
        ],
        title="Component effect on the mean response",
        ylabel="response",
    )


def _write_compare_artifacts(out: str, cmp: ModelComparison) -> None:
    io.write_csv(
        os.path.join(out, "comparison.csv"),
        ["model", "description", "n_params", "loglik", "aic", "bic"],
        (
            (r.model_id, r.description, r.n_params, float(r.loglik),
             float(r.aic), float(r.bic))
            for r in cmp.rows
        ),
    )
    with open(os.path.join(out, "comparison.json"), "w", newline="\n") as f:
        json.dump(
            {
                "n_obs": cmp.n_obs,
                "best_aic": cmp.best_aic,
                "best_bic": cmp.best_bic,
            },
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")


# ----------------------------------------------------------------- commands


def cmd_simulate(args, config: dict) -> int:
    sim = _build_dataclass(SimConfig, config.get("simulate", {}), "simulate")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    dataset, truth = simulate_dataset(sim, seed=int(seed))
    out = _ensure_out(args)
    bundle = os.path.join(out, "dataset")
    io.write_dataset(dataset, bundle, truth=truth)
    print(bundle)
    return 0


def cmd_preprocess(args, config: dict) -> int:
    cfg = _build_dataclass(
        PreprocConfig, config.get("preprocess", {}), "preprocess"
    )
    dataset = io.read_dataset(args.bundle)
    truth = io.read_truth(args.bundle)
    out = _ensure_out(args)
    processed = preprocess_dataset(dataset, cfg)
    bundle = os.path.join(out, "dataset")
    io.write_dataset(processed, bundle, truth=truth)
    print(bundle)
    return 0


def _run_fit(args, config: dict, dataset: Dataset, out: str) -> FitResult:
    model_id = int(_section(config, "fit", FIT_KEYS)["model"])
    diag = sys.stderr if getattr(args, "verbose", False) else None
    if model_id == 5:
        fit = em_fit(dataset, _em_config(config), diagnostics=diag)
    else:
        fit = fit_model(dataset, model_id, _em_config(config))
    _write_fit_artifacts(out, fit)
    return fit


def cmd_fit(args, config: dict) -> int:
    dataset = io.read_dataset(args.bundle)
    out = _ensure_out(args)
    fit = _run_fit(args, config, dataset, out)
    print(
        f"loglik={fit.loglik_trace[-1]:.6f} iterations={fit.iterations} "
        f"converged={fit.converged} active_prob={fit.params.active_prob:.4f}"
    )
    return 0


def _run_infer(
    config: dict, dataset: Dataset, fit: FitResult, out: str
) -> tuple[ActivationMap, FdrResult]:
    opts = _section(config, "inference", INFER_KEYS)
    amap, fdr = activation_map(
        dataset,
        fit,
        q=float(opts["q"]),
        screen_alpha=(
            None if opts["screen_alpha"] is None else float(opts["screen_alpha"])
        ),
        min_cluster=int(opts["min_cluster"]),
        cluster_method=str(opts["cluster_method"]),
    )
    _write_infer_artifacts(out, dataset, amap, fdr)
    return amap, fdr


def cmd_infer(args, config: dict) -> int:
    dataset = io.read_dataset(args.bundle)
    fit = _load_fit(args.fit_dir, dataset)
    out = _ensure_out(args)
    amap, fdr = _run_infer(config, dataset, fit, out)
    print(
        f"rejected={fdr.n_rejected} clusters={int(amap.cluster.max())} "
        f"threshold={fdr.threshold:.6g}"
    )
    return 0


def _run_pcs(
    config: dict, dataset: Dataset, fit: FitResult, amap: ActivationMap,
    out: str,
) -> PcAnalysis:
    opts = _section(config, "pcs", PCS_KEYS)
    pa = analyze_variability(
        dataset,
        fit,
        amap,
        n_components=int(opts["n_components"]),
        effect_scale=float(opts["effect_scale"]),
    )
    _write_pcs_artifacts(out, dataset, pa)
    return pa


def cmd_pcs(args, config: dict) -> int:
    dataset = io.read_dataset(args.bundle)
    fit = _load_fit(args.fit_dir, dataset)
    amap = _load_amap(args.infer_dir)
    out = _ensure_out(args)
    pa = _run_pcs(config, dataset, fit, amap, out)
    pct = ", ".join(f"{p:.1f}%" for p in pa.within_pca.variance_pct[:3])
    print(f"active={pa.active_idx.size} top_components={pct}")
    return 0


def _run_compare(
    config: dict, dataset: Dataset, out: str, fits: dict | None = None
) -> ModelComparison:
    opts = _section(config, "compare", COMPARE_KEYS)
    model_ids = tuple(int(m) for m in opts["models"])
    bad = [m for m in model_ids if m not in MODEL_SPECS]
    if bad:
        raise ConfigError(f"compare: unknown model id(s) {bad}")
    cmp = compare_models(
        dataset,
        _em_config(config),
        model_ids=model_ids,
        n_obs=None if opts["n_obs"] is None else int(opts["n_obs"]),
        fits=fits,
    )
    _write_compare_artifacts(out, cmp)
    return cmp


def cmd_compare(args, config: dict) -> int:
    dataset = io.read_dataset(args.bundle)
    out = _ensure_out(args)
    cmp = _run_compare(config, dataset, out)
    print(f"best_aic=model{cmp.best_aic} best_bic=model{cmp.best_bic}")
    return 0


def cmd_report(args, config: dict) -> int:
    dataset = io.read_dataset(args.bundle)
    out = _ensure_out(args)
    fit = _run_fit(args, config, dataset, out)
    amap, fdr = _run_infer(config, dataset, fit, out)
    pa = None
    if np.any(amap.cluster > 0):
        pa = _run_pcs(config, dataset, fit, amap, out)
    # report's own fit is the comparison's fit of that model
    model_id = int(_section(config, "fit", FIT_KEYS)["model"])
    cmp = _run_compare(config, dataset, out, {model_id: fit})
    manifest = {
        "loglik": float(fit.loglik_trace[-1]),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "active_prob": float(fit.params.active_prob),
        "n_rejected": int(fdr.n_rejected),
        "n_clusters": int(amap.cluster.max()) if amap.cluster.size else 0,
        "pcs_run": pa is not None,
        "best_aic": cmp.best_aic,
        "best_bic": cmp.best_bic,
    }
    with open(os.path.join(out, "report.json"), "w", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"report written to {out}")
    return 0


# --------------------------------------------------------------- entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialmix",
        description="Mixture model fitting for epoch-structured voxel series.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="run config JSON")
    common.add_argument("--out", default="trialmix_out", help="output directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic dataset bundle")
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("preprocess", parents=[common],
                       help="smooth, align, detrend, center a bundle")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_preprocess)
    p = sub.add_parser("fit", parents=[common], help="fit the mixture model")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_fit)
    p = sub.add_parser("infer", parents=[common],
                       help="activation tests, FDR, clustering")
    p.add_argument("bundle")
    p.add_argument("fit_dir")
    p.set_defaults(func=cmd_infer)
    p = sub.add_parser("pcs", parents=[common],
                       help="single-trial component analysis")
    p.add_argument("bundle")
    p.add_argument("fit_dir")
    p.add_argument("infer_dir")
    p.set_defaults(func=cmd_pcs)
    p = sub.add_parser("compare", parents=[common],
                       help="fit candidate models and rank by AIC/BIC")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("report", parents=[common],
                       help="fit, infer, pcs, and compare in one pass")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_report)
    return parser


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": {"code": code, "type": kind,
                                "message": message}}), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        threads = config.get("threads") if args.threads is None else args.threads
        if threads is not None:
            kernels.set_num_threads(_thread_count(threads))
        return args.func(args, config)
    except (ConfigError, io.BundleFormatError, FileNotFoundError) as e:
        return _fail(2, type(e).__name__, str(e))
    except (
        DegenerateDataError,
        SingularMatrixError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as e:
        return _fail(3, type(e).__name__, str(e))


if __name__ == "__main__":
    sys.exit(main())
