"""Batch command-line front end.

Subcommands wire the pipeline: simulate -> preprocess -> fit -> infer
-> pcs -> compare, with report running the last four in one pass. Every
command writes deterministic artifacts (CSV and JSON always, PGM/SVG
images as conveniences) into the output directory.

The command line and every config value are checked before a command
reads or writes anything; the two checks that need the bundle
(pcs.n_components, preprocess.highpass_cutoff) run as soon as it is read.

Exit codes: 0 success, 2 usage or configuration error (including a
malformed bundle, fit or inference directory), 3 numerical failure.
Failures print one machine-readable JSON object to stderr, with the
messages of the warnings the command raised in its "warnings" list; a
command that succeeds prints its warnings as Python does.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import typing
import warnings
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import io
from .em import EmConfig, em_fit
from .inference import FdrResult, activation_map
from .linalg import SingularMatrixError
from .modelsel import MODEL_SPECS, ModelComparison, compare_models
from .preprocess import PreprocConfig, preprocess_dataset
from .simulate import SimConfig, simulate_dataset
from .types import (
    ActivationMap,
    Dataset,
    DegenerateDataError,
    FitResult,
    validate_params,
)
from .variability import PcAnalysis, analyze_variability

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """The command line or the run configuration is malformed."""


@dataclass(frozen=True)
class FitConfig:
    """Which candidate model fit and report fit."""

    model: int = 5

    def __post_init__(self) -> None:
        if self.model not in MODEL_SPECS:
            raise ValueError(f"unknown model id {self.model}")


@dataclass(frozen=True)
class InferenceConfig:
    """activation_map's FDR level q, uncorrected screen (None: none) and
    cluster size floor."""

    q: float = 0.05
    screen_alpha: float | None = 1e-3
    min_cluster: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.screen_alpha is not None and not 0.0 < self.screen_alpha < 1.0:
            raise ValueError("screen_alpha must lie in (0, 1)")
        if self.min_cluster < 1:
            raise ValueError("min_cluster must be at least 1")


@dataclass(frozen=True)
class PcsConfig:
    """analyze_variability's component count and effect-curve scale."""

    n_components: int = 3
    effect_scale: float = 10.0

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")


@dataclass(frozen=True)
class CompareConfig:
    """Candidate models, and the BIC sample size (None: every scalar)."""

    models: tuple[int, ...] = (1, 2, 3, 4, 5)
    n_obs: int | None = None

    def __post_init__(self) -> None:
        bad = [m for m in self.models if m not in MODEL_SPECS]
        if bad or not self.models:
            raise ValueError(f"unknown model id(s) {bad}" if bad else "no models")
        if self.n_obs is not None and self.n_obs < 1:
            raise ValueError("n_obs must be at least 1")


@dataclass(frozen=True)
class RunConfig:
    """The run configuration: simulate's seed and one object per section."""

    seed: int = 0
    simulate: SimConfig = SimConfig()
    preprocess: PreprocConfig = PreprocConfig()
    em: EmConfig = EmConfig()
    fit: FitConfig = FitConfig()
    inference: InferenceConfig = InferenceConfig()
    pcs: PcsConfig = PcsConfig()
    compare: CompareConfig = CompareConfig()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _coerce(value, hint):
    """A JSON value as the type its config field declares, or TypeError.

    Only a bool field takes true or false, a float field takes any finite
    number as a float, and a tuple field takes a JSON list.
    """
    args = typing.get_args(hint)
    if isinstance(value, bool) and hint is not bool:
        pass  # json's true and false are no numbers here
    elif hint is float and isinstance(value, (int, float)):
        if abs(value) <= sys.float_info.max:
            return float(value)
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            if args[-1] is Ellipsis:
                args = args[:1] * len(value)
            if len(value) == len(args):
                return tuple(map(_coerce, value, args))
    elif args:  # a union such as float | None
        for arg in args:
            try:
                return _coerce(value, arg)
            except TypeError:
                pass
    elif isinstance(value, hint):
        return value
    raise TypeError(f"{value!r} is not {hint}")


def _build_dataclass(cls, obj: dict, name: str):
    """cls(**obj), every key known and every value of its field's type."""
    declared = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(obj) - set(declared))
    if unknown:
        raise ConfigError(
            f"{name}: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(declared))}"
        )
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in obj.items():
        try:
            values[key] = _coerce(value, hints[key])
        except TypeError:
            raise ConfigError(
                f"{name}.{key}: expected {declared[key]}, got {value!r}"
            ) from None
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name}: {e}") from None


def load_config(path: str | None, seed: int | None = None) -> RunConfig:
    """The run configuration, every value type- and range-checked.

    ``seed``, when given, replaces the file's seed.
    """
    config = {}
    if path is not None:
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
    if seed is not None:
        config["seed"] = seed
    for name, cls in typing.get_type_hints(RunConfig).items():
        if name in config and is_dataclass(cls):
            if not isinstance(config[name], dict):
                raise ConfigError(f"{name}: must be an object")
            config[name] = _build_dataclass(cls, config[name], name)
    return _build_dataclass(RunConfig, config, "config")


def _check_pcs(config: RunConfig, dataset: Dataset) -> None:
    """The pcs check that needs the bundle, run right after it is read."""
    if config.pcs.n_components > dataset.dims.n_times:
        raise ConfigError(
            f"pcs: n_components={config.pcs.n_components} exceeds the "
            f"bundle's n_times={dataset.dims.n_times}"
        )


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------- artifacts


def _write_fit_artifacts(out: str, fit: FitResult) -> None:
    io.write_params_json(fit.params, os.path.join(out, "params.json"))
    io.write_csv(
        os.path.join(out, "resp.csv"),
        ["voxel", "resp", "amplitude"],
        columns=[np.arange(fit.resp.size), fit.resp, fit.params.amplitude],
    )
    io.write_csv(
        os.path.join(out, "loglik.csv"),
        ["iteration", "loglik"],
        columns=[np.arange(fit.loglik_trace.size), fit.loglik_trace],
    )
    io.write_json(
        {
            "iterations": fit.iterations,
            "converged": fit.converged,
            "loglik": float(fit.loglik_trace[-1]),
            "active_prob": float(fit.params.active_prob),
        },
        os.path.join(out, "fit.json"),
    )


def _read_column_csv(path: str, n_columns: int, n_header: int = 1) -> np.ndarray:
    """A numeric CSV as a (rows, n_columns) float array; blank lines skipped."""
    name = os.path.basename(path)
    try:
        table = np.loadtxt(
            path, delimiter=",", skiprows=n_header, ndmin=2, comments=None
        )
    except ValueError as e:
        raise io.BundleFormatError(f"{name}: {e}") from None
    if table.size and table.shape[1] != n_columns:
        raise io.BundleFormatError(
            f"{name}: expected {n_columns} columns, found {table.shape[1]}"
        )
    return table


def _read_meta(path: str, fields: dict) -> dict:
    """The named fields of a JSON object, each passed through its type."""
    name = os.path.basename(path)
    try:
        with open(path, "rb") as f:
            meta = json.load(f)
        return {key: cast(meta[key]) for key, cast in fields.items()}
    except (ValueError, KeyError, TypeError) as e:
        raise io.BundleFormatError(f"{name}: malformed: {e!r}") from None


def _load_fit(fit_dir: str, dataset: Dataset) -> FitResult:
    params = io.read_params_json(os.path.join(fit_dir, "params.json"))
    try:
        validate_params(params, dataset.dims, trace_convention=False)
    except ValueError as e:
        raise io.BundleFormatError(f"params.json: {e}") from None
    table = _read_column_csv(os.path.join(fit_dir, "resp.csv"), 3)
    if table.shape[0] != dataset.dims.n_voxels:
        raise io.BundleFormatError(
            f"resp.csv: expected {dataset.dims.n_voxels} rows, "
            f"found {table.shape[0]}"
        )
    trace = _read_column_csv(os.path.join(fit_dir, "loglik.csv"), 2)[:, 1]
    meta = _read_meta(
        os.path.join(fit_dir, "fit.json"), {"iterations": int, "converged": bool}
    )
    return FitResult(params=params, resp=table[:, 1], loglik_trace=trace, **meta)


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
        columns=[
            np.arange(amap.t_stat.size),
            *dataset.coords.T,
            amap.t_stat,
            amap.pvals,
            amap.reject.astype(np.int64),
            amap.cluster,
        ],
    )
    io.write_json(
        {
            "df": amap.df,
            "threshold": float(fdr.threshold),
            "m0_hat": int(fdr.m0_hat),
            "n_rejected": int(fdr.n_rejected),
            "n_clusters": int(amap.cluster.max()) if amap.cluster.size else 0,
        },
        os.path.join(out, "fdr.json"),
    )
    tvol, mask = _volume_from_voxels(dataset, amap.t_stat)
    io.write_map_pgm(tvol, os.path.join(out, "tmap.pgm"), mask=mask)
    avol, _ = _volume_from_voxels(
        dataset, np.where(amap.reject, amap.t_stat, 0.0)
    )
    io.write_map_pgm(avol, os.path.join(out, "activemap.pgm"), mask=mask)


def _load_amap(infer_dir: str, dataset: Dataset) -> ActivationMap:
    table = _read_column_csv(os.path.join(infer_dir, "tstats.csv"), 8)
    if table.shape[0] != dataset.dims.n_voxels:
        raise io.BundleFormatError(
            f"tstats.csv: expected {dataset.dims.n_voxels} rows, "
            f"found {table.shape[0]}"
        )
    meta = _read_meta(os.path.join(infer_dir, "fdr.json"), {"df": int})
    return ActivationMap(
        t_stat=table[:, 4],
        pvals=table[:, 5],
        reject=table[:, 6].astype(bool),
        cluster=table[:, 7].astype(np.int64),
        **meta,
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
        columns=[
            np.arange(1, pa.within_pca.eigenvalues.size + 1),
            pa.within_pca.eigenvalues,
            pa.within_pca.variance_pct,
        ],
    )
    # one row per (voxel, epoch), in C order of the scores array
    vox, epoch = np.indices(pa.scores.shape[:2]).reshape(2, -1)
    io.write_csv(
        os.path.join(out, "pc_scores.csv"),
        ["voxel", "epoch"] + [f"pc{k + 1}" for k in range(n_pc)],
        columns=[
            pa.active_idx[vox], epoch + 1, *pa.scores.reshape(-1, n_pc).T
        ],
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
    cluster, epoch, sample = np.indices(pa.curves.shape).reshape(3, -1)
    io.write_csv(
        os.path.join(out, "curves.csv"),
        ["cluster", "epoch", "sample", "value"],
        columns=[
            pa.cluster_levels[cluster], epoch + 1, sample + 1, pa.curves.ravel()
        ],
    )
    comp, sign, sample = np.indices(pa.effect_curves.shape).reshape(3, -1)
    io.write_csv(
        os.path.join(out, "effect_curves.csv"),
        ["component", "direction", "sample", "value"],
        columns=[
            comp + 1,
            np.array(["plus", "minus"])[sign],
            sample + 1,
            pa.effect_curves.ravel(),
        ],
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
    io.write_json(
        {"n_obs": cmp.n_obs, "best_aic": cmp.best_aic, "best_bic": cmp.best_bic},
        os.path.join(out, "comparison.json"),
    )


# ----------------------------------------------------------------- commands


def cmd_simulate(args, config: RunConfig) -> int:
    dataset, truth = simulate_dataset(config.simulate, seed=config.seed)
    out = _ensure_out(args)
    bundle = os.path.join(out, "dataset")
    io.write_dataset(dataset, bundle, truth=truth)
    print(bundle)
    return 0


def cmd_preprocess(args, config: RunConfig) -> int:
    dataset = io.read_dataset(args.bundle)
    cutoff = config.preprocess.highpass_cutoff
    if cutoff is not None and cutoff <= 2.0 * dataset.tr:
        raise ConfigError(
            f"preprocess: highpass_cutoff={cutoff} must exceed twice the "
            f"bundle's tr={dataset.tr}"
        )
    # preprocessing leaves the generator's ground truth as it was
    truth = io.read_truth_bytes(args.bundle)
    out = _ensure_out(args)
    processed = preprocess_dataset(dataset, config.preprocess)
    bundle = os.path.join(out, "dataset")
    io.write_dataset(processed, bundle, truth=truth)
    print(bundle)
    return 0


def _run_fit(args, config: RunConfig, dataset: Dataset, out: str) -> FitResult:
    fit = em_fit(
        dataset,
        config.em,
        MODEL_SPECS[config.fit.model].structure,
        diagnostics=sys.stderr if args.verbose else None,
    )
    _write_fit_artifacts(out, fit)
    return fit


def cmd_fit(args, config: RunConfig) -> int:
    dataset = io.read_dataset(args.bundle)
    out = _ensure_out(args)
    fit = _run_fit(args, config, dataset, out)
    print(
        f"loglik={fit.loglik_trace[-1]:.6f} iterations={fit.iterations} "
        f"converged={fit.converged} active_prob={fit.params.active_prob:.4f}"
    )
    return 0


def _run_infer(
    config: RunConfig, dataset: Dataset, fit: FitResult, out: str
) -> tuple[ActivationMap, FdrResult]:
    amap, fdr = activation_map(dataset, fit, **asdict(config.inference))
    _write_infer_artifacts(out, dataset, amap, fdr)
    return amap, fdr


def cmd_infer(args, config: RunConfig) -> int:
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
    config: RunConfig, dataset: Dataset, fit: FitResult, amap: ActivationMap,
    out: str,
) -> PcAnalysis:
    pa = analyze_variability(dataset, fit, amap, **asdict(config.pcs))
    _write_pcs_artifacts(out, dataset, pa)
    return pa


def cmd_pcs(args, config: RunConfig) -> int:
    dataset = io.read_dataset(args.bundle)
    _check_pcs(config, dataset)
    fit = _load_fit(args.fit_dir, dataset)
    amap = _load_amap(args.infer_dir, dataset)
    out = _ensure_out(args)
    pa = _run_pcs(config, dataset, fit, amap, out)
    pct = ", ".join(f"{p:.1f}%" for p in pa.within_pca.variance_pct[:3])
    print(f"active={pa.active_idx.size} top_components={pct}")
    return 0


def _run_compare(
    config: RunConfig, dataset: Dataset, out: str, fits: dict | None = None
) -> ModelComparison:
    cmp = compare_models(
        dataset,
        config.em,
        model_ids=config.compare.models,
        n_obs=config.compare.n_obs,
        fits=fits,
    )
    _write_compare_artifacts(out, cmp)
    return cmp


def cmd_compare(args, config: RunConfig) -> int:
    dataset = io.read_dataset(args.bundle)
    out = _ensure_out(args)
    cmp = _run_compare(config, dataset, out)
    print(f"best_aic=model{cmp.best_aic} best_bic=model{cmp.best_bic}")
    return 0


def cmd_report(args, config: RunConfig) -> int:
    dataset = io.read_dataset(args.bundle)
    _check_pcs(config, dataset)
    out = _ensure_out(args)
    fit = _run_fit(args, config, dataset, out)
    amap, fdr = _run_infer(config, dataset, fit, out)
    pa = None
    if np.any(amap.cluster > 0):
        pa = _run_pcs(config, dataset, fit, amap, out)
    # report's own fit is the comparison's fit of that model
    cmp = _run_compare(config, dataset, out, {config.fit.model: fit})
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
    io.write_json(manifest, os.path.join(out, "report.json"))
    print(f"report written to {out}")
    return 0


# --------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a usage error ends like every other failure: one JSON line, exit 2
        sys.exit(_fail(2, ConfigError(f"{self.prog}: {message}"), []))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trialmix",
        description="Mixture model fitting for epoch-structured voxel series.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="run config JSON")
    common.add_argument("--out", default="trialmix_out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic dataset bundle")
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed; overrides the config's")
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("preprocess", parents=[common],
                       help="smooth, align, detrend, center a bundle")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_preprocess)
    p = sub.add_parser("fit", parents=[common], help="fit the mixture model")
    p.add_argument("bundle")
    p.add_argument("--verbose", action="store_true",
                   help="one JSON line per EM iteration on stderr")
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
    p.add_argument("--verbose", action="store_true",
                   help="one JSON line per EM iteration on stderr")
    p.set_defaults(func=cmd_report)
    return parser


def _fail(code: int, error: Exception, caught: list) -> int:
    record = {"code": code, "type": type(error).__name__, "message": str(error)}
    if caught:
        record["warnings"] = [str(w.message) for w in caught]
    print(json.dumps({"error": record}), file=sys.stderr)
    return code


def _show_warnings(caught: list) -> None:
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # warnings are held back until the outcome is known: on failure they
    # go inside the one JSON error object instead of ahead of it
    caught: list = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            config = load_config(args.config, getattr(args, "seed", None))
            code = args.func(args, config)
    except (ConfigError, io.BundleFormatError, FileNotFoundError) as e:
        return _fail(2, e, caught)
    except (
        DegenerateDataError,
        SingularMatrixError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as e:
        return _fail(3, e, caught)
    except BaseException:
        _show_warnings(caught)
        raise
    _show_warnings(caught)
    return code


if __name__ == "__main__":
    sys.exit(main())
