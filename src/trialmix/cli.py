"""Batch command-line front end.

Subcommands wire the pipeline: simulate -> preprocess -> fit -> infer
-> pcs -> compare, with report running the last four in one pass. Every
command writes deterministic artifacts (CSV and JSON always, PGM/SVG
images as conveniences) through io, which owns their format and reads
back the fit and inference directories. Each stage's module declares its
config section, which the stage takes whole; this module keeps RunConfig,
which composes the sections, the parser and the commands.

The command line and every config value are checked before a command
reads or writes anything, each value by the io checker that reads every
bundle file; the checks that need the bundle (pcs.n_components,
preprocess.highpass_cutoff and smooth_fwhm) run as soon as it is read.

main alone owns the output directory: a command stages its files in an
io.OutputDir and returns its summary line, and main prints that line
once the files are in place. Output is all or nothing: a failing command
leaves --out as it was (and removes it if the run made it). A command
owns the files of the stages it runs (STAGES), and a successful one
removes those it did not write, so --out holds one run's files and the
files the command does not own.

report and compare run two lanes. After reading the bundle each forks
one worker process, which fits the compare.models other than fit.model
in model order, up to the first failure. Meanwhile the parent fits
fit.model (compare only when it is one of compare.models), and report
also infers and runs pcs. Then the parent takes the worker's fits,
issues the warnings they raised, in model order, and raises the
worker's failure, if any, so the warnings and error are those of
running the parent's lane, then the other models, one after another. A
failure in the parent's lane kills the worker and drops its fits and
warnings; a worker that dies ends the run in exit 3.

Exit codes: 0 success, 2 usage or configuration error (including a
malformed bundle, fit or inference directory, an --out that cannot be
a directory, or one that holds a directory where the run writes a
file), 3 numerical failure. Failures print one
machine-readable JSON object to stderr, with the messages of the
warnings the command raised in its "warnings" list; a command that
succeeds prints its warnings as Python does.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import io
from .em import EmConfig
from .inference import FdrResult, InferenceConfig, activation_map
from .kernels import _fork, _reap, _warn_again, cpus
from .modelsel import (CompareConfig, FitConfig, ModelComparison,
                       compare_models, fit_model)
from .preprocess import PreprocConfig, preprocess_dataset
from .simulate import SimConfig, simulate_dataset
from .types import ActivationMap, Dataset, DegenerateDataError, FitResult
from .variability import PcAnalysis, PcsConfig, analyze_variability

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """The command line or the run configuration is malformed."""


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


def load_config(path: str | None, seed: int | None = None) -> RunConfig:
    """The run configuration, every value type- and range-checked.

    ``seed``, when given, replaces the file's seed.
    """
    config = {} if path is None else io._load_json(path, path, ConfigError)
    if seed is not None:
        config["seed"] = seed
    return io._check_object(config, RunConfig, "config", ConfigError)


def _check_pcs(config: RunConfig, dataset: Dataset) -> None:
    """The pcs check that needs the bundle, run right after it is read."""
    if config.pcs.n_components > dataset.dims.n_times:
        raise ConfigError(
            f"pcs: n_components={config.pcs.n_components} exceeds the "
            f"bundle's n_times={dataset.dims.n_times}"
        )


# ----------------------------------------------------------------- commands

# the stages each command runs, whose files (io.STAGE_FILES) it owns in
# --out: report owns the pcs files also when it skips pcs
STAGES = {"simulate": ("dataset",), "preprocess": ("dataset",),
          "fit": ("fit",), "infer": ("infer",), "pcs": ("pcs",),
          "compare": ("compare",),
          "report": ("fit", "infer", "pcs", "compare", "report")}


def cmd_simulate(args, config: RunConfig, out: io.OutputDir) -> str:
    try:
        dataset, truth = simulate_dataset(config.simulate, seed=config.seed)
    except ValueError as e:  # values in range whose draws overflow
        raise ConfigError(f"simulate: {e}") from None
    io.write_dataset(dataset, out.path("dataset"), truth=truth)
    return os.path.join(out.root, "dataset")


def cmd_preprocess(args, config: RunConfig, out: io.OutputDir) -> str:
    dataset = io.read_dataset(args.bundle)
    cutoff = config.preprocess.highpass_cutoff
    if cutoff is not None and cutoff <= 2.0 * dataset.tr:
        raise ConfigError(
            f"preprocess: highpass_cutoff={cutoff} must exceed twice the "
            f"bundle's tr={dataset.tr}"
        )
    if config.preprocess.smooth_fwhm > 0.0 and dataset.mask_shape is None:
        raise ConfigError(
            "preprocess: smooth_fwhm > 0 needs a bundle with mask_shape"
        )
    # preprocessing leaves the generator's ground truth as it was
    truth = io.read_truth_bytes(args.bundle)
    processed = preprocess_dataset(dataset, config.preprocess)
    io.write_dataset(processed, out.path("dataset"), truth=truth)
    return os.path.join(out.root, "dataset")


def _run_fit(
    args, config: RunConfig, dataset: Dataset, out: io.OutputDir,
    helper: bool = False,
) -> FitResult:
    fit = fit_model(dataset, config.fit.model, config.em,
                    diagnostics=sys.stderr if args.verbose else None,
                    helper=helper)
    io.write_fit(out, fit)
    return fit


def cmd_fit(args, config: RunConfig, out: io.OutputDir) -> str:
    # the one fit takes a second CPU through a helper process; report's
    # and compare's two lanes already keep two CPUs busy
    fit = _run_fit(args, config, io.read_dataset(args.bundle), out,
                   helper=len(cpus()) >= 2)
    return (
        f"loglik={fit.loglik_trace[-1]:.6f} iterations={fit.iterations} "
        f"converged={fit.converged} active_prob={fit.params.active_prob:.4f}"
    )


def _run_infer(
    config: RunConfig, dataset: Dataset, fit: FitResult, out: io.OutputDir
) -> tuple[ActivationMap, FdrResult]:
    amap, fdr = activation_map(dataset, fit, config.inference)
    io.write_infer(out, dataset, amap, fdr)
    return amap, fdr


def cmd_infer(args, config: RunConfig, out: io.OutputDir) -> str:
    dataset = io.read_dataset(args.bundle)
    fit = io.read_fit(args.fit_dir, dataset)
    amap, fdr = _run_infer(config, dataset, fit, out)
    return (
        f"rejected={fdr.n_rejected} clusters={int(amap.cluster.max())} "
        f"threshold={fdr.threshold:.6g}"
    )


def _run_pcs(
    config: RunConfig, dataset: Dataset, fit: FitResult, amap: ActivationMap,
    out: io.OutputDir,
) -> PcAnalysis:
    pa = analyze_variability(dataset, fit, amap, config.pcs)
    io.write_pcs(out, dataset, pa)
    return pa


def cmd_pcs(args, config: RunConfig, out: io.OutputDir) -> str:
    dataset = io.read_dataset(args.bundle)
    _check_pcs(config, dataset)
    fit = io.read_fit(args.fit_dir, dataset)
    amap = io.read_amap(args.infer_dir, dataset)
    pa = _run_pcs(config, dataset, fit, amap, out)
    pct = ", ".join(f"{p:.1f}%" for p in pa.within_pca.variance_pct[:3])
    return f"active={pa.active_idx.size} top_components={pct}"


def _run_compare(
    config: RunConfig, dataset: Dataset, out: io.OutputDir, fits: dict
) -> ModelComparison:
    cmp = compare_models(dataset, fits, config.compare)
    io.write_compare(out, cmp)
    return cmp


def cmd_compare(args, config: RunConfig, out: io.OutputDir) -> str:
    dataset = io.read_dataset(args.bundle)
    with _worker_fits(dataset, config) as join:
        own = config.fit.model
        fits = ({own: fit_model(dataset, own, config.em)}
                if own in config.compare.models else {})
        fits.update(join())
    cmp = _run_compare(config, dataset, out, fits)
    return f"best_aic=model{cmp.best_aic} best_bic=model{cmp.best_bic}"


def _fit_in_order(
    dataset: Dataset, config: EmConfig, models: list[int]
) -> tuple[dict[int, FitResult], Exception | None, list]:
    """Fits of ``models`` in order up to the first failure, that failure
    (None if every fit succeeded), and every warning the fits raised as
    (message, category, filename, lineno)."""
    fits, error = {}, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for mid in models:
            try:
                fits[mid] = fit_model(dataset, mid, config)
            except Exception as e:
                error = e
                break
    return fits, error, [(w.message, w.category, w.filename, w.lineno)
                         for w in caught]


@contextlib.contextmanager
def _worker_fits(dataset: Dataset, config: RunConfig):
    """Fit every compare.models id but fit.model, in model order, in one
    forked worker process while the block runs: the one place that
    splits the comparison between the two lanes.

    Yields join: it reads the worker's one pickle to the end, reaps the
    worker, issues the warnings its fits raised, in model order, then
    raises its failure or returns its fits. A worker that ended without
    sending them (os._exit, a signal) raises ChildProcessError naming
    its exit status or signal. The worker inherits the dataset through
    the fork and ends by os._exit, so it never returns into the caller.
    Leaving the block before join kills the worker and drops its fits;
    the worker is reaped on every path.
    """
    models = [m for m in config.compare.models if m != config.fit.model]
    read_fd, write_fd = os.pipe()
    pid = _fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_fit_in_order(dataset, config.em, models), pipe,
                            protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    reaped = False

    def join() -> dict[int, FitResult]:
        nonlocal reaped
        data = pipe.read()
        how = _reap(pid)
        reaped = True
        if how is not None:
            raise ChildProcessError(
                f"the comparison worker {how} before sending its fits")
        fits, error, caught = pickle.loads(data)
        _warn_again(caught)
        if error is not None:
            raise error
        return fits

    try:
        with open(read_fd, "rb") as pipe:
            yield join
    finally:
        if not reaped:  # not reaped by join: drop the worker
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_report(args, config: RunConfig, out: io.OutputDir) -> str:
    dataset = io.read_dataset(args.bundle)
    _check_pcs(config, dataset)
    with _worker_fits(dataset, config) as join:
        fit = _run_fit(args, config, dataset, out)
        amap, fdr = _run_infer(config, dataset, fit, out)
        pa = None
        if np.any(amap.cluster > 0):
            pa = _run_pcs(config, dataset, fit, amap, out)
        fits = join()
    # report's own fit is the comparison's fit of that model
    cmp = _run_compare(config, dataset, out, {**fits, config.fit.model: fit})
    io.write_report(out, fit, amap, fdr, pa is not None, cmp)
    return f"report written to {out.root}"


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
            try:
                out = io.OutputDir(args.out, STAGES[args.command])
            except OSError as e:
                raise ConfigError(f"--out {args.out}: {e.strerror}") from None
            # the command stages its files; they appear only if it succeeds
            with out:
                summary = args.func(args, config, out)
    except (ConfigError, io.BundleFormatError, FileNotFoundError,
            IsADirectoryError) as e:
        return _fail(2, e, caught)
    except (DegenerateDataError, np.linalg.LinAlgError, FloatingPointError,
            ChildProcessError) as e:
        return _fail(3, e, caught)
    except BaseException:
        _show_warnings(caught)
        raise
    _show_warnings(caught)
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
