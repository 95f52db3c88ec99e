"""Run one trialmix command with a span around each layer's public functions.

Usage: python perfbench/tracer.py SPANS_JSON COMMAND [ARGS...]

COMMAND and ARGS are what ``python -m trialmix`` would take. The tracer
wraps, from outside, every function listed in ``__all__`` of the layer
modules below plus the CLI's stage calls, at every module binding that
holds it: ``cli.compare_models``, ``modelsel.em_fit`` and
``em._active_quads`` (bound to ``kernels.quad_forms_kron``) all reach the
same wrapper. Nothing in the package is edited. Spans are kept in memory
and written to SPANS_JSON once, when the command returns. RuntimeWarnings
are captured as numerical interventions instead of being printed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import warnings

LAYERS = ("io", "preprocess", "simulate", "em", "kernels", "linalg",
          "inference", "variability", "modelsel")
# called once per CSV cell; its time is already inside io.write_csv
SKIP = {"io.format_float"}
CLI_STAGES = ("_run_fit", "_run_infer", "_run_pcs", "_run_compare",
              "_load_fit", "_load_amap", "_read_column_csv", "write_svg_curves")


def _size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _dir_size(path) -> int:
    return sum(_size(os.path.join(path, f)) for f in os.listdir(path))


def _fit_attrs(modelsel):
    def attrs(args, result):
        structure = args["structure"]
        model = next(
            (mid for mid, spec in modelsel.MODEL_SPECS.items()
             if spec.structure == structure),
            None,
        )
        return {
            "iterations": int(result.iterations),
            "model": model,
            "key": repr((args["config"], structure)),
        }
    return attrs


def _hooks(io, modelsel) -> dict:
    """Span name -> f(bound arguments, result) giving the span's attrs."""
    def path_bytes(args, result):
        return {"bytes": _size(args["path"])}

    def kernel_shape(args, result):
        return {"shape": list(args["resid"].shape)}

    def map_bytes(args, result):
        # a 3-D field lands in one PGM per slice, listed in a JSON sidecar
        path = args["path"]
        stem = path[:-4] if path.endswith(".pgm") else path
        with open(stem + ".json") as f:
            files = json.load(f)["files"]
        folder = os.path.dirname(stem)
        return {"bytes": _size(stem + ".json") + sum(
            _size(os.path.join(folder, name)) for name in files)}

    bundle_files = (io.HEADER_NAME, io.DATA_NAME, io.DESIGN_NAME)
    hooks = {
        "io.read_dataset": lambda a, r: {"bytes": sum(
            _size(os.path.join(a["path"], f)) for f in bundle_files)},
        "io.read_truth": lambda a, r: {
            "bytes": _size(os.path.join(a["path"], io.TRUTH_NAME))},
        "io.write_dataset": lambda a, r: {"bytes": _dir_size(a["path"])},
        "em.em_fit": _fit_attrs(modelsel),
        "em.fit_all_active": _fit_attrs(modelsel),
        "modelsel.fit_model": lambda a, r: {"model": int(a["model_id"])},
        "io.write_map_pgm": map_bytes,
        "inference.activation_map": lambda a, r: {
            "n_rejected": int(r[1].n_rejected),
            "n_clusters": int(r[0].cluster.max()) if r[0].cluster.size else 0,
        },
    }
    for name in ("io.read_params_json", "io.write_params_json", "io.write_csv",
                 "cli.write_svg_curves", "cli._read_column_csv"):
        hooks[name] = path_bytes
    for k in ("quad_forms_kron", "scatter_within", "scatter_between"):
        hooks[f"kernels.{k}"] = kernel_shape
    return hooks


class Tracer:
    """Span recorder: one list of spans and the stack of open span ids."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.warnings: list[dict] = []

    def wrap(self, name: str, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans),
                    "parent": self.stack[-1] if self.stack else None,
                    "name": name, "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = hook(bound.arguments, result)
            return result

        return traced

    def showwarning(self, message, category, filename, lineno, file=None,
                    line=None):
        if issubclass(category, RuntimeWarning):
            where = self.spans[self.stack[-1]]["name"] if self.stack else None
            self.warnings.append({"message": str(message)[:200], "span": where,
                                  "file": os.path.basename(filename),
                                  "line": lineno})


def install(tracer: Tracer) -> None:
    """Wrap the layer functions at every trialmix module binding."""
    modules = {m: importlib.import_module(f"trialmix.{m}")
               for m in LAYERS + ("cli",)}
    hooks = _hooks(modules["io"], modules["modelsel"])
    targets = {}  # id(original function) -> its wrapper
    for short in LAYERS:
        mod = modules[short]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and id(fn) not in targets
                    and name not in SKIP):
                targets[id(fn)] = tracer.wrap(name, fn, hooks.get(name))
    for attr in CLI_STAGES:
        fn = getattr(modules["cli"], attr, None)
        if inspect.isfunction(fn):
            name = f"cli.{attr}"
            targets[id(fn)] = tracer.wrap(name, fn, hooks.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "trialmix" and not modname.startswith("trialmix."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in targets:
                setattr(mod, attr, targets[id(value)])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from trialmix import cli

    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = tracer.showwarning
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        with open(out_path, "w") as f:
            json.dump({"spans": tracer.spans, "warnings": tracer.warnings,
                       "exit": code}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
