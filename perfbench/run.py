"""Pipeline benchmark for trialmix.

One invocation measures one workload (see README.md for why each exists):

    python3 perfbench/run.py --workload report-20k --seed 0 --seconds 20 --trace 0

Set-up writes the workload's bundle with ``trialmix simulate`` from
``--seed``, SETUP_RUNS times. The timed pass then runs the workload's
commands as fresh ``python -m trialmix`` children, one at a time, and
passes repeat while another fits in ``--seconds`` (at least one runs).
Every pass is checked by check.py. With ``--trace 0`` the last line of
output is the end-to-end result; with ``--trace 1`` one untraced pass and
one pass under tracer.py give the per-layer metrics of layers.py.

    python3 perfbench/run.py --make-reference

rewrites reference.json from one pass per workload at the reference seed
and one BLAS thread. Timed runs use THREADS threads, so every run on the
reference seed also re-checks that the artifacts do not depend on the
BLAS thread count.

The benchmark reads and writes only inside the checkout: children import
the package from ``src/`` and scratch files live in ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(HERE, "tracer.py")

REFERENCE_SEED = 0
SETUP_RUNS = 3
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
CHILD_TIMEOUT_S = 160.0
N_IMAGES = 140  # default geometry: 10 epochs of 14 samples

# Each workload: run config, the commands of one pass (placeholders
# {bundle}, {out} and {config}) and which pass directories hold the fit,
# inference and comparison artifacts.
WORKLOADS = {
    "report-20k": {
        "config": {"simulate": {"n_voxels": 20000, "active_frac": 0.3}},
        "steps": [["report", "{bundle}", "--out", "{out}/report"]],
        "fit": "report", "infer": "report", "compare": "report",
    },
    "fit-50k": {
        "config": {"simulate": {"n_voxels": 50000, "active_frac": 0.3},
                   "fit": {"model": 5}},
        "steps": [["fit", "{bundle}", "--out", "{out}/fit"]],
        "fit": "fit", "infer": None, "compare": None,
    },
    "stages-20k": {
        "config": {
            "simulate": {"n_voxels": 20000, "active_frac": 0.05,
                         "phase": "jitter"},
            "preprocess": {"smooth_fwhm": 2.0, "align_trials": True,
                           "highpass_cutoff": 128.0, "center": True},
        },
        "steps": [
            ["preprocess", "{bundle}", "--out", "{out}/pre"],
            ["fit", "{out}/pre/dataset", "--out", "{out}/fit"],
            ["infer", "{out}/pre/dataset", "{out}/fit", "--out", "{out}/infer"],
            ["pcs", "{out}/pre/dataset", "{out}/fit", "{out}/infer",
             "--out", "{out}/pcs"],
        ],
        "fit": "fit", "infer": "infer", "compare": None,
    },
}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PROBE = """
import json, platform, numpy, scipy
from trialmix import kernels
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "kernels_backend": kernels.backend_name()}))
"""


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs."""


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(argv: list[str], log: str, threads: int) -> dict:
    """Run one child to exit; its wall time and its own peak RSS."""
    with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(threads),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # per-child rusage; RUSAGE_CHILDREN would keep a running maximum
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv[1:], "exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def _stderr_tail(log: str) -> str:
    with open(log + ".err", errors="replace") as f:
        return f.read()[-400:].strip()


def trialmix_argv(args: list[str], spans: str | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "trialmix"] + args
    return [sys.executable, TRACER, spans] + args


def setup(name: str, seed: int, threads: int, runs: int,
          traced: bool = False) -> tuple[str, list[float], dict | None]:
    """Write the bundle ``runs`` times; (bundle, walls, traced spans)."""
    base = os.path.join(WORK, name)
    config = os.path.join(base, "config.json")
    sim = os.path.join(base, "sim")
    spans = os.path.join(base, "setup.spans.json") if traced else None
    walls = []
    for _ in range(runs):
        shutil.rmtree(sim, ignore_errors=True)
        argv = trialmix_argv(["simulate", "--config", config, "--seed",
                              str(seed), "--out", sim], spans)
        child = run_child(argv, os.path.join(base, "setup"), threads)
        if child["exit"] != 0:
            raise SetupError(f"simulate exited {child['exit']}: "
                             f"{_stderr_tail(os.path.join(base, 'setup'))}")
        walls.append(child["wall_s"])
    traced_spans = None
    if traced:
        with open(spans) as f:
            traced_spans = json.load(f)
    return os.path.join(sim, "dataset"), walls, traced_spans


def run_pass(name: str, bundle: str, threads: int, reference: dict | None,
             traced: bool = False) -> dict:
    """Run the workload's commands once and check what they wrote."""
    wl = WORKLOADS[name]
    base = os.path.join(WORK, name)
    out = os.path.join(base, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    fill = {"bundle": bundle, "out": out,
            "config": os.path.join(base, "config.json")}
    children, traces, problems = [], [], []
    for i, step in enumerate(wl["steps"]):
        args = [a.format(**fill) for a in step] + ["--config", fill["config"]]
        log = os.path.join(out, f"step{i}")
        spans = log + ".spans.json" if traced else None
        child = run_child(trialmix_argv(args, spans), log, threads)
        children.append(child)
        if traced and os.path.isfile(spans):
            with open(spans) as f:
                traces.append(json.load(f))
        if child["exit"] != 0:
            problems.append(f"{step[0]} exited {child['exit']}: "
                            f"{_stderr_tail(log)}")
            break
    summary, differs = None, None
    if not problems:
        summary = check.summarize(out, wl["fit"], wl["infer"], wl["compare"])
        problems = check.check(summary, reference)
        if reference is not None:
            differs = check.differing_artifacts(summary, reference)
    return {"children": children, "traces": traces, "summary": summary,
            "problems": problems, "differs_from_reference": differs,
            "wall_s": sum(c["wall_s"] for c in children),
            "rss_mb": max(c["rss_mb"] for c in children)}


def _llc_bytes() -> int | None:
    """Size of the highest cache level of cpu0, or None where unknown."""
    root = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        indexes = [d for d in os.listdir(root) if d.startswith("index")]
        for index in indexes:
            with open(os.path.join(root, index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(root, index, "size")) as f:
                size = f.read().strip()
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            best = max(best, (level, int(size.rstrip("KM")) * scale))
    except (OSError, ValueError):
        return None
    return best[1]


def _git() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_revision": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"git_revision": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain",
                                      "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"git_revision": None, "git_dirty": None}


def environment(threads: int) -> dict:
    probe = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                           env=child_env(threads), capture_output=True,
                           text=True, timeout=60)
    if probe.returncode != 0:
        raise SetupError(f"cannot import trialmix: {probe.stderr[-400:]}")
    return {
        **json.loads(probe.stdout),
        "driver_python": platform.python_version(),
        "blas_threads": threads,
        "nproc": NPROC,
        "llc_bytes": _llc_bytes(),
        **_git(),
    }


def _prepare(name: str) -> None:
    base = os.path.join(WORK, name)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    with open(os.path.join(base, "config.json"), "w") as f:
        json.dump(WORKLOADS[name]["config"], f)


def measure(name: str, seed: int, seconds: float, trace: bool,
            threads: int) -> dict:
    reference = None
    if seed == REFERENCE_SEED:
        reference = check.load_reference()["workloads"][name]
    _prepare(name)
    env = environment(threads)
    env["working_set_bytes"] = (
        WORKLOADS[name]["config"]["simulate"]["n_voxels"] * N_IMAGES * 8)
    # a bandwidth figure needs arrays of at least 4x the last-level cache
    env["bandwidth_claim"] = bool(env["llc_bytes"]) and (
        env["working_set_bytes"] >= 4 * env["llc_bytes"])
    if not trace:
        bundle, setup_walls, _ = setup(name, seed, threads, SETUP_RUNS)
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(name, bundle, threads, reference))
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - t0 + typical > seconds:
                break
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
            "setup_s": statistics.median(setup_walls),
        }
        units = END_TO_END_UNITS
        extra = {"setup_walls_s": setup_walls}
    else:
        bundle, _, setup_trace = setup(name, seed, threads, 1, traced=True)
        plain = run_pass(name, bundle, threads, reference)
        traced = run_pass(name, bundle, threads, reference, traced=True)
        passes = [plain, traced]
        metrics = layers.layer_metrics(
            setup_trace, traced["traces"], traced["wall_s"], plain["wall_s"],
            traced["rss_mb"])
        units = layers.PER_LAYER_UNITS
        extra = {"setup_trace": setup_trace}
    failed = sum(1 for p in passes if p["problems"])
    return {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "passes": passes, "attempted": len(passes), "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
        **extra,
    }


def make_reference() -> None:
    out = {"seed": REFERENCE_SEED, "env": environment(1), "workloads": {}}
    for name in WORKLOADS:
        _prepare(name)
        bundle, _, _ = setup(name, REFERENCE_SEED, 1, 1)
        result = run_pass(name, bundle, 1, None)
        if result["problems"]:
            raise SetupError(f"{name}: {result['problems']}")
        out["workloads"][name] = result["summary"]
        print(f"{name}: {result['wall_s']:.2f} s", file=sys.stderr)
        shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    with open(check.REFERENCE, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for i, p in enumerate(result["passes"]):
        verdict = "ok" if not p["problems"] else "; ".join(p["problems"])
        print(f"pass {i}: {p['wall_s']:.3f} s, {p['rss_mb']:.1f} MB, check {verdict}")
        if p["differs_from_reference"] is not None:
            differs = p["differs_from_reference"]
            print(f"pass {i}: artifacts bit-identical to the 1-thread reference: "
                  + ("yes" if not differs else f"no, {len(differs)} differ: "
                     + ", ".join(differs[:8])))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"fail_rate {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} passes)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "trialmix", "__init__.py")):
        print(f"perfbench: no trialmix package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.make_reference:
            make_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), THREADS)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        for name in WORKLOADS:
            shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
