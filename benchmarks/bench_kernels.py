"""Time the compiled kernel backend against the pure-numpy fallback.

Runs the three per-voxel contractions (quadratic forms, within-epoch
scatter, between-epoch scatter) at a few problem sizes and prints a
table of best-of-N wall times plus the speedup of the active compiled
path. Also cross-checks that the two backends agree to near machine
precision on every timed instance. The "peak tmp" column is the numpy
path's peak traced allocation during one call (tracemalloc, in a
separate untimed call), which the voxel blocking bounds independently
of V.

Usage:
    python benchmarks/bench_kernels.py [--repeats 7] [--threads 4]
"""
import argparse
import time
import tracemalloc

import numpy as np

from trialmix import kernels

SIZES = [
    (500, 10, 14),
    (2000, 10, 14),
    (8000, 10, 14),
    (2000, 20, 28),
    (50000, 10, 14),
]


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def _best_of(fun, args, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fun(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_bytes(fun, args):
    tracemalloc.start()
    try:
        fun(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats per cell (best is kept)")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap the compiled backend's thread pool")
    args = parser.parse_args()

    if args.threads is not None:
        kernels.set_num_threads(args.threads)
    compiled = kernels.backend_name() == "numba"
    print(f"active backend: {kernels.backend_name()}")
    if not compiled:
        print("compiled backend unavailable; timing the fallback only")

    rng = np.random.default_rng(0)
    header = (
        f"{'V':>6} {'E':>3} {'T':>3}  {'kernel':<16} {'peak tmp':>10}"
        f" {'numpy':>10}"
    )
    if compiled:
        header += f" {'numba':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))

    for n_vox, n_ep, n_t in SIZES:
        resid = rng.standard_normal((n_vox, n_ep, n_t))
        w_within = np.linalg.inv(_spd(rng, n_t))
        w_between = np.linalg.inv(_spd(rng, n_ep))
        weights = rng.uniform(0.0, 1.0, n_vox)
        cells = [
            ("quad_forms_kron",
             kernels.quad_forms_kron_numpy, kernels.quad_forms_kron,
             (resid, w_within, w_between)),
            ("scatter_within",
             kernels.scatter_within_numpy, kernels.scatter_within,
             (resid, w_between, weights)),
            ("scatter_between",
             kernels.scatter_between_numpy, kernels.scatter_between,
             (resid, w_within, weights)),
        ]
        for name, ref_fun, fast_fun, call_args in cells:
            ref = ref_fun(*call_args)
            peak = _peak_bytes(ref_fun, call_args)
            t_ref = _best_of(ref_fun, call_args, args.repeats)
            line = (
                f"{n_vox:>6} {n_ep:>3} {n_t:>3}  {name:<16} {peak / 1e6:>8.2f}MB"
                f" {t_ref * 1e3:>8.2f}ms"
            )
            if compiled:
                got = fast_fun(*call_args)  # first call compiles
                scale = np.max(np.abs(ref)) or 1.0
                err = np.max(np.abs(got - ref)) / scale
                if err > 1e-10:
                    raise SystemExit(
                        f"{name} at V={n_vox}: backends disagree ({err:.2e})"
                    )
                t_fast = _best_of(fast_fun, call_args, args.repeats)
                line += f" {t_fast * 1e3:>8.2f}ms {t_ref / t_fast:>7.1f}x"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
