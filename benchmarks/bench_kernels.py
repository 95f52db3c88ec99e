"""Time the three batched kernels.

Runs the per-voxel contractions (quadratic forms, within-epoch scatter,
between-epoch scatter) at a few problem sizes and prints a table of
best-of-N wall times. The "peak tmp" column is each kernel's peak traced
allocation during one call (tracemalloc, in a separate untimed call),
which the voxel blocking bounds independently of V. BLAS threads come
from the environment, e.g. OPENBLAS_NUM_THREADS=2.

Usage:
    python benchmarks/bench_kernels.py [--repeats 7]
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
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    header = (
        f"{'V':>6} {'E':>3} {'T':>3}  {'kernel':<16} {'peak tmp':>10}"
        f" {'time':>10}"
    )
    print(header)
    print("-" * len(header))

    for n_vox, n_ep, n_t in SIZES:
        resid = rng.standard_normal((n_vox, n_ep, n_t))
        w_within = np.linalg.inv(_spd(rng, n_t))
        w_between = np.linalg.inv(_spd(rng, n_ep))
        weights = rng.uniform(0.0, 1.0, n_vox)
        cells = [
            ("quad_forms_kron", kernels.quad_forms_kron,
             (resid, w_within, w_between)),
            ("scatter_within", kernels.scatter_within,
             (resid, w_between, weights)),
            ("scatter_between", kernels.scatter_between,
             (resid, w_within, weights)),
        ]
        for name, fun, call_args in cells:
            peak = _peak_bytes(fun, call_args)
            elapsed = _best_of(fun, call_args, args.repeats)
            print(
                f"{n_vox:>6} {n_ep:>3} {n_t:>3}  {name:<16} {peak / 1e6:>8.2f}MB"
                f" {elapsed * 1e3:>8.2f}ms"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
