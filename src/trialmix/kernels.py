"""Batched per-voxel contractions used by the E- and M-steps, and the
package's one block rule.

Fixed voxel blocks in a fixed order define the bits. voxel_blocks cuts
range(n_voxels) into BLOCK = 256 consecutive voxels, the last block
taking the remainder, and every pass over voxels in the kernels, the EM
residuals and projection (em), the per-voxel preprocessing steps
(preprocess), the t-statistics (inference) and the simulated covariate
term (simulate) walks those blocks in order. A result has the bits of its
blocks' operations, with any sum over voxels added in block order; it
does not have the bits of one operation over all voxels, since BLAS
picks its kernel by matrix size. The blocks depend only on n_voxels, so
outputs are bit-identical across runs and BLAS thread counts.

No BLAS call covers more than one block of rows. Past about 5.2e5
multiply-adds OpenBLAS splits a GEMM over its threads, and the woken
thread then spins for about 0.1 s after the call returns: a
2-thread process spends up to 1.6 cores for no gain, and takes a core
from any process beside it. At the default geometry a block's largest
product, 256 * 10 * 14 * 14 = 501,760 multiply-adds, stays under that.

The three kernels are numpy code built on flat GEMMs. Every temporary
is a block (BLOCK * n_epochs * n_times doubles, 280 kB at the default
geometry) and stays in cache instead of being a full-size copy of the
residual. BLAS threads come from the process environment
(OPENBLAS_NUM_THREADS at start-up); nothing here sets them.

No reduction over the voxel axis goes through a BLAS GEMV or dot: BLAS
splits those reductions by thread count, so their last bits would change
with OPENBLAS_NUM_THREADS. Per-voxel sums are np.einsum row dots. Sums
over voxels are one GEMM per block with an n_times x n_times or
n_epochs x n_epochs output. Two other shapes were measured
thread-variant on OpenBLAS 0.3.31 (SkylakeX core) and are not to be
used: a weighted second moment summed over all voxels in one
(140 x V)(V x 140) GEMM, or in 14 x 140 tiles of it, and quadratic forms
taken as block @ kron(w_between, w_within), a (256 x 140)(140 x 140)
product. 14 x 14 tiles of the second moment are invariant but cost more
than the four scatters they would replace.

resid arrays have shape (n_voxels, n_epochs, n_times); w_within is the
inverse of the within-epoch factor (n_times, n_times) and w_between the
inverse of the between-epoch factor (n_epochs, n_epochs).

A fit may split its passes over voxels between its own process and one
forked helper (Lanes). split runs a pass: the caller's process takes the
first half of the blocks, n_blocks // 2 of them, and the helper the rest,
each through the same private per-rows function (the _..._rows and
_..._parts functions here and in em) over its rows. A lane's rows start
on a block boundary, so its blocks are the blocks of the whole pass. A
pass that sums over voxels yields one partial per block; the helper
sends its partials back, and the caller adds every partial to the
result in block order, its own first. A split pass thus has the bits of
the same pass run in one process. A pass splits when its first array
lies in a running helper's shared memory; anything else, a kernel called
on a block of rows by inference say, runs whole in the caller. The
public kernels are called once per pass, by the caller, with the full
buffer.
"""
from __future__ import annotations

import mmap
import os
import pickle
import signal
import sys
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "backend_name",
    "quad_forms_kron",
    "scatter_within",
    "scatter_between",
]

# voxels per block of every pass over voxels; 256 measured fastest for
# the kernels at the default geometry on a 2-vCPU host
BLOCK = 256


def backend_name() -> str:
    """Name of the kernel backend, recorded with each benchmark run."""
    return "numpy"


def voxel_blocks(n_vox: int):
    """Slices of at most BLOCK consecutive voxels covering range(n_vox)."""
    for start in range(0, n_vox, BLOCK):
        yield slice(start, start + BLOCK)


def quad_forms_kron(
    resid: np.ndarray, w_within: np.ndarray, w_between: np.ndarray
) -> np.ndarray:
    """Per-voxel quadratic forms under the inverse Kronecker covariance."""
    out = _output(resid, resid.shape[:1])
    split(_quad_forms_rows, None, (resid, out), w_within, w_between)
    # a split pass leaves its result in scratch that the next pass reuses
    return out if out.flags.owndata else out.copy()


def _quad_forms_rows(resid, out, w_within, w_between) -> None:
    n_vox, _, n_t = resid.shape
    for sl in voxel_blocks(n_vox):
        blk = resid[sl]
        tmp = (blk.reshape(-1, n_t) @ w_within).reshape(blk.shape)
        tmp = w_between @ tmp
        n_blk = blk.shape[0]
        out[sl] = np.einsum(
            "vn,vn->v", tmp.reshape(n_blk, -1), blk.reshape(n_blk, -1)
        )


def scatter_within(
    resid: np.ndarray, w_between: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted within-epoch scatter: sum_v weights[v] R_v' w_between R_v.

    R_v is the (n_epochs, n_times) residual matrix of voxel v; the result
    is (n_times, n_times).
    """
    n_t = resid.shape[2]
    return split(_scatter_within_parts, np.zeros((n_t, n_t)),
                 (resid, weights), w_between)


def _scatter_within_parts(resid, weights, w_between):
    n_t = resid.shape[2]
    for sl in voxel_blocks(resid.shape[0]):
        blk = resid[sl]
        weighted = w_between @ blk
        weighted *= weights[sl, None, None]
        yield weighted.reshape(-1, n_t).T @ blk.reshape(-1, n_t)


def scatter_between(
    resid: np.ndarray, w_within: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted between-epoch scatter: sum_v weights[v] R_v w_within R_v'
    taken on the epoch side; result is (n_epochs, n_epochs)."""
    n_ep = resid.shape[1]
    return split(_scatter_between_parts, np.zeros((n_ep, n_ep)),
                 (resid, weights), w_within)


def _scatter_between_parts(resid, weights, w_within):
    n_ep = resid.shape[1]
    for sl in voxel_blocks(resid.shape[0]):
        # epoch-major blocks turn the block's sum over (voxel, time) into
        # one (n_epochs, b * n_times) @ (b * n_times, n_epochs) GEMM: the
        # product with w_within writes the weighted block epoch-major, and
        # the block itself takes the one copy
        blk = resid[sl].transpose(1, 0, 2)
        weighted = np.matmul(blk, w_within)
        weighted *= weights[sl, None]
        yield weighted.reshape(n_ep, -1) @ blk.reshape(n_ep, -1).T


# ------------------------------------------------------------------- lanes

# the Lanes of this process whose helper is running
_RUNNING: list["Lanes"] = []


class _Ref(NamedTuple):
    """Where an array lies in a region the helper sees at the same place."""

    region: int
    offset: int
    shape: tuple
    strides: tuple


class Lanes:
    """One fit's passes over voxel blocks, split between the caller's
    process and at most one forked helper.

    With ``helper`` and at least two blocks, the arrays from ``empty``
    are shared memory (MAP_SHARED anonymous maps), so the helper's writes
    to its rows land where the caller reads them, and ``inherit`` names
    an array the helper only reads, which it has through the fork; a
    pass's output goes to one shared scratch of n_vox * out_width
    doubles. All of them are made before ``with lanes:`` forks the
    helper, which then serves passes until the block ends and is reaped
    there, killed first if the block raised. Otherwise nothing forks,
    the arrays are private and every pass runs whole in the caller.
    """

    def __init__(self, n_vox: int, helper: bool = False,
                 out_width: int = 1) -> None:
        n_blocks = -(-n_vox // BLOCK)
        self.shared = helper and n_blocks >= 2
        # the caller's lane is the first n_blocks // 2 blocks
        self.mid = n_blocks // 2 * BLOCK if self.shared else n_vox
        self._regions: list[np.ndarray] = []
        self._pid = None
        self._scratch = self.empty(n_vox * out_width) if self.shared else None

    def empty(self, shape) -> np.ndarray:
        """An uninitialized float64 array, in memory shared with the
        helper when the passes split."""
        if not self.shared:
            return np.empty(shape)
        size = int(np.prod(shape))
        arr = np.frombuffer(mmap.mmap(-1, 8 * size), np.float64, size)
        self._regions.append(arr)
        return arr.reshape(shape)

    def inherit(self, arr: np.ndarray) -> None:
        """``arr`` is not written while the helper runs: the helper reads
        the copy it inherits instead of taking its rows by pipe."""
        if self.shared and arr.flags.c_contiguous:
            self._regions.append(arr)

    def _ref(self, arr):
        """``arr`` as the helper finds it: a _Ref into a region, or the
        array itself, which crosses the pipe."""
        if isinstance(arr, np.ndarray):
            start = arr.__array_interface__["data"][0]
            for i, region in enumerate(self._regions):
                base = region.__array_interface__["data"][0]
                if base <= start < base + region.nbytes:
                    return _Ref(i, start - base, arr.shape, arr.strides)
        return arr

    def _find(self, arr):
        if isinstance(arr, _Ref):
            return np.ndarray(arr.shape, np.float64, self._regions[arr.region],
                              arr.offset, arr.strides)
        return arr

    def __enter__(self) -> "Lanes":
        if not self.shared:
            return self
        cmd_read, cmd_write = os.pipe()
        reply_read, reply_write = os.pipe()
        self._cpus = cpus()
        # the fit's process keeps the first CPU of its mask and the helper
        # the others: woken by a pipe, the helper would otherwise run on
        # the CPU of the process that wrote to it until the scheduler moved
        # one of them, and a pass of a few ms ran in turns
        mine = set(sorted(self._cpus)[:1])
        pid = _fork()
        if pid == 0:
            code = 1
            try:
                os.close(cmd_write)
                os.close(reply_read)
                _pin(self._cpus - mine)
                with open(cmd_read, "rb") as commands, \
                        open(reply_write, "wb") as replies:
                    self._serve(commands, replies)
                code = 0
            finally:
                os._exit(code)
        os.close(cmd_read)
        os.close(reply_write)
        _pin(mine)
        self._pid = pid
        self._commands = open(cmd_write, "wb")
        self._replies = open(reply_read, "rb")
        _RUNNING.append(self)
        return self

    def __exit__(self, kind, error, tb) -> None:
        if self in _RUNNING:
            _RUNNING.remove(self)
            _pin(self._cpus)
            if self._pid is not None and kind is not None:
                os.kill(self._pid, signal.SIGKILL)
            for pipe in (self._commands, self._replies):
                try:  # a helper that died leaves unsent bytes behind
                    pipe.close()
                except OSError:
                    pass
        if self._pid is not None:  # closed pipes end a live helper: EOF
            os.waitpid(self._pid, 0)
            self._pid = None

    def _serve(self, commands, replies) -> None:
        """The helper's loop: run each pass on its rows until EOF."""
        while True:
            try:
                fn, arrays, args = pickle.load(commands)
            except EOFError:
                return
            parts, error = None, None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    parts = fn(*map(self._find, arrays), *args)
                    if parts is not None:
                        parts = list(parts)
                except Exception as e:
                    error = e
            pickle.dump((parts, error, [(w.message, w.category, w.filename,
                                         w.lineno) for w in caught]),
                        replies, protocol=pickle.HIGHEST_PROTOCOL)
            replies.flush()

    def _send(self, fn, arrays, args) -> None:
        try:
            pickle.dump((fn, [self._ref(a) for a in arrays], args),
                        self._commands, protocol=pickle.HIGHEST_PROTOCOL)
            self._commands.flush()
        except BrokenPipeError:
            self._lost()

    def _receive(self):
        try:
            parts, error, caught = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            self._lost()
        _warn_again(caught)
        if error is not None:
            raise error
        return parts

    def _lost(self):
        how = _reap(self._pid) or "exited with status 0"
        self._pid = None
        raise ChildProcessError(f"the fit's helper process {how} mid-pass")


def _lanes_of(arr) -> Lanes | None:
    """The running Lanes whose shared memory holds ``arr``, if any."""
    for lanes in _RUNNING:
        if isinstance(lanes._ref(arr), _Ref):
            return lanes
    return None


def _output(like: np.ndarray, shape) -> np.ndarray:
    """An array for the output of a pass over ``like``: a new one, or
    when the pass splits, its Lanes' shared scratch, which the next pass
    that takes it overwrites."""
    lanes = _lanes_of(like)
    if lanes is None:
        return np.empty(shape)
    return lanes._scratch[:int(np.prod(shape))].reshape(shape)


def split(fn, acc, arrays, *args):
    """Run one pass: fn(*arrays cut to a lane's rows, *args) in each lane.

    Each of ``arrays`` has voxels on its first axis, or is None. fn
    writes its outputs into them, or yields one partial sum per block,
    which is added to ``acc`` in block order; returns ``acc``. The pass
    splits when arrays[0] lies in a running helper's shared memory.
    """
    lanes = _lanes_of(arrays[0])
    mid = arrays[0].shape[0] if lanes is None else lanes.mid
    if lanes is not None:
        lanes._send(fn, [None if a is None else a[mid:] for a in arrays], args)
    for part in fn(*(None if a is None else a[:mid] for a in arrays),
                   *args) or ():
        acc += part
    if lanes is not None:
        for part in lanes._receive() or ():
            acc += part
    return acc


def _fork() -> int:
    """os.fork, without the warning that the process has threads."""
    with warnings.catch_warnings():
        # Python 3.12 warns on forking a process with threads. OpenBLAS's
        # are safe: it shuts them down before a fork (pthread_atfork) and
        # starts them again on demand. The warning is not the command's
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def cpus() -> set:
    """The CPUs this thread may run on; empty where the system does not
    say."""
    return (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else set())


def _pin(mask: set) -> None:
    """Confine this thread to the CPUs of ``mask``, if any; a refusal
    leaves it be."""
    if mask:
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass


def _reap(pid: int) -> str | None:
    """Wait for child ``pid``; how it ended, None for exit status 0."""
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return None
    if status < 0:
        return f"was killed by signal {-status} ({signal.strsignal(-status)})"
    return f"exited with status {status}"


def _warn_again(caught: list) -> None:
    """Emit warnings recorded in another process as warnings.warn would
    have emitted them at their source lines: the caller's filters and each
    module's de-duplication registry decide what is shown."""
    by_file = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = by_file.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
            continue
        namespace = vars(module)
        warnings.warn_explicit(
            message, category, filename, lineno, module=module.__name__,
            registry=namespace.setdefault("__warningregistry__", {}),
            module_globals=namespace,
        )
