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

Child is the package's one seam for child processes: it forks, feeds
and answers a child through two pipes, passes back the child's value or
exception and its warnings, and kills and reaps it. It has two uses:
cli's comparison worker, and the fit's helper (Lanes, a Child).

A fit of at least SPLIT_BLOCKS blocks, in a process that may run on two
CPUs, may split its passes over voxels between its own process and one
forked helper (Lanes). split runs a pass: the caller's process takes
the first half of the blocks, n_blocks // 2 of them, and the helper the
rest, each through the same private per-rows function (the _..._rows
and _..._parts functions here and in em) over its rows. A lane's rows
start on a block boundary, so its blocks are the blocks of the whole
pass. A pass that sums over voxels yields one partial per block; the
helper sends its partials back, and the caller adds every partial to the
result in block order, its own first. A split pass thus has the bits of
the same pass run in one process. A pass splits when its first array
lies in a running helper's shared memory; anything else, a kernel called
on a block of rows by inference say, runs whole in the caller. The
public kernels are called once per pass, by the caller, with the full
buffer. The shared arrays are made before the fork and filled by split
passes after it, so each process faults in only the pages of its own
rows: the caller's process and the helper hold a shared buffer once
between them, and neither holds all of it.
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
# fewest voxel blocks whose passes a helper takes half of (at least 2):
# each pass pays a pipe round trip and wakes the idle CPU, so a small fit
# is slower split. In-process model-5 fits on a 2-vCPU host (2 BLAS
# threads, medians of 11 alternating runs) took 1.24 times as long with
# a helper at 12 blocks, 1.03 at 16, 0.96 at 20 and 0.87 at 24
SPLIT_BLOCKS = 20


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


# --------------------------------------------------------- child processes


class Child:
    """One forked child process, fed and answered through two pipes: the
    one place where the package forks, kills and reaps a process.

    ``with Child(name, target):`` forks; the child runs target(child) and
    ends by os._exit, status 0 if target returned and 1 if it raised, so
    it never returns into the caller's code. In the child, ``commands``
    yields each message the caller ``send``s, and ``reply`` answers one.
    In the caller, ``receive`` takes the next answer: it issues the
    warnings that the child's call raised, as warnings.warn would have
    issued them here, then raises the call's exception or returns its
    value. A child that ends before it replies (os._exit, a signal such
    as the out-of-memory killer's SIGKILL) is reaped and raises
    ChildProcessError naming ``name`` and how it ended; a fork or pipe
    that fails raises ChildProcessError naming ``name`` and the system's
    reason, and leaves no pipe open. The child is killed if the block
    raises and reaped on every path: a block that ends normally closes
    the pipes, so a child reading commands reads end of file, and waits
    for it.
    """

    def __init__(self, name: str, target) -> None:
        self.name = name
        self._target = target
        self._pid = None

    def __enter__(self):
        fds = []
        try:
            for _ in range(2):
                fds += os.pipe()
            pid = _fork()
        except OSError as e:
            for fd in fds:
                os.close(fd)
            raise ChildProcessError(
                f"{self.name} could not be started: {e.strerror}") from None
        cmd_read, cmd_write, reply_read, reply_write = fds
        if pid == 0:
            code = 1
            try:
                self._open(cmd_read, reply_write, cmd_write, reply_read)
                self._target(self)
                code = 0
            finally:
                os._exit(code)
        self._open(reply_read, cmd_write, cmd_read, reply_write)
        self._pid = pid
        return self

    def _open(self, read_fd, write_fd, *other_end) -> None:
        for fd in other_end:
            os.close(fd)
        self._in, self._out = open(read_fd, "rb"), open(write_fd, "wb")

    def __exit__(self, kind, error, tb) -> None:
        if self._pid is not None and kind is not None:
            os.kill(self._pid, signal.SIGKILL)
        for pipe in (self._out, self._in):
            try:  # a child that died leaves unsent bytes behind
                pipe.close()
            except OSError:
                pass
        if self._pid is not None:
            os.waitpid(self._pid, 0)
            self._pid = None

    def _write(self, message) -> None:
        pickle.dump(message, self._out, protocol=pickle.HIGHEST_PROTOCOL)
        self._out.flush()

    def send(self, *message) -> None:
        """In the caller: pickle ``message`` to the child's commands."""
        try:
            self._write(message)
        except BrokenPipeError:
            self._lost()

    def commands(self):
        """In the child: each message the caller sends, until it closes
        its end."""
        while True:
            try:
                yield pickle.load(self._in)
            except EOFError:
                return

    def reply(self, fn, *args) -> None:
        """In the child: send fn(*args), or the exception it raised, and
        every warning it raised, to the caller's receive."""
        value, error = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = fn(*args)
            except Exception as e:
                error = e
        self._write((value, error, [(w.message, w.category, w.filename,
                                     w.lineno) for w in caught]))

    def receive(self):
        """In the caller: the child's next reply, its warnings issued
        here, then its exception raised or its value returned."""
        try:
            value, error, caught = pickle.load(self._in)
        except (EOFError, pickle.UnpicklingError):
            self._lost()
        _warn_again(caught)
        if error is not None:
            raise error
        return value

    def _lost(self):
        status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._pid = None
        how = (f"was killed by signal {-status} ({signal.strsignal(-status)})"
               if status < 0 else f"exited with status {status}")
        raise ChildProcessError(f"{self.name} {how} before replying")


def _fork() -> int:
    """os.fork, without the warning that the process has threads."""
    with warnings.catch_warnings():
        # Python 3.12 warns on forking a process with threads. OpenBLAS's
        # are safe: it shuts them down before a fork (pthread_atfork) and
        # starts them again on demand. The warning is not the command's
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def _warn_again(caught: list) -> None:
    """Emit warnings recorded in another process as warnings.warn would
    have emitted them at their source lines: the caller's filters and each
    module's de-duplication registry decide what is shown."""
    if not caught:
        return
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


# ------------------------------------------------------------------- lanes

# the Lanes of this process whose helper is running
_RUNNING: list["Lanes"] = []


class _Ref(NamedTuple):
    """Where an array lies in a region the helper sees at the same place."""

    region: int
    offset: int
    shape: tuple
    strides: tuple


class Lanes(Child):
    """One fit's passes over voxel blocks, split between the caller's
    process and at most one forked helper, a Child.

    With ``helper``, at least SPLIT_BLOCKS blocks and at least two CPUs
    in this process's affinity mask, the arrays from ``empty`` are shared
    memory (MAP_SHARED anonymous maps), so the helper's writes to its
    rows land where the caller reads them, and ``inherit`` names an array
    the helper only reads, which it has through the fork; a pass's output
    goes to one shared scratch of n_vox * out_width doubles. All of them
    are made before ``with lanes:`` forks the helper, which then serves
    passes until the block ends. A shared array's pages are faulted in by
    the first process to touch them, so an array that is first written
    by split passes inside the block costs each process only its own
    rows. Otherwise nothing forks, the arrays are private and every pass
    runs whole in the caller.
    """

    def __init__(self, n_vox: int, helper: bool = False,
                 out_width: int = 1) -> None:
        super().__init__("the fit's helper process", Lanes._serve)
        n_blocks = -(-n_vox // BLOCK)
        # the CPUs this process may run on; empty where the system does
        # not say, and then nothing forks
        self._cpus = (os.sched_getaffinity(0)
                      if hasattr(os, "sched_getaffinity") else set())
        self.shared = (helper and n_blocks >= SPLIT_BLOCKS
                       and len(self._cpus) >= 2)
        # the caller's lane is the first n_blocks // 2 blocks
        self.mid = n_blocks // 2 * BLOCK if self.shared else n_vox
        self._regions: list[np.ndarray] = []
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
        if self.shared:
            super().__enter__()
            # the fit's process keeps the first CPU of its mask and the
            # helper the others (_serve): woken by a pipe, the helper
            # would otherwise run on the CPU of the process that wrote to
            # it until the scheduler moved one of them, and a pass of a
            # few ms ran in turns
            _pin(set(sorted(self._cpus)[:1]))
            _RUNNING.append(self)
        return self

    def __exit__(self, kind, error, tb) -> None:
        if self in _RUNNING:
            _RUNNING.remove(self)
            _pin(self._cpus)
            super().__exit__(kind, error, tb)

    def _serve(self) -> None:
        """The helper's loop: run each pass on its rows until EOF."""
        _pin(set(sorted(self._cpus)[1:]))
        for fn, arrays, args in self.commands():
            self.reply(self._run, fn, arrays, args)

    def _run(self, fn, arrays, args):
        parts = fn(*map(self._find, arrays), *args)
        return None if parts is None else list(parts)


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
        lanes.send(fn, [None if a is None else lanes._ref(a[mid:])
                        for a in arrays], args)
    for part in fn(*(None if a is None else a[:mid] for a in arrays),
                   *args) or ():
        acc += part
    if lanes is not None:
        for part in lanes.receive() or ():
            acc += part
    return acc


def _pin(mask: set) -> None:
    """Confine this thread to the CPUs of ``mask``, if any; a refusal
    leaves it be."""
    if mask:
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass
