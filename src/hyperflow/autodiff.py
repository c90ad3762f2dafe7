"""Dense tensors with a reverse-mode gradient tape.

The forecasting model needs a small, fixed set of array operations, so this
module defines exactly the ones a taped forward and loss record (a test
holds it to that).  Every value is float64: the finite-difference gradient
checks need the headroom, and at desk scale the storage savings of float32
are irrelevant.

Ops take Tensors; wrap a raw array in Tensor() first.  A tape is
single-writer: one forward pass records onto it and one backward() consumes
it, and a second backward on the same tape is an error.  Backward
takes each node off the tape and drops its vjp and parents once it has
passed the node, so the intermediates held in vjp closures, and the nodes
nothing else holds, are freed during the pass; the tape ends empty, and a
node the caller still holds keeps its data and grad.  Tensors may be
shared freely; only parameters change.  A model's parameter values are
views into `Forecaster.flat`, never rebound, and `training.Adam` steps
them in place only once the batch's backwards have finished.  Their .grad
are views into one (P,) vector, `Forecaster.grad` or, in `training.fit`,
the running chunk's gradient row, and accumulate in place.
A recorded node the loss does not reach keeps grad None.

Only ops run while a tape is active record a graph.  Outside a tape an op
returns a constant (no parents, no vjp), so a forward-only pass frees each
intermediate as soon as it has been used.  The tape stack is per thread,
and `no_tape()` empties the calling thread's stack for a block, so a
forward-only pass records nothing even inside a caller's tape.

Gradients of recorded nodes may share memory with each other (average
hands the same array to both operands), so they are never written in place:
backward stores the first contribution as it is and sums later ones into
a new array.  A requires_grad leaf owns its .grad and accumulates into it
in place.

The ops the model runs take one window's (rows, d) state or a node-major
(rows, B, d) stack of B windows, with the same code for both.

The model's repeated blocks (the input features, an encoder layer, a
hypergraph layer, the interaction block, the average of the two blocks and
the loss) are single ops with hand-written vjps, defined next to the
blocks in their own modules through `record`.  The contract above is
unchanged for them: one node per call, no graph outside a tape, a
gradient for every input (backward drops a constant's), gradients never
written in place, and a non-finite value or gradient names the op.

Every op allocates a fresh output.  A forward pass that frees as it goes
shrinks glibc's heap back to the OS by its end, and the next pass faults
the same pages in again (about 2k minor faults per call at N=200, d=32).
Importing this module therefore sets glibc's M_TOP_PAD so that the heap
keeps 64 MiB of slack at its top.  It also sets M_ARENA_MAX to 1: glibc
otherwise gives each thread that allocates concurrently its own arena with
its own top pad, and forward passes on worker threads
(`training.predict_batch`) then raised peak memory from 171 to 197 MB at
N=207 on two threads.  Without glibc it does nothing.

Importing this module also holds numpy's bundled OpenBLAS to one thread
for the whole process, over an explicit OPENBLAS_NUM_THREADS too.  The
package gets its parallelism from its own threads and forked processes;
BLAS threads only contend with them and with other processes, and one
thread fixes each product's summation order.  BLAS_PINNED says whether
the pin took effect; without that library it is False and nothing is
pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

DTYPE = np.float64

# mallopt parameter numbers in glibc's malloc.h
_M_TOP_PAD = -2
_M_ARENA_MAX = -8
_HEAP_SLACK_BYTES = 64 << 20


def _keep_heap_slack() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return  # no glibc-style allocator to tune
    mallopt(_M_TOP_PAD, _HEAP_SLACK_BYTES)
    mallopt(_M_ARENA_MAX, 1)


def _pin_openblas() -> bool:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            put = ctypes.CDLL(lib).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        put.argtypes, put.restype = [ctypes.c_int], None
        put(1)
        return True
    return False


_keep_heap_slack()
BLAS_PINNED = _pin_openblas()


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class NumericError(ArithmeticError):
    """A value or gradient stopped being finite."""


def _check_finite(arr: np.ndarray, where: str) -> None:
    # One BLAS dot product on the fast path: a NaN or an infinite entry
    # makes arr·arr non-finite.  Finite entries above about 1e154 overflow
    # it as well, so a non-finite result is confirmed entry by entry.
    # Unlike sum() and dot(), vdot() raises no overflow warning, and it
    # allocates nothing for a contiguous array.
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {where}")


# Per-thread stack of active tapes, so concurrent forward passes never
# record onto each other's tape.
_LOCAL = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


@contextlib.contextmanager
def no_tape():
    """Run the body with this thread's tape stack empty, so no op records."""
    saved, _LOCAL.stack = _tape_stack(), []
    try:
        yield
    finally:
        _LOCAL.stack = saved


class Tensor:
    """A dense float64 array, optionally recorded on the active tape."""

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        _check_finite(self.data, "tensor constructor")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape})"


class Tape:
    """Ordered record of one forward pass, consumed by one backward pass."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False

    def backward(self, loss: Tensor) -> None:
        """Reverse-accumulate d(loss)/d(node) for every recorded node.

        Leaf tensors with requires_grad=True receive (accumulate into) their
        .grad; constant leaves are skipped.  The loss must be a scalar node
        recorded on this tape, and a tape runs backward once.  The tape ends
        empty: each node is taken off it once passed, so a node nothing else
        holds is freed with its value and gradient during the pass, and one
        the caller holds keeps its data and grad and loses its parents and
        vjp.  When two finite contributions to a recorded node's gradient sum
        to a non-finite value, the error names both ops.
        """
        if self._consumed:
            raise RuntimeError("backward already ran on this tape")
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ValueError(f"loss must be a scalar tensor, got shape {getattr(loss, 'shape', None)}")
        if not any(loss is n for n in self.nodes):
            raise ValueError("loss is not a node recorded on this tape")
        self._consumed = True

        loss.grad = np.ones_like(loss.data)
        nodes, self.nodes = self.nodes, []
        while nodes:
            # Release the node, its closure and its links as the pass goes,
            # so the intermediates a vjp holds are freed once it has run.
            node = nodes.pop()
            vjp, parents = node._vjp, node.parents
            node._vjp, node.parents = None, ()
            if node.grad is None:
                continue  # not reachable from the loss
            contributions = vjp(node.grad)
            for parent, g in zip(parents, contributions):
                _check_finite(g, f"backward of {node.op}")
                if parent._vjp is not None:
                    if parent.grad is None:
                        parent.grad = g
                    else:
                        parent.grad = parent.grad + g
                        _check_finite(parent.grad, f"backward of {node.op} summed into the gradient of {parent.op}")
                elif parent.requires_grad:
                    if parent.grad is None:
                        parent.grad = np.array(g)  # owned: accumulates in place
                    else:
                        parent.grad += g
                # otherwise a constant, gradient not wanted


def record(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap the output of one op, linking it to the active tape if any.

    `vjp` maps the output's gradient to one gradient array per entry of
    `parents`, in order; it must not write into its argument.  A
    non-finite output raises NumericError naming `op`, and so does a
    non-finite gradient the vjp returns during backward.
    """
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out.op = op
    out.parents = ()
    out._vjp = None
    stack = _tape_stack()
    if stack:
        out.parents = parents
        out._vjp = vjp
        stack[-1].nodes.append(out)
    return out


# ---------------------------------------------------------------------------
# Operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for a matrix b; a may carry a window axis, (R, B, k) @ (k, m)."""
    if a.data.ndim not in (2, 3) or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    a2 = a.data.reshape(-1, b.shape[0])

    def vjp(g):
        g2 = g.reshape(-1, b.shape[1])
        return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

    return record((a2 @ b.data).reshape(*a.shape[:-1], b.shape[1]), "matmul", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a plus a 1-D bias b along the last axis of a 2-D or 3-D tensor."""
    if a.data.ndim not in (2, 3) or b.data.ndim != 1 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"add: cannot add a bias of shape {b.shape} to {a.shape}")
    return record(a.data + b.data, "add_bias", (a, b),
                  lambda g: (g, g.reshape(-1, b.shape[0]).sum(axis=0)))


def transpose(a: Tensor) -> Tensor:
    """Move the row axis last: a matrix's transpose, and (R, B, k) -> (B, k, R)."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected a matrix or a stack of windows, got shape {a.shape}")
    axes = (*range(1, a.data.ndim), 0)
    back = (a.data.ndim - 1, *range(a.data.ndim - 1))
    return record(a.data.transpose(axes).copy(), "transpose", (a,), lambda g: (g.transpose(back),))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Join along the last axis; every other axis must agree."""
    if a.data.ndim not in (2, 3) or a.data.ndim != b.data.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_cols: shapes {a.shape} and {b.shape} do not stack")
    split = a.shape[-1]

    def vjp(g):
        return g[..., :split], g[..., split:]

    return record(np.concatenate([a.data, b.data], axis=-1), "concat_cols", (a, b), vjp)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")

    def vjp(g):
        z = np.zeros_like(a.data)
        z[start:stop] = g
        return (z,)

    return record(a.data[start:stop].copy(), "slice_rows", (a,), vjp)


def window_max_rows(a: Tensor, window: int, t_steps: int, n_nodes: int) -> Tensor:
    """Per-node elementwise max over non-overlapping windows of time steps.

    The input is time-major with t_steps blocks of n_nodes rows, (R, d) or
    (R, B, d) with a window axis; the output has t_steps // window blocks.
    Gradient flows to the earliest maximizer in each window (argmax tie
    rule), which keeps backward deterministic.  Window 1 is the identity.
    Backward keeps the output and walks the window's steps in order: each
    step's rows are compared with it, and a mask of the entries not yet
    taken hands each gradient to the first step that reaches the max.
    """
    if t_steps % window != 0:
        raise ShapeError(f"window_max_rows: window {window} does not divide {t_steps} steps")
    if a.shape[0] != t_steps * n_nodes:
        raise ShapeError(f"window_max_rows: expected {t_steps * n_nodes} rows, got {a.shape[0]}")
    if window == 1:
        return record(a.data, "window_max_rows", (a,), lambda g: (g,))
    k = t_steps // window
    rest = a.shape[1:]
    blocks = a.data.reshape(k, window, n_nodes, *rest)
    best = blocks.max(axis=1)

    def vjp(g):
        g4 = g.reshape(best.shape)
        z = np.empty_like(blocks)
        free = np.ones(best.shape, dtype=bool)
        for j in range(window):
            hit = blocks[:, j] == best
            hit &= free
            free ^= hit  # hit lies inside free, so this clears it
            # A product, not np.copyto(where=hit): a masked copy branches on
            # every run of the mask and is several times slower on relu output.
            np.multiply(g4, hit, out=z[:, j])
        z += 0.0  # the masked product leaves -0.0 where g < 0; -0.0 + 0.0 is +0.0
        return (z.reshape(a.shape),)

    return record(best.reshape(k * n_nodes, *rest), "window_max_rows", (a,), vjp)


def mean_over_time(a: Tensor, t_steps: int, n_nodes: int) -> Tensor:
    """Average a time-major (t_steps*n_nodes, ...) state down to (n_nodes, ...)."""
    if a.shape[0] != t_steps * n_nodes:
        raise ShapeError(f"mean_over_time: expected {t_steps * n_nodes} rows, got {a.shape[0]}")
    rest = a.shape[1:]

    def vjp(g):
        return (np.tile(g / t_steps, (t_steps,) + (1,) * len(rest)),)

    return record(a.data.reshape(t_steps, n_nodes, *rest).mean(axis=0), "mean_over_time", (a,), vjp)


def softmax_vec(a: Tensor) -> Tensor:
    if a.data.ndim != 1:
        raise ShapeError(f"softmax_vec: expected a vector, got shape {a.shape}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    w = e / e.sum()

    def vjp(g):
        return (w * (g - np.dot(g, w)),)

    return record(w, "softmax_vec", (a,), vjp)


def linear_combination(xs: Sequence[Tensor], coeffs: Tensor) -> Tensor:
    """Sum of same-shaped tensors weighted by the entries of a vector."""
    if coeffs.data.ndim != 1 or len(xs) != coeffs.size:
        raise ShapeError(f"linear_combination: {len(xs)} tensors vs {coeffs.shape} coefficients")
    if any(x.shape != xs[0].shape for x in xs):
        raise ShapeError("linear_combination: tensor shapes differ")
    # The product tensordot would form, without its Python overhead.
    out = np.dot(coeffs.data[None], np.stack([x.data.ravel() for x in xs])).reshape(xs[0].shape)

    def vjp(g):
        grads = [c * g for c in coeffs.data]
        grads.append(np.array([np.sum(g * x.data) for x in xs]))
        return grads

    return record(out, "linear_combination", (*xs, coeffs), vjp)


# ---------------------------------------------------------------------------
# Gradient verification

FD_STEP = 1e-5  # central-difference step of finite_difference_check


def finite_difference_check(f, theta: Tensor) -> float:
    """Compare tape gradients of f against central differences of step
    FD_STEP at theta.

    f maps a tensor to a scalar loss tensor and must be deterministic.
    Returns max over coordinates of |analytic - numeric| divided by
    (|analytic| + |numeric| + 1e-12).
    """
    base = np.array(theta.data, copy=True)
    param = Tensor(base, requires_grad=True)
    with Tape() as tape:
        loss = f(param)
    tape.backward(loss)
    analytic = param.grad if param.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        bumped = base.copy()
        bumped[idx] = base[idx] + FD_STEP
        up = float(f(Tensor(bumped)).data)
        bumped[idx] = base[idx] - FD_STEP
        down = float(f(Tensor(bumped)).data)
        numeric[idx] = (up - down) / (2.0 * FD_STEP)

    denom = np.abs(analytic) + np.abs(numeric) + 1e-12
    return float(np.max(np.abs(analytic - numeric) / denom))
