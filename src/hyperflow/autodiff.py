"""Dense tensors with a reverse-mode gradient tape.

The forecasting model needs a small, fixed set of array operations, so the
tape records exactly those and nothing else.  Every value is float64: the
finite-difference gradient checks need the headroom, and at desk scale the
storage savings of float32 are irrelevant.

Ops take Tensors; wrap a raw array in Tensor() first.  A tape is
single-writer: one forward pass records onto it and one backward() consumes
it, and a second backward on the same tape is an error.  Tensors are
immutable once created and may be shared freely (parameters are plain leaf
tensors reused across many tapes; their .grad accumulates across backward
calls until an optimizer clears it).  A recorded node the loss does not
reach keeps grad None.

Only ops run while a tape is active record a graph.  Outside a tape an op
returns a constant (no parents, no vjp), so a forward-only pass frees each
intermediate as soon as it has been used.

Gradients of recorded nodes may share memory with each other (add hands
the same array to both operands), so they are never written in place:
backward stores the first contribution as it is and sums later ones into
a new array.  A requires_grad leaf owns its .grad and accumulates into it
in place.

The model's repeated blocks (an encoder layer, a hypergraph layer, the
interaction block and the average of the two blocks) are single ops with
hand-written vjps, defined next to the blocks in their own modules through
`record`.  The contract above is unchanged for them: one node per call, no
graph outside a tape, no gradient computed for an input that is not
`tracked`, gradients never written in place, and a non-finite value or
gradient names the op.

Every op allocates a fresh output.  A forward pass that frees as it goes
shrinks glibc's heap back to the OS by its end, and the next pass faults
the same pages in again (about 2k minor faults per call at N=200, d=32).
Importing this module therefore sets glibc's M_TOP_PAD so that the heap
keeps 64 MiB of slack at its top; without glibc it does nothing.
"""

from __future__ import annotations

import ctypes
import math
import threading
from typing import Callable, Sequence

import numpy as np

DTYPE = np.float64

_M_TOP_PAD = -2  # mallopt parameter number in glibc's malloc.h
_HEAP_SLACK_BYTES = 64 << 20


def _keep_heap_slack() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return  # no glibc-style allocator to tune
    mallopt(_M_TOP_PAD, _HEAP_SLACK_BYTES)


_keep_heap_slack()


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class NumericError(ArithmeticError):
    """A value or gradient stopped being finite."""


def _check_finite(arr: np.ndarray, where: str) -> None:
    # One reduction on the fast path: any NaN/Inf entry makes the sum
    # non-finite.  A sum of large finite entries can overflow too, so a
    # non-finite sum is confirmed entry by entry before raising.
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {where}")


# Per-thread stack of active tapes, so concurrent forward passes never
# record onto each other's tape.
_LOCAL = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


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
        recorded on this tape, and a tape runs backward once.  When two
        finite contributions to a recorded node's gradient sum to a
        non-finite value, the error names both ops.
        """
        if self._consumed:
            raise RuntimeError("backward already ran on this tape")
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ValueError(f"loss must be a scalar tensor, got shape {getattr(loss, 'shape', None)}")
        if not any(loss is n for n in self.nodes):
            raise ValueError("loss is not a node recorded on this tape")
        self._consumed = True

        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if node._vjp is None or node.grad is None:
                continue  # leaf, or not reachable from the loss
            contributions = node._vjp(node.grad)
            for parent, g in zip(node.parents, contributions):
                if g is None:
                    continue
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

    `vjp` maps the output's gradient to one gradient (or None) per entry
    of `parents`, in order; it must not write into its argument.  A
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


def tracked(t: Tensor) -> bool:
    """Whether backward wants a gradient for t (a recorded node or a trainable leaf)."""
    return t._vjp is not None or t.requires_grad


# ---------------------------------------------------------------------------
# Operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    need_a, need_b = tracked(a), tracked(b)

    def vjp(g):
        return (g @ b.data.T if need_a else None,
                a.data.T @ g if need_b else None)

    return record(a.data @ b.data, "matmul", (a, b), vjp)


def sparse_matmul(sp_mat, x: Tensor, sp_mat_t) -> Tensor:
    """Product of a constant scipy sparse matrix with a dense tensor.

    The sparse operand carries no gradient; backward multiplies by its
    precomputed transpose `sp_mat_t`.
    """
    if x.data.ndim != 2 or sp_mat.shape[1] != x.shape[0]:
        raise ShapeError(f"sparse_matmul: cannot multiply {sp_mat.shape} by {x.shape}")

    def vjp(g):
        return (sp_mat_t @ g,)

    return record(np.asarray(sp_mat @ x.data), "sparse_matmul", (x,), vjp)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: shapes {a.shape} and {b.shape} differ")
    need_a, need_b = tracked(a), tracked(b)

    def vjp(g):
        return (g * b.data if need_a else None,
                g * a.data if need_b else None)

    return record(a.data * b.data, "hadamard", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D row bias against a 2-D tensor."""
    if a.shape == b.shape:
        return record(a.data + b.data, "add", (a, b), lambda g: (g, g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return record(a.data + b.data, "add_bias", (a, b), lambda g: (g, g.sum(axis=0)))
    raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    return record(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def scale(a: Tensor, c: float) -> Tensor:
    return record(a.data * c, "scale", (a,), lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0: the mask is strict.
    return record(np.maximum(a.data, 0.0), "relu", (a,), lambda g: (g * (a.data > 0),))


def absolute(a: Tensor) -> Tensor:
    # sign(0) = 0 gives the subgradient-0 tie rule used by the MAE loss.
    return record(np.abs(a.data), "absolute", (a,), lambda g: (g * np.sign(a.data),))


def mean_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.full(a.shape, float(g) / a.size),)

    return record(np.asarray(a.data.mean()), "mean_all", (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    return record(np.asarray(a.data.sum()), "sum_all", (a,), lambda g: (np.full(a.shape, float(g)),))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    return record(a.data.T.copy(), "transpose", (a,), lambda g: (g.T,))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: shapes {a.shape} and {b.shape} do not stack")
    split = a.shape[1]

    def vjp(g):
        return g[:, :split], g[:, split:]

    return record(np.concatenate([a.data, b.data], axis=1), "concat_cols", (a, b), vjp)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")

    def vjp(g):
        z = np.zeros_like(a.data)
        z[start:stop] = g
        return (z,)

    return record(a.data[start:stop].copy(), "slice_rows", (a,), vjp)


def tile_rows(a: Tensor, reps: int) -> Tensor:
    """Vertically stack `reps` copies of a matrix: [a; a; ...; a]."""
    n, d = a.shape

    def vjp(g):
        return (g.reshape(reps, n, d).sum(axis=0),)

    return record(np.tile(a.data, (reps, 1)), "tile_rows", (a,), vjp)


def repeat_rows(a: Tensor, reps: int) -> Tensor:
    """Repeat each row `reps` times consecutively."""
    n, d = a.shape

    def vjp(g):
        return (g.reshape(n, reps, d).sum(axis=1),)

    return record(np.repeat(a.data, reps, axis=0), "repeat_rows", (a,), vjp)


def window_max_rows(a: Tensor, window: int, t_steps: int, n_nodes: int) -> Tensor:
    """Per-node elementwise max over non-overlapping windows of time steps.

    The input is time-major with t_steps blocks of n_nodes rows; the output
    has t_steps// window blocks.  Gradient flows to the earliest maximizer
    in each window (argmax tie rule), which keeps backward deterministic.
    Window 1 is the identity.
    """
    if t_steps % window != 0:
        raise ShapeError(f"window_max_rows: window {window} does not divide {t_steps} steps")
    if a.shape[0] != t_steps * n_nodes:
        raise ShapeError(f"window_max_rows: expected {t_steps * n_nodes} rows, got {a.shape[0]}")
    if window == 1:
        return record(a.data, "window_max_rows", (a,), lambda g: (g,))
    k = t_steps // window
    d = a.shape[1]
    blocks = a.data.reshape(k, window, n_nodes, d)

    def vjp(g):
        idx = blocks.argmax(axis=1)
        z = np.zeros_like(blocks)
        np.put_along_axis(z, idx[:, None], g.reshape(k, 1, n_nodes, d), axis=1)
        return (z.reshape(t_steps * n_nodes, d),)

    return record(blocks.max(axis=1).reshape(k * n_nodes, d), "window_max_rows", (a,), vjp)


def mean_over_time(a: Tensor, t_steps: int, n_nodes: int) -> Tensor:
    """Average a time-major (t_steps*n_nodes, d) matrix down to (n_nodes, d)."""
    if a.shape[0] != t_steps * n_nodes:
        raise ShapeError(f"mean_over_time: expected {t_steps * n_nodes} rows, got {a.shape[0]}")
    d = a.shape[1]

    def vjp(g):
        return (np.tile(g / t_steps, (t_steps, 1)),)

    return record(a.data.reshape(t_steps, n_nodes, d).mean(axis=0), "mean_over_time", (a,), vjp)


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
    stack = np.stack([x.data for x in xs])

    def vjp(g):
        grads = [c * g for c in coeffs.data]
        grads.append(np.array([np.sum(g * x.data) for x in xs]))
        return grads

    return record(np.tensordot(coeffs.data, stack, axes=1), "linear_combination", (*xs, coeffs), vjp)


# ---------------------------------------------------------------------------
# Gradient verification


def finite_difference_check(f, theta: Tensor, h: float = 1e-5) -> float:
    """Compare tape gradients of f against central differences at theta.

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
        bumped[idx] = base[idx] + h
        up = float(f(Tensor(bumped)).data)
        bumped[idx] = base[idx] - h
        down = float(f(Tensor(bumped)).data)
        numeric[idx] = (up - down) / (2.0 * h)

    denom = np.abs(analytic) + np.abs(numeric) + 1e-12
    return float(np.max(np.abs(analytic - numeric) / denom))
