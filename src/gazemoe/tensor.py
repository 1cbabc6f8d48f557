"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap a numpy array (float64 by default, float32 optional). Every
differentiable operation records its inputs and a backward rule on the
output tensor; ``backward`` orders the recorded graph by a depth-first
walk and propagates adjoints through it once, each sum in the order of a
serial walk in reverse, so the bits are that walk's even when two
threads walk it. The walk consumes the graph: each node drops its inputs and rule before the rule
runs, so an intermediate array is freed as soon as its last consumer has
passed its adjoint on, and a training step's graph is gone before the
next forward builds its own. Differentiating a consumed graph again
raises ``ContractError``, from the ordering walk, before any ``.grad``
is written. Gradients from separate graphs accumulate into ``.grad``
until ``zero_grad`` is called.

At import the module asks glibc's allocator to keep freed memory for
reuse: blocks up to 32 MiB (its 64-bit maximum) come from the heap
rather than from fresh ``mmap`` pages, and the heap is trimmed back to
the kernel only once 1 GiB sits free at its top. A training step frees
and reallocates the same multi-MB activations every step; with glibc's
defaults each of them came back as new pages, which cost a page fault
per 4 KiB: about 82k minor faults per quickstart training call and 50k
per 1000-sample evaluation on a 2-vCPU Xeon, against none with this
policy. Every thread also shares the one arena: the helper thread takes
part in every training step and evaluation pass, and memory a thread
frees into an arena of its own stays there, out of the other's reach
(quickstart training call peak RSS 132-135 MB with per-thread arenas
against 113-114 MB with one, on the same Xeon). Where ``mallopt`` is
missing (not glibc) this is skipped.

Top-k style index selection is deliberately *not* differentiable: the
indexing ops move values around and route gradients back to where they
came from; ``put_rows`` sums row blocks in list order, the MoE combine.
Graph recording is per thread: ``no_grad`` leaves other threads recording,
except the helper while it runs this thread's ``_split_map`` items.

``conv2d`` runs as BLAS GEMMs over a channel-major patch matrix of shape
[C*kh*kw, B*H'*W']. It is built a few samples at a time in one reused,
L2-sized buffer, each chunk by one gather copy through a strided view,
and GEMMed straight into the output (forward) or the kernel gradient
(backward). Every numpy call hands the GIL over, so a chunk takes few.
A stride-1 conv with a square kernel wider than its padding gets its
input gradient as a conv of the output gradient with the flipped kernel;
every other conv folds each chunk's ``w.T @ g`` straight into the input
gradient.

The program's one second thread is a helper: its pool is built at
import, starts the thread at the first submit and keeps it for the life
of the process. ``_on_both`` alone decides when a thread shares work with
it, by the one rule that keeps at most two threads busy. ``_split_map``
shares a list of items through it: the gaze encoder beside the image
stem, a hybrid block's DD and DE branches, and the evaluation pass's
batches; a conv's forward runs on the thread that calls it. A
``backward`` walk makes the helper a second walker: both threads take
items from one ready list (``_Walk``), nodes and the gradients that rules
return as functions (a conv's input and kernel gradients) alike.

``conv2d`` also takes an optional epilogue: after the GEMMs it adds the
bias, then the residual, then applies relu, in place on the whole output.
These are the float operations the separate ``add`` and ``relu`` ops
would run, so results are bit-identical, but the graph keeps one output
array per conv instead of one per step.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import itertools
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float64

# glibc mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_pages() -> None:
    """Serve blocks up to 32 MiB from one heap, trimmed only past 1 GiB free."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_pages()


class _ThreadState(threading.local):
    grad = True  # this thread records graphs
    shares = True  # this thread may share work with the helper


_state = _ThreadState()


class no_grad:
    """Context manager that disables graph recording on the calling thread."""

    def __enter__(self):
        self._prev = _state.grad
        _state.grad = False
        return self

    def __exit__(self, *exc):
        _state.grad = self._prev
        return False


@functools.cache
def usable_cpus() -> int:
    """CPUs this process may run on, counted once, at the first call.

    Its affinity mask where the OS has one (Linux), else every CPU.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _hold_serial() -> None:
    _state.shares = False


def _new_helper() -> None:
    """Bind ``_helper``, the one helper thread's pool; its thread never shares.

    The pool starts its thread at the first submit. A forked child gets a
    fresh pool: it has no helper thread, only the parent's pool object.
    """
    global _helper
    _helper = futures.ThreadPoolExecutor(1, "split-helper", initializer=_hold_serial)


_helper: futures.ThreadPoolExecutor
_new_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)


class Tensor:
    """N-dimensional array node in the autodiff graph.

    ``data`` is always a C-contiguous (row-major) numpy array. ``grad``
    is lazily allocated with the same shape. Tensors compare by identity
    so they can key dicts during the backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        # np.ascontiguousarray would promote a 0-d array to shape (1,)
        self.data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # set by _make_op for non-leaf tensors; the rule gives each input an
        # array, a zero-argument function that returns one, or None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def item(self) -> float:
        if self.data.size != 1:
            _scalar_err(self)
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __radd__(self, other):
        return add(_lift(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _lift(other, self.dtype))

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __rmul__(self, other):
        return mul(_lift(other, self.dtype), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    @property
    def T(self):
        return transpose(self)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)


def _scalar_err(t):
    raise ContractError(f"expected a scalar tensor, got shape {t.shape}")


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make_op(out_data: np.ndarray, parents: Iterable[Tensor], backward) -> Tensor:
    parents = tuple(parents)
    out = Tensor(out_data)
    if _state.grad and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss.

    Populates ``.grad`` on every tensor with ``requires_grad`` reachable
    from ``loss``. The graph is walked once and freed as it is walked:
    every op node loses its inputs and backward rule, so the arrays they
    saved go as soon as nothing else names them. Calling ``backward``
    again on the same loss, or on a new graph that reuses one of its
    intermediates, raises ``ContractError`` while the graph is being
    ordered, so no ``.grad`` changes. Calls over separate graphs
    accumulate into ``.grad`` until ``zero_grad``.

    The graph is ordered by a depth-first walk; the serial walk would run
    the nodes in reverse of that order. Here this thread and the helper
    both take work from one ready list (``_Walk``): a node is ready once
    every node that consumes it has run, and the ready node latest in the
    serial order goes first. A rule may return any input's gradient as a
    zero-argument function; that function is an item of its own, ready
    right after its node, and is never run if the input needs no
    gradient. A node's adjoint adds its consumers' gradients in the
    serial walk's order and association, each as soon as every one before
    it is in, so the sums are the serial walk's bit for bit. Each
    gradient a rule returns for a leaf keeps its place in the serial
    order and is added into the leaf's ``.grad`` after the walk, in that
    order: one addition per input of each node, so a leaf that is two
    inputs of one node gets two. With one usable CPU, on the helper, or
    inside a share (see ``_on_both``) this thread walks alone. This
    returns or raises only once both walkers have stopped; the first
    error stops both, and then no ``.grad`` changes.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not require grad; nothing to differentiate")
    walk = _Walk(loss, _order(loss))
    _on_both(walk.walker)
    if walk.error is not None:
        raise walk.error
    for leaf, g in zip(walk.leaves, walk.grads):
        if g is not None:
            leaf.accumulate_grad(g)


def _order(loss: Tensor) -> list[Tensor]:
    """The op nodes behind ``loss`` in post-order: every one after its inputs.

    Raises ``ContractError`` at a node an earlier walk has consumed.
    """
    nodes: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if node._backward is not None:
                nodes.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _consumed:
            _consumed()  # refuse before any adjoint reaches a .grad
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return nodes


class _Adjoint:
    """A node's adjoint: its consumers' gradients, added in serial walk order."""

    __slots__ = ("edges", "added", "value", "early", "busy")

    def __init__(self):
        self.edges = 0  # gradients the node gets, one per consumer input it is
        self.added = 0  # how many of them are in ``value``
        self.value = None  # their sum so far, None while every one was None
        self.early: dict = {}  # edge -> a gradient that came before its turn
        self.busy = False  # a thread is adding to ``value``


class _Walk:
    """One ``backward`` pass's ready list, shared by the threads that walk it.

    Nodes are named by their index ``i`` in the depth-first order, so the
    serial walk runs ``i`` from the last down to 0. A node's gradient for
    its input ``s`` goes to edge ``k`` of that input's ``_Adjoint`` when
    the input is an op node (its consumers' edges numbered by consumer
    index descending, then input slot), else to slot ``k`` of ``grads``,
    the leaf gradients in the order the serial walk would queue them.
    """

    def __init__(self, loss: Tensor, nodes: list):
        seed = np.ones_like(loss.data)
        index = {id(node): i for i, node in enumerate(nodes)}
        self.nodes = nodes
        self.adjoints = [_Adjoint() for _ in nodes]
        self.leaves = [loss]  # the serial walk queues the loss's own seed first
        self.targets: list = [None] * len(nodes)  # per node, per input: (node or None, k)
        for j in range(len(nodes) - 1, -1, -1):
            targets = []
            for parent in nodes[j]._parents:
                if not parent.requires_grad:
                    targets.append(None)
                elif parent.is_leaf:
                    targets.append((None, len(self.leaves)))
                    self.leaves.append(parent)
                else:
                    p = index[id(parent)]
                    targets.append((p, self.adjoints[p].edges))
                    self.adjoints[p].edges += 1
            self.targets[j] = targets
        self.grads: list = [seed] + [None] * (len(self.leaves) - 1)
        self.cond = threading.Condition()
        # (-i, 0, adjoint) for node i, (-i, n, (fn, target)) for the n-th function queued
        self.ready: list = [(1 - len(nodes), 0, seed)] if nodes else []  # the loss
        self.queued = 0
        self.left = len(nodes)  # nodes and functions not yet run
        self.error: BaseException | None = None

    def walker(self) -> None:
        """Run ready items, latest in serial order first, until none is left or one fails."""
        try:
            while True:
                with self.cond:
                    while not self.ready and self.left and self.error is None:
                        self.cond.wait()
                    if not self.left or self.error is not None:
                        return
                    rank, n, item = heapq.heappop(self.ready)
                if n:
                    self._give(item[1], item[0]())  # (fn, target)
                else:
                    self._run(-rank, item)
                del item
                with self.cond:
                    self.left -= 1
                    if not self.left:
                        self.cond.notify_all()
        except BaseException as e:  # the first error stops both walkers
            with self.cond:
                if self.error is None:
                    self.error = e
                self.cond.notify_all()

    def _run(self, i: int, g: np.ndarray | None) -> None:
        """Run node ``i``'s rule on its adjoint ``g`` and pass each gradient on.

        A gradient the rule returns as a function is queued right after node
        ``i``, to be run by whichever walker pops it; one for an input that
        needs no gradient is dropped unrun.
        """
        node, self.nodes[i] = self.nodes[i], None
        # unhook the node first: once its rule has run, nothing but the
        # caller's own names keeps its inputs or their saved arrays alive
        back = node._backward
        node._parents = ()
        node._backward = _consumed
        del node
        grads = () if g is None else back(g)
        del g, back
        targets, self.targets[i] = self.targets[i], None
        # a rule that returns fewer gradients than inputs gives the rest nothing
        for target, pg in zip(targets, itertools.chain(grads, itertools.repeat(None))):
            if target is None:
                continue
            if not callable(pg):
                self._give(target, pg)
            else:
                with self.cond:
                    self.queued += 1
                    self.left += 1
                    heapq.heappush(self.ready, (-i, self.queued, (pg, target)))
                    self.cond.notify()

    def _give(self, target: tuple, g: np.ndarray | None) -> None:
        """Hand ``g`` to ``target``: a leaf's slot in ``grads``, or an op node's adjoint edge."""
        p, k = target
        if p is None:
            self.grads[k] = g
        else:
            self._add(p, k, g)

    def _add(self, p: int, k: int, g: np.ndarray | None) -> None:
        """Give node ``p`` its edge-``k`` gradient; the node is ready once all are in."""
        adjoint = self.adjoints[p]
        with self.cond:
            adjoint.early[k] = g
            if adjoint.busy:
                return  # the busy thread adds it in turn
            adjoint.busy = True
        # this thread alone adds to the value until the next edge's gradient is missing
        while True:
            with self.cond:
                if adjoint.added not in adjoint.early:
                    adjoint.busy = False
                    if adjoint.added == adjoint.edges:
                        heapq.heappush(self.ready, (-p, 0, adjoint.value))
                        adjoint.value = None
                        self.cond.notify()
                    return
                g = adjoint.early.pop(adjoint.added)
            adjoint.added += 1
            if g is not None:
                adjoint.value = g if adjoint.value is None else adjoint.value + g


def _consumed(*_):
    """Backward rule left on a node once a walk has run its real one."""
    raise ContractError(
        "this graph was already differentiated: backward frees a graph as it "
        "walks it, so rebuild the forward pass before calling backward again"
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes)
    return grad.reshape(shape)


# -- elementwise arithmetic -------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make_op(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make_op(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make_op(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make_op(a.data * c, (a,), lambda g: (g * c,))


# -- reductions and shape ops -----------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def back(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make_op(out, (a,), back)


def tmean(a: Tensor, axis=None) -> Tensor:
    """Mean over ``axis`` (None, an int or a tuple of ints)."""
    out = a.data.mean(axis=axis)
    n = a.data.size // np.size(out)

    def back(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, a.shape).copy(),)

    return _make_op(out, (a,), back)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _make_op(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise DimensionError(f"transpose expects a 2-d tensor, got shape {a.shape}")
    return _make_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make_op(out, tensors, back)


# -- linear algebra ----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out = a.data @ b.data
    return _make_op(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


# -- activations -------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _make_op(out, (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _make_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - np.expand_dims(a.data.max(axis=axis), axis)
    e = np.exp(shifted)
    out = e / np.expand_dims(e.sum(axis=axis), axis)

    def back(g):
        dot = np.expand_dims((g * out).sum(axis=axis), axis)
        return ((g - dot) * out,)

    return _make_op(out, (a,), back)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"log_softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - np.expand_dims(a.data.max(axis=axis), axis)
    lse = np.log(np.expand_dims(np.exp(shifted).sum(axis=axis), axis))
    out = shifted - lse

    def back(g):
        return (g - np.exp(out) * np.expand_dims(g.sum(axis=axis), axis),)

    return _make_op(out, (a,), back)


# -- convolution -------------------------------------------------------


# Patch-matrix chunk budget in bytes. One core's L2 is 2 MiB on the 2-vCPU
# Xeon this was tuned on, so a 1 MiB chunk is still cached when its GEMM
# reads it. Summed over the six B=64 quickstart conv shapes (float64,
# OpenBLAS, one thread), budgets of 0.5/1/2/4 MiB took 27.0/24.7/25.4/38.8 ms
# forward and 60.9/61.2/73.5/97.4 ms backward. A whole patch matrix is
# worse still: past 32 MiB glibc maps every fresh buffer with new pages, so
# each call pays the page faults again.
_PATCH_BYTES = 1 << 20


def _chunk_samples(x: np.ndarray, kh: int, kw: int, oh: int, ow: int) -> int:
    """Samples per patch chunk of a conv over ``x``: as many as fit ``_PATCH_BYTES``, at least one."""
    B, C = x.shape[:2]
    return max(1, min(B, _PATCH_BYTES // (C * kh * kw * oh * ow * x.itemsize)))


def _patch_chunks(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int):
    """Yield ``(b0, cols)``: the patch matrix of ``x[b0:b0+n]`` as [C*kh*kw, n, oh*ow].

    The chunks cover the batch in order, ``nb`` samples each (the last may
    hold fewer), from ``b0 = 0``. Row ``(c*kh + i)*kw + j`` holds
    ``xp[c, b, i + stride*y, j + stride*x]`` over the chunk's output
    positions ``(b, y, x)``, ``xp`` being the chunk zero-padded
    channel-major: one gather copy through a strided view, after one copy
    into a chunk-sized zero-bordered buffer if ``pad`` is set. Every chunk
    is gathered into the same buffer of about ``_PATCH_BYTES``, so a yielded
    ``cols`` is valid only until the next one.
    """
    B, C, H, W = x.shape
    nb = _chunk_samples(x, kh, kw, oh, ow)
    # the border is never written; samples past a partial chunk's n are stale but never read
    xp = np.zeros((C, nb, H + 2 * pad, W + 2 * pad), x.dtype) if pad else x.transpose(1, 0, 2, 3)
    sc, sb, sh, sw = xp.strides
    # in bounds: (oh-1)*stride <= H+2*pad-kh by oh's definition, and the same for the width
    view = np.lib.stride_tricks.as_strided(
        xp, (C, kh, kw, xp.shape[1], oh, ow), (sc, sh, sw, sb, stride * sh, stride * sw),
        writeable=False)
    buf = np.empty((C, kh, kw, nb, oh, ow), dtype=x.dtype)
    for b0 in range(0, B, nb):
        n = min(nb, B - b0)
        cols = buf[:, :, :, :n]
        if pad:
            xp[:, :n, pad : pad + H, pad : pad + W] = x[b0 : b0 + n].transpose(1, 0, 2, 3)
            cols[...] = view[:, :, :, :n]
        else:
            cols[...] = view[:, :, :, b0 : b0 + n]
        yield b0, cols.reshape(C * kh * kw, n, oh * ow)


def _drain(fn: Callable, todo: Iterable[tuple[int, object]], results: list, failed: list,
           grad: bool) -> None:
    """Run ``fn`` on the next untaken item of ``todo`` under ``grad`` until none is left.

    Stops at an item that raises, with ``(index, error)`` put on ``failed``.
    """
    prev, _state.grad = _state.grad, grad
    try:
        # two threads may share ``todo``: each next() on it is one C call, atomic under the GIL
        for i, item in todo:
            try:
                results[i] = fn(item)
            except BaseException as e:
                failed.append((i, e))
                return
    finally:
        _state.grad = prev


def _on_both(job: Callable, *args) -> None:
    """``job(*args)`` on this thread, and on the helper beside it if this thread may share.

    A thread may share in a process that may use two CPUs, while its flag
    is set. This thread clears its flag while ``job`` runs here, and the
    helper's is always clear, so a share begun inside ``job`` on either
    thread runs inline and nothing on the helper ever waits for the helper.
    Both runs of ``job`` are done before this returns or raises.
    """
    helper = _helper.submit(job, *args) if _state.shares and usable_cpus() >= 2 else None
    shares, _state.shares = _state.shares, False
    try:
        job(*args)
    finally:
        _state.shares = shares
        if helper is not None:
            futures.wait((helper,))
    if helper is not None:
        helper.result()


def _split_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, the items shared with the helper thread.

    With at least two items, this thread and the helper (see ``_on_both``)
    each take the next untaken item until none is left, each under this
    thread's grad mode (``no_grad`` here holds for the helper's items too);
    results come back in item order. A nested call, or one from a
    ``backward`` rule, runs inline. If items raise, the error of the first
    of them in item order propagates: every item before it was taken first
    and ran to the end, so it is the error a serial loop would raise.
    """
    if len(items) < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    failed: list = []
    _on_both(_drain, fn, enumerate(items), results, failed, _state.grad)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def _conv_forward(x: np.ndarray, w: np.ndarray, stride: int, pad: int,
                  bias: np.ndarray | None = None, residual: np.ndarray | None = None,
                  relu: bool = False) -> np.ndarray:
    """Cross-correlate [B,C,H,W] with [O,C,kh,kw] -> contiguous [B,O,H',W'].

    Each chunk's GEMM writes its samples' rows of the output directly; the
    epilogue (``+ bias``, ``+ residual``, then relu) then runs once, in
    place on the whole output.
    """
    B, _, H, W = x.shape
    O, _, kh, kw = w.shape
    oh = (H + 2 * pad - kh) // stride + 1
    ow = (W + 2 * pad - kw) // stride + 1
    wmat = w.reshape(O, -1)  # [O, CK]
    extra = [a for a in (bias, residual) if a is not None]
    out = np.empty((B, O, oh * ow), dtype=np.result_type(x, w, *extra))
    for b0, cols in _patch_chunks(x, kh, kw, stride, pad, oh, ow):
        np.matmul(wmat, cols.transpose(1, 0, 2), out=out[b0 : b0 + cols.shape[1]])
    if bias is not None:
        out += bias[:, None]
    if residual is not None:
        out += residual.reshape(out.shape)
    if relu:
        np.maximum(out, 0.0, out=out)
    return out.reshape(B, O, oh, ow)


def _conv_input_grad(g: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int,
                     pad: int) -> np.ndarray:
    """The gradient of a conv of ``w`` over ``x`` with respect to ``x``, given ``g``.

    A stride-1 conv with a square kernel wider than its padding gets it as a
    conv of ``g`` with the flipped, transposed kernel; any other folds each
    patch chunk's ``w.T @ g`` straight into the zero input gradient, one
    slice-add per kernel offset over the output positions that land inside
    the input (those that land in the padding add nothing to it). Each
    element gets the same additions in the same order as it would in a
    zero-padded buffer, so the bits are the same, without the padded buffer
    or a copy out of it. Inside a ``backward`` walk it runs on whichever
    walker takes it from the ready list.
    """
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    if stride == 1 and kh == kw and pad < kh:
        return _conv_forward(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, kh - 1 - pad)
    oh, ow = g.shape[2:]
    wmat = w.reshape(O, -1)

    def inside(k: int, size: int, n: int) -> tuple[int, int, slice]:
        """Outputs [lo, hi) whose input index k + stride*y - pad is in range, and those indices."""
        lo = max(0, -(-(pad - k) // stride))
        hi = min(n, (size - 1 - k + pad) // stride + 1)
        first = k + stride * lo - pad
        return lo, hi, slice(first, first + stride * (hi - lo - 1) + 1, stride)

    offsets = [(i, j, inside(i, H, oh), inside(j, W, ow)) for i in range(kh) for j in range(kw)]
    dx = np.zeros((B, C, H, W), dtype=g.dtype)
    nb = _chunk_samples(x, kh, kw, oh, ow)  # the patch matrix's chunks
    for b0 in range(0, B, nb):
        n = min(nb, B - b0)
        gm = g[b0 : b0 + n].transpose(1, 0, 2, 3).reshape(O, -1)  # [O, n*L]
        dcols = (wmat.T @ gm).reshape(C, kh, kw, n, oh, ow).transpose(3, 0, 1, 2, 4, 5)
        for i, j, (y0, y1, rows), (x0, x1, cols) in offsets:
            if y1 > y0 and x1 > x0:
                dx[b0 : b0 + n, :, rows, cols] += dcols[:, :, i, j, y0:y1, x0:x1]
    return dx


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0, bias: Tensor | None = None,
           residual: Tensor | None = None, relu: bool = False) -> Tensor:
    """2-d cross-correlation with zero padding and a fused epilogue.

    x: [B,C,H,W], w: [O,C,kh,kw] -> [B,O,H',W'] with
    H' = (H + 2*pad - kh)//stride + 1. The epilogue computes
    ``relu(conv + bias[None, :, None, None] + residual)``, each part
    optional (bias [O], residual [B,O,H',W']), in that order and with the
    same float operations as the separate ops, so the result is bit for bit
    theirs; the graph keeps one array for the whole chain instead of one per
    step.

    Lowered to GEMMs over a channel-major patch matrix of shape
    [C*kh*kw, B*H'*W'] that is never built whole: ``_patch_chunks`` fills
    it a few samples at a time in one reused ~1 MiB buffer, one gather copy
    per chunk. Forward GEMMs each chunk with ``w`` straight into the output,
    then applies the epilogue once to the whole output. Backward masks ``g``
    by ``out > 0`` when relu is fused (exactly where the pre-activation is
    > 0), which is then the residual's gradient. The kernel gradient
    rebuilds the chunks from ``x`` (keeping them would hold a patch matrix
    per conv in the graph) and adds up ``g @ cols.T`` chunk by chunk; the
    bias gets its sum over (B, H', W'). The input gradient, when ``x``
    needs one, is a stride-1 conv of ``g`` with the flipped, transposed
    kernel and padding ``k - 1 - pad`` if ``stride == 1`` and the kernel is
    a square k x k with ``pad < k`` (its output is exactly H x W);
    otherwise each chunk's ``w.T @ g`` is folded into it with one slice-add
    per kernel offset.

    The forward runs on the calling thread. The backward rule returns the
    input and kernel gradients as functions, which the ``backward`` walk
    queues side by side, so either walker may run each; one for an input
    that needs no gradient never runs. The bits match one thread's: each
    gradient runs its chunks and BLAS calls in order on one thread.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d input and kernel, got {x.shape} and {w.shape}")
    B, C, H, W = x.shape
    O, Cw, kh, kw = w.shape
    if Cw != C:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    if stride < 1:
        raise DimensionError(f"conv2d stride must be >= 1, got {stride}")
    if pad < 0:
        raise DimensionError(f"conv2d pad must be >= 0, got {pad}")
    if kh > H + 2 * pad or kw > W + 2 * pad:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {H + 2 * pad}x{W + 2 * pad}"
        )
    oh = (H + 2 * pad - kh) // stride + 1
    ow = (W + 2 * pad - kw) // stride + 1
    if bias is not None and bias.shape != (O,):
        raise DimensionError(f"conv2d bias must have shape ({O},), got {bias.shape}")
    if residual is not None and residual.shape != (B, O, oh, ow):
        raise DimensionError(
            f"conv2d residual {residual.shape} does not match output {(B, O, oh, ow)}"
        )
    out = _conv_forward(x.data, w.data, stride, pad,
                        None if bias is None else bias.data,
                        None if residual is None else residual.data, relu)

    def back(g):
        if relu:
            g = g * (out > 0)

        def kernel_grads():
            """The kernel gradient, ``g @ cols.T`` added chunk by chunk."""
            gw = np.zeros((O, C * kh * kw), dtype=np.result_type(g, x.data))
            for b0, cols in _patch_chunks(x.data, kh, kw, stride, pad, oh, ow):
                gm = g[b0 : b0 + cols.shape[1]].transpose(1, 0, 2, 3).reshape(O, -1)  # [O, n*L]
                gw += gm @ cols.reshape(C * kh * kw, -1).T
            return gw.reshape(w.shape)

        grads = [lambda: _conv_input_grad(g, x.data, w.data, stride, pad), kernel_grads]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        if residual is not None:
            grads.append(g)
        return grads

    parents = [t for t in (x, w, bias, residual) if t is not None]
    return _make_op(out, parents, back)


# -- index ops (values move, gradients follow; indices are constants) --


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along axis 0: out[i] = x[idx[i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    out = x.data[idx]

    # MoE dispatch passes sorted unique rows (from np.nonzero); those need no
    # unbuffered add.at, and 0 + g is the same bits either way
    distinct = idx.ndim == 1 and (idx.size == 0 or idx[0] >= 0) and bool(np.all(np.diff(idx) > 0))

    def back(g):
        gx = np.zeros_like(x.data)
        if distinct:
            gx[idx] += g
        else:
            np.add.at(gx, idx, g)
        return (gx,)

    return _make_op(out, (x,), back)


def put_rows(parts: Sequence[Tensor], rows: Sequence[np.ndarray], num_rows: int) -> Tensor:
    """Sum row blocks into ``num_rows`` zero rows in list order: out[rows[i]] += parts[i].

    Rows may repeat across blocks, not within one. Block i's gradient is g[rows[i]].
    """
    out = np.zeros((num_rows,) + parts[0].shape[1:], dtype=parts[0].dtype)
    out[rows[0]] = parts[0].data
    for part, idx in zip(parts[1:], rows[1:]):
        out[idx] += part.data
    return _make_op(out, parts, lambda g: [g[idx] for idx in rows])


# -- gradient verification ---------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_coord: int
    n_checked: int
    tol: float
    # one-sided differences (f(x+eps)-f(x))/eps and (f(x)-f(x-eps))/eps at
    # the worst coordinate; far apart means f has a kink there
    forward_diff: float
    backward_diff: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}) "
            f"at {self.worst_param}[{self.worst_coord}] over {self.n_checked} coordinates; "
            f"one-sided diffs there {self.forward_diff:.4e} (forward), "
            f"{self.backward_diff:.4e} (backward)"
        )


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    eps: float = 1e-5,
    tol: float = 1e-6,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare autodiff gradients of ``f()`` against central differences.

    ``f`` must be a deterministic scalar function of the given parameter
    tensors (checked by double evaluation) with a finite value. When
    ``max_coords_per_param`` is set, a seeded random subset of coordinates
    is probed per tensor; a check of zero coordinates raises
    ``ContractError``. Relative error uses
    ``|ad - fd| / max(|ad|, |fd|, 1e-6)``, and a coordinate whose
    difference or analytic gradient is not finite counts as an infinite
    error.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    if rng is None:
        rng = np.random.default_rng(0)
    coords = [
        np.arange(p.data.size)
        if max_coords_per_param is None or p.data.size <= max_coords_per_param
        else rng.choice(p.data.size, size=max_coords_per_param, replace=False)
        for _, p in params
    ]
    if not sum(len(c) for c in coords):
        raise ContractError("finite_diff_check would check zero coordinates")
    v1 = f().item()
    if not np.isfinite(v1):
        raise ContractError(f"f returned a non-finite loss {v1!r}")
    v2 = f().item()
    if v1 != v2:
        raise ContractError(f"f is not deterministic: {v1!r} != {v2!r}")

    for _, p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    grads = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for name, p in params}

    worst = (0.0, "", -1, 0.0, 0.0)
    n_checked = 0
    for (name, p), probes in zip(params, coords):
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for c in probes:
            orig = flat[c]
            flat[c] = orig + eps
            fp = f().item()
            flat[c] = orig - eps
            fm = f().item()
            flat[c] = orig
            fd = (fp - fm) / (2.0 * eps)
            ad = gflat[c]
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-6)
            if not np.isfinite(rel):  # inf, or nan that no comparison would catch
                rel = np.inf
            n_checked += 1
            if rel > worst[0]:
                worst = (rel, name, int(c), (fp - v1) / eps, (v1 - fm) / eps)
    rel, name, coord, forward_diff, backward_diff = worst
    return GradCheckReport(rel, name, coord, n_checked, tol, forward_diff, backward_diff)
