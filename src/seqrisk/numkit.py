"""Dense tensors with tape-based reverse-mode automatic differentiation.

Everything is a contiguous row-major numpy array (float32 by default;
float64 is available for verification against finite differences).
Operations executed while a Graph is active are recorded on a tape in
execution order; ``backward`` replays the tape in reverse, accumulating
gradients additively across fan-out.  The tape holds gradient slots and
the arrays each backward rule reads, not the ops' outputs, and backward
frees each rule's arrays once it has run.  Tensors are immutable once
produced by an op, so a frozen model can be shared across threads; a graph
itself must only ever be recorded into by one thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError, NumericsError

DEFAULT_DTYPE = np.float32

# the score `attention` gives a masked key: exp() of it underflows to 0
NEG_INF_FILL = -1e9

LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


class GradSlot:
    """The gradient accumulator of one tensor, with the shape and dtype its
    gradient takes.  The tensor, the node that produced it and the rules of
    the ops that read it share the slot, so the tape holds gradients
    without holding the tensors' data."""

    __slots__ = ("shape", "dtype", "grad")

    def __init__(self, shape: tuple[int, ...], dtype):
        self.shape = shape
        self.dtype = dtype
        self.grad: np.ndarray | None = None


class Tensor:
    """A shaped buffer of floats; one that requires grad carries a GradSlot."""

    __slots__ = ("data", "slot")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.slot = GradSlot(data.shape, data.dtype) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.slot is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self.slot is None:
            raise ContractError("a tensor that requires no grad holds no gradient")
        self.slot.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE, order="C")
    return Tensor(arr, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or DEFAULT_DTYPE), requires_grad)


class Node:
    """One recorded op: its output's gradient slot and its backward rule.
    The rule holds the input slots and only the arrays it reads; backward
    drops it once it has run."""

    __slots__ = ("slot", "backward_rule", "name")

    def __init__(self, slot: GradSlot, backward_rule: Callable[[np.ndarray], None], name: str):
        self.slot = slot
        self.backward_rule = backward_rule
        self.name = name


class Graph:
    """Tape of recorded operations, already in topological (execution) order."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _GRAPH_STACK.pop()
        assert popped is self


_GRAPH_STACK: list[Graph] = []


def _active_graph() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def _finish(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
            backward_rule: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result, check finiteness, and record it on the tape."""
    if not np.isfinite(out_data).all():
        raise NumericsError(f"non-finite values produced by op '{op}'")
    graph = _active_graph()
    requires = graph is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        graph.nodes.append(Node(out.slot, backward_rule, op))
    return out


def _accumulate(slot: GradSlot | None, grad: np.ndarray, shared: bool = False) -> None:
    """Add `grad` into slot.grad.  A first gradient is adopted as it is (cast
    only if its dtype differs), so a rule hands each input an array, or a
    view of one, that nothing else writes to; `shared` marks one that
    another input or a read-only broadcast also holds, and it is copied."""
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = grad.astype(slot.dtype, copy=shared)
    else:
        slot.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    sa, sb = a.slot, b.slot

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, _unbroadcast(g, sa.shape))
        if sb is not None:  # when a took g itself (unreduced), b takes a copy
            _accumulate(sb, _unbroadcast(g, sb.shape),
                        shared=sa is not None and sa.shape == g.shape)

    return _finish("add", out_data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    sa, sb = a.slot, b.slot
    # each input's gradient reads only the other operand
    a_data = a.data if sb is not None else None
    b_data = b.data if sa is not None else None

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, _unbroadcast(g * b_data, sa.shape))
        if sb is not None:
            _accumulate(sb, _unbroadcast(g * a_data, sb.shape))

    return _finish("mul", out_data, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out_data = a.data * a.data.dtype.type(s)
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        _accumulate(sa, g * s)

    return _finish("scale", out_data, (a,), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  Supports 2D x 2D, ND x ND with equal batch dims,
    and ND x 2D (the 2D operand acts on the last axis)."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractError(f"matmul needs >=2D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    if b.data.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise ContractError(f"matmul batch dimensions disagree: {a.shape} vs {b.shape}")
    out_data = a.data @ b.data
    sa, sb = a.slot, b.slot
    a_data = a.data if sb is not None else None
    b_data = b.data if sa is not None else None
    b_is_2d, a_is_2d = b.data.ndim == 2, a.data.ndim == 2

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            if b_is_2d:  # all rows of g at once; b.T copied: its view rounds short g otherwise
                _accumulate(sa, g @ np.ascontiguousarray(b_data.T))
            else:
                _accumulate(sa, g @ np.swapaxes(b_data, -1, -2))
        if sb is not None:
            if b_is_2d and not a_is_2d:
                k, n = sb.shape
                _accumulate(sb, a_data.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accumulate(sb, np.swapaxes(a_data, -1, -2) @ g)

    return _finish("matmul", out_data, (a, b), rule)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)
    sa = a.slot
    positive = a.data > 0 if sa is not None else None  # the mask, not the input

    def rule(g: np.ndarray) -> None:
        _accumulate(sa, g * positive)

    return _finish("relu", out_data, (a,), rule)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)
    sa, a_data = a.slot, a.data

    def rule(g: np.ndarray) -> None:
        _accumulate(sa, g / a_data)

    return _finish("log", out_data, (a,), rule)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        _accumulate(sa, g * out_data)

    return _finish("exp", out_data, (a,), rule)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(sa, out_data * (g - inner))

    return _finish("softmax", out_data, (a,), rule)


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax along the last axis (stable, max-subtracted)."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        soft = np.exp(out_data)
        _accumulate(sa, g - soft * g.sum(axis=-1, keepdims=True))

    return _finish("log_softmax", out_data, (a,), rule)


def normalize_last(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero mean and unit variance along the last axis of a plain array:
    returns (x_hat, 1 / std).  The reductions call np.add.reduce directly,
    which sums exactly as ndarray.mean does without its wrapper."""
    n = x.shape[-1]
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(LAYER_NORM_EPS))
    return centered * inv_std, inv_std


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ContractError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim of {a.shape}")
    n = a.shape[-1]
    x_hat, inv_std = normalize_last(a.data)
    out_data = x_hat * gain.data + bias.data
    sa, s_gain, s_bias, gain_data = a.slot, gain.slot, bias.slot, gain.data

    def rule(g: np.ndarray) -> None:
        if s_gain is not None:
            _accumulate(s_gain, (g * x_hat).reshape(-1, n).sum(axis=0))
        if s_bias is not None:
            _accumulate(s_bias, g.reshape(-1, n).sum(axis=0))
        if sa is not None:
            gx = g * gain_data
            m1 = np.add.reduce(gx, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(gx * x_hat, axis=-1, keepdims=True) / n
            _accumulate(sa, inv_std * (gx - m1 - x_hat * m2))

    return _finish("layer_norm", out_data, (a, gain, bias), rule)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `weight` by integer id array; output ids.shape + (dim,)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ContractError(
            f"embedding ids out of range [0, {weight.shape[0]}): min={ids.min()}, max={ids.max()}")
    out_data = weight.data[ids]
    sw = weight.slot

    def rule(g: np.ndarray) -> None:
        if sw is not None:
            if sw.grad is None:
                sw.grad = np.zeros(sw.shape, sw.dtype)
            elif not sw.grad.flags.c_contiguous:
                sw.grad = np.ascontiguousarray(sw.grad)
            # flat indices: row-wise np.add.at's additions in its order, 3.4-5.3x faster
            dim = sw.shape[-1]
            at = (ids.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
            np.add.at(sw.grad.reshape(-1), at, g.reshape(-1))

    return _finish("embedding", out_data, (weight,), rule)


def take_along_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[..., t] = a[..., t, idx[..., t]]: select one entry per last-axis row."""
    idx = np.asarray(idx)
    if idx.shape != a.shape[:-1]:
        raise ContractError(f"index shape {idx.shape} must equal {a.shape[:-1]}")
    out_data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            full = np.zeros(sa.shape, sa.dtype)
            np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
            _accumulate(sa, full)

    return _finish("take_along_last", out_data, (a,), rule)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where `mask` is true by `value` (mask broadcasts to a)."""
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, a.data.dtype.type(value), a.data)
    if out_data.shape != a.shape:
        raise ContractError(f"mask shape {mask.shape} does not broadcast onto {a.shape}")
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        _accumulate(sa, np.where(mask, 0.0, g))

    return _finish("masked_fill", out_data, (a,), rule)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = np.ascontiguousarray(a.data.reshape(shape))
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        _accumulate(sa, g.reshape(sa.shape))

    return _finish("reshape", out_data, (a,), rule)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out_data = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        _accumulate(sa, g.transpose(inverse))

    return _finish("transpose", out_data, (a,), rule)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or start + length > a.shape[axis]:
        raise ContractError(f"narrow [{start}:{start + length}) exceeds axis {axis} of {a.shape}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out_data = np.ascontiguousarray(a.data[index])
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            full = np.zeros(sa.shape, sa.dtype)
            full[index] = g
            _accumulate(sa, full)

    return _finish("narrow", out_data, (a,), rule)


def _max_last(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True), folded in halves: the same values,
    several times faster than numpy's reduction over short rows."""
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        folded = np.maximum(a[..., :half], a[..., half: 2 * half])
        if a.shape[-1] % 2:
            np.maximum(folded[..., :1], a[..., -1:], out=folded[..., :1])
        a = folded
    return a


class Slots:
    """Where the rows of a packed [N, D] array sit in a padded [batch,
    length] grid: `index[b, t]` is the row in slot (b, t), -1 where the slot
    holds none.  Rows are numbered batch-major by `of`; a row may sit in
    several slots (`take` gives several batch rows the same rows).  Grids
    are split into heads, [batch, heads, length, D / heads]."""

    __slots__ = ("index", "_plans")

    def __init__(self, index: np.ndarray):
        self.index = np.asarray(index, dtype=np.int64)
        self._plans = {}

    @classmethod
    def of(cls, occupied: np.ndarray) -> "Slots":
        """Number the true slots of a bool [batch, length] array batch-major."""
        occupied = np.asarray(occupied, dtype=bool)
        return cls(np.where(occupied, np.cumsum(occupied).reshape(occupied.shape) - 1, -1))

    @classmethod
    def full(cls, batch: int, length: int) -> "Slots":
        """Every slot holds its own row: the layout of a [batch, length, D] array."""
        return cls(np.arange(batch * length).reshape(batch, length))

    def take(self, batch_rows: np.ndarray) -> "Slots":
        """The slots of the given batch rows, in that order (rows repeat)."""
        return Slots(self.index[batch_rows])

    def plan(self, heads: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Gather indices for grids split into `heads`.  First, of each grid
        entry [b, h, t] into the rows split into heads (row r, head h at
        r * heads + h; a slot's -1 lands on the last row).  Then (rows, at)
        pairs, ascending by row, `at` [n, heads] indexing the flattened
        grid: a row's first slot (in slot order) is in the first pair, its
        second in the second, and so on, so that no pair names a row twice."""
        if heads not in self._plans:
            length = self.index.shape[1]
            head = np.arange(heads)
            flat = self.index.reshape(-1)
            slots = np.flatnonzero(flat >= 0)
            order = np.argsort(flat[slots], kind="stable")
            rows, slots = flat[slots][order], slots[order]
            rank = np.arange(rows.size) - np.searchsorted(rows, rows)
            at = ((slots // length * heads)[:, None] + head) * length + (slots % length)[:, None]
            groups = [(rows[rank == r], at[rank == r]) for r in range(int(rank.max(initial=-1)) + 1)]
            self._plans[heads] = self.index[:, None, :] * heads + head[:, None], groups
        return self._plans[heads]

    def spread(self, rows: np.ndarray, heads: int) -> np.ndarray:
        """The grid [batch, heads, length, D / heads] of rows [R, D] whose
        last row is zeros: that row fills the empty slots."""
        entries, _ = self.plan(heads)
        return np.take(rows.reshape(-1, rows.shape[1] // heads), entries, axis=0)

    def sum_rows(self, grid: np.ndarray, n_rows: int) -> np.ndarray:
        """Rows [n_rows, D] from a grid [batch, heads, length, D / heads]:
        each row the sum of its slots, added in slot order; zero for a row
        in no slot."""
        heads, dh = grid.shape[1], grid.shape[3]
        _, groups = self.plan(heads)
        split = np.reshape(grid, (-1, dh))  # a copy only when grid is a strided view
        if groups and groups[0][0].size == n_rows:  # every row sits somewhere
            out = np.take(split, groups[0][1], axis=0).reshape(n_rows, heads * dh)
            groups = groups[1:]
        else:
            out = np.zeros((n_rows, heads * dh), dtype=grid.dtype)
        for rows, at in groups:
            out[rows] += np.take(split, at, axis=0).reshape(-1, heads * dh)
        return out


def attention(query_x: Tensor, key_x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
              wo: Tensor, heads: int, mask: np.ndarray | None = None,
              keep: np.ndarray | None = None, query_slots: Slots | None = None,
              key_slots: Slots | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one op, through the
    [D, D] projections.  Queries and keys are packed rows, query_x [Nq, D]
    and key_x [Nk, D], placed in a grid of B sequences by `query_slots`
    ([B, Lq], each row in one slot) and `key_slots` ([B, Lk]; a row may sit
    in several slots).  Rows are projected once; scores, softmax, dropout
    and context run on the [B, heads, Lq, Lk] grid, an empty key slot
    holding zero keys and values; the output has one row per query row.
    The form query_x [B, Lq, D], key_x [B, Lk, D] without slots is the
    layout in which every slot holds its own row, and returns [B, Lq, D].

    Every empty key slot is suppressed (its score becomes NEG_INF_FILL),
    and so are the keys that `mask`, a bool array broadcastable to
    [B, heads, Lq, Lk], marks.  `keep`, shaped [B, heads, Lq, Lk], scales
    the attention weights (dropout).

    In the 3-D form, forward and backward make the numpy calls of the
    composed chain of matmul, reshape, transpose, scale, masked_fill,
    softmax and mul, on the same array layouts and in the same order, so
    results match it bit for bit.  A non-finite projection, score or context
    raises, naming the op and the intermediate; nothing else turns non-finite
    first (1/sqrt(dh) <= 1 keeps finite scores finite, a max-shifted softmax
    sums to >= 1, and a non-finite `keep` entry makes the context non-finite)."""
    dim = query_x.shape[-1]
    if query_x.data.ndim == 3 and query_slots is None and key_slots is None:
        if key_x.data.ndim != 3 or key_x.shape[0] != query_x.shape[0]:
            raise ContractError(f"attention query {query_x.shape} and keys {key_x.shape} disagree")
        query_slots, key_slots = Slots.full(*query_x.shape[:2]), Slots.full(*key_x.shape[:2])
    elif query_x.data.ndim != 2 or key_x.data.ndim != 2 or query_slots is None or key_slots is None:
        raise ContractError(f"attention takes [B, L, D] inputs, or [N, D] rows with their slots; "
                            f"got {query_x.shape} and {key_x.shape}")
    q_rows, k_rows = query_x.data.reshape(-1, dim), key_x.data.reshape(-1, dim)
    (bsz, q_len), k_len = query_slots.index.shape, key_slots.index.shape[1]
    if key_x.shape[-1] != dim or key_slots.index.shape[0] != bsz:
        raise ContractError(f"attention query {query_x.shape} and keys {key_x.shape} disagree")
    if dim % heads:
        raise ContractError(f"attention width {dim} not divisible by {heads} heads")
    q_groups = query_slots.plan(heads)[1]
    if len(q_groups) > 1 or q_groups and q_groups[0][0].size != q_rows.shape[0]:
        raise ContractError(f"query slots must hold each of the {q_rows.shape[0]} query rows once")
    if key_slots.index.max(initial=-1) >= k_rows.shape[0]:
        raise ContractError(f"key slots name rows beyond the {k_rows.shape[0]} key rows")
    for w in (wq, wk, wv, wo):
        if w.shape != (dim, dim):
            raise ContractError(f"attention projection {w.shape} must be ({dim}, {dim})")
    dh = dim // heads
    scores_shape = (bsz, heads, q_len, k_len)
    if keep is not None and keep.shape != scores_shape:
        raise ContractError(f"attention keep mask {keep.shape} must be {scores_shape}")
    s = 1.0 / math.sqrt(dh)
    empty = (key_slots.index < 0)[:, None, None, :]
    if empty.any():
        mask = empty if mask is None else np.asarray(mask, dtype=bool) | empty

    def checked(what: str, arr: np.ndarray) -> np.ndarray:
        if not np.isfinite(arr).all():
            raise NumericsError(f"non-finite values produced by op 'attention' ({what})")
        return arr

    def place(a: np.ndarray, b: np.ndarray, slots: Slots, what: str | None) -> np.ndarray:
        """(a @ b) by rows, placed in the grid [B, h, L, dh]."""
        rows = np.empty((a.shape[0] + 1, dim), dtype=a.dtype)
        rows[-1] = 0  # the row of the empty slots
        product = np.matmul(a, b, out=rows[:-1])
        if what is not None:
            checked(what, product)
        return slots.spread(rows, heads)

    q = place(q_rows, wq.data, query_slots, "projection")
    # a copy, as the composed ops make: products on the transposed view round differently
    kT = np.ascontiguousarray(place(k_rows, wk.data, key_slots, "projection").transpose(0, 1, 3, 2))
    v = place(k_rows, wv.data, key_slots, "projection")
    scores = checked("scores", q @ kT) * q.dtype.type(s)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        scores = np.where(mask, q.dtype.type(NEG_INF_FILL), scores)
        if scores.shape != scores_shape:
            raise ContractError(f"mask shape {mask.shape} does not broadcast onto {scores_shape}")
    shifted = scores - _max_last(scores)  # folded: faster than .max on rows of few keys
    e = np.exp(shifted)
    weights = e / e.sum(axis=-1, keepdims=True)
    dropped = weights if keep is None else weights * keep
    context = checked("context", dropped @ v)
    merged = query_slots.sum_rows(context, q_rows.shape[0])

    def project_back(rows: np.ndarray, slot: GradSlot | None, w: Tensor,
                     g_heads: np.ndarray, slots: Slots) -> None:
        g = slots.sum_rows(g_heads, rows.shape[0])
        if slot is not None:
            _accumulate(slot, (g @ np.ascontiguousarray(w.data.T)).reshape(slot.shape))
        if w.slot is not None:
            _accumulate(w.slot, rows.T @ g)

    s_query, s_key = query_x.slot, key_x.slot

    def rule(g: np.ndarray) -> None:
        g = g.reshape(-1, dim)
        if wo.slot is not None:
            _accumulate(wo.slot, merged.T @ g)
        g_context = place(g, np.ascontiguousarray(wo.data.T), query_slots, None)
        g_dropped = g_context @ np.swapaxes(v, -1, -2)
        # `weights` and `keep` are kept, not their product: it is made again
        # by the forward's own call
        g_v = np.swapaxes(weights if keep is None else weights * keep, -1, -2) @ g_context
        g_weights = g_dropped if keep is None else g_dropped * keep
        inner = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = weights * (g_weights - inner)
        if mask is not None:
            g_scores = np.where(mask, 0.0, g_scores)
        g_scores = g_scores * s
        # key_x takes the v gradient, then the k gradient, then (when it is
        # query_x) the q gradient: the composed tape's order of additions
        project_back(k_rows, s_key, wv, g_v, key_slots)
        project_back(k_rows, s_key, wk, (np.swapaxes(q, -1, -2) @ g_scores).transpose(0, 1, 3, 2),
                     key_slots)
        project_back(q_rows, s_query, wq, g_scores @ np.swapaxes(kT, -1, -2), query_slots)

    out = merged @ wo.data
    return _finish("attention", out.reshape(query_x.shape[:-1] + (dim,)),
                   (query_x, key_x, wq, wk, wv, wo), rule)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims), dtype=a.data.dtype)
    sa = a.slot

    def rule(g: np.ndarray) -> None:
        g_exp = g if axis is None or keepdims else np.expand_dims(g, axis)
        _accumulate(sa, np.broadcast_to(g_exp, sa.shape), shared=True)

    return _finish("sum", out_data, (a,), rule)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(graph: Graph, loss: Tensor,
             params: Mapping[str, Tensor] | None = None) -> dict[str, Tensor]:
    """Reverse the tape from `loss`, accumulating .grad on every tensor that
    requires grad.  Each node's rule, with the arrays it saved, is dropped
    as the pass reaches it, so a graph runs backward once.  Returns a copy
    of the gradient of each of `params` (name -> Tensor), which later
    accumulation or zeroing does not touch."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        rule, node.backward_rule = node.backward_rule, None
        g = node.slot.grad
        if g is None:
            continue
        if rule is None:
            raise ContractError("backward has already run on this graph")
        if node.slot is loss.slot:
            g = g.copy()  # a rule may hand g on to an input; loss.grad stays ones
        else:
            node.slot.grad = None  # free intermediate buffers as we go
        rule(g)
    if params is None:
        return {}
    return {name: Tensor(p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()}


# ---------------------------------------------------------------------------
# heap retention
# ---------------------------------------------------------------------------

# Freed memory that glibc's malloc keeps at the top of the heap (M_TOP_PAD,
# mallopt parameter -2).  A shipped MLE step frees up to 7.1 MB of tape (36
# sentences, target length 14) in a run whose tracemalloc peak is 9.3 MB.
HEAP_TOP_PAD = 64 << 20


@functools.lru_cache(maxsize=1)
def retain_heap_top() -> bool:
    """Have glibc's malloc keep HEAP_TOP_PAD bytes of freed memory at the top
    of the heap instead of handing it back to the system.  Every model pass,
    training or decoding, frees what it built; once nothing allocated later
    sits above it, malloc trims the heap and the next pass faults every page
    in again: hundreds of thousands of page faults in a shipped MLE run, and
    44.7k, not 1.0k, in a k=50 decode of 150 out-of-domain sources.  The
    setting is process-wide and stays; returns whether it was made (False
    where the C library has no mallopt)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt(-2, HEAP_TOP_PAD) == 1


# ---------------------------------------------------------------------------
# BLAS threading
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) for the thread count of the OpenBLAS that numpy loaded, or
    None when none is found among the process's mapped libraries (another
    BLAS, or a platform without /proc/self/maps)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", "", "_64"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, put.restype = ctypes.c_int, None
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


class single_blas_thread:
    """Context that runs BLAS on one thread and restores the previous count.

    A threaded OpenBLAS does not round every matrix product as the
    single-threaded one does, and risk training turns one such rounding
    difference near a sampling boundary into a different run.  With one
    thread the results do not depend on the host's core count.  A no-op
    when `openblas_threads` finds no OpenBLAS."""

    def __enter__(self):
        calls = openblas_threads()
        self._saved = None
        if calls is not None:
            self._saved = calls[0]()
            calls[1](1)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._saved is not None:
            openblas_threads()[1](self._saved)


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------


def finite_difference(f: Callable[[np.ndarray], float], x: np.ndarray,
                      step: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    x = x.copy()
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> float:
    """max |a-b| / (max(|a|,|b|) + atol), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a), np.abs(b)) + atol
    return float(np.max(np.abs(a - b) / denom))
