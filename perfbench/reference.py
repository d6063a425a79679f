"""A fixed yardstick for how fast the host runs at the moment.

`reference_pass` does the same work on every call and uses nothing of
seqrisk, so no change to the program moves it.  Its mix is modelled on what
the program spends its time on: many small numpy operations, each wrapped
in Python objects and closures the way an autodiff tape records them, a
few wider matrix products, and plain-Python bookkeeping.  A run times
passes between its units and set-ups; `wall_ref` divides the workload's
wall time by the median pass over the same stretch of time.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((32, 64))
_W1 = _RNG.standard_normal((64, 128)) * 0.1
_W2 = _RNG.standard_normal((128, 64)) * 0.1
_WIDE = _RNG.standard_normal((256, 256)) * 0.05
_WORDS = [f"w{i % 211}" for i in range(2000)]


class _Node:
    __slots__ = ("data", "grad", "parents", "rule")

    def __init__(self, data, parents=(), rule=None):
        self.data = data
        self.grad = None
        self.parents = parents
        self.rule = rule


def _matmul(a, b):
    def rule(g):
        return g @ b.data.T, a.data.T @ g
    return _Node(a.data @ b.data, (a, b), rule)


def _relu(a):
    mask = a.data > 0
    return _Node(a.data * mask, (a,), lambda g: (g * mask,))


def _log_softmax(a):
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(out)
    return _Node(out, (a,), lambda g: (g - probs * g.sum(axis=-1, keepdims=True),))


def _backward(root):
    order, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for parent in node.parents:
            visit(parent)
        order.append(node)

    visit(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.rule is None:
            continue
        for parent, grad in zip(node.parents, node.rule(node.grad)):
            parent.grad = grad if parent.grad is None else parent.grad + grad


def _network_step() -> float:
    x, w1, w2 = _Node(_X), _Node(_W1), _Node(_W2)
    out = _log_softmax(_matmul(_relu(_matmul(x, w1)), w2))
    _backward(out)
    return float(w1.grad.sum())


def _bookkeeping() -> int:
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    return len(sorted(counts, key=counts.get))


def reference_pass() -> float:
    """Seconds one pass of the fixed work takes (about 20 ms on a quiet
    host)."""
    start = time.perf_counter()
    for _ in range(20):
        _network_step()
    np.tanh(_WIDE @ _WIDE)
    _bookkeeping()
    return time.perf_counter() - start
