"""Forward oracles and finite-difference gradient checks for every
primitive in the autodiff layer.  All gradient checks run in float64 so the
finite-difference reference itself is trustworthy."""

import math
import weakref

import numpy as np
import pytest

from seqrisk import numkit as nk
from seqrisk.errors import ContractError, NumericsError

F64 = np.float64


def autodiff_grads(op, arrays, proj):
    """Gradient of sum(op(*inputs) * proj) with respect to every input."""
    tensors = [nk.tensor(a, requires_grad=True, dtype=F64) for a in arrays]
    with nk.Graph() as g:
        out = op(*tensors)
        loss = nk.sum_(nk.mul(out, nk.Tensor(proj)))
        nk.backward(g, loss)
    return [t.grad for t in tensors]


def fd_grads(op, arrays, proj, step=1e-5):
    grads = []
    for i in range(len(arrays)):
        def f(x, i=i):
            inputs = [nk.Tensor(x if j == i else arrays[j].astype(F64))
                      for j in range(len(arrays))]
            return float(np.sum(op(*inputs).data * proj))
        grads.append(nk.finite_difference(f, arrays[i].astype(F64), step=step))
    return grads


def check_op(op, arrays, tol=1e-6, step=1e-5):
    rng = np.random.default_rng(7)
    out = op(*[nk.Tensor(a.astype(F64)) for a in arrays])
    proj = rng.normal(size=out.shape)
    got = autodiff_grads(op, arrays, proj)
    want = fd_grads(op, arrays, proj, step=step)
    for g, w in zip(got, want):
        assert g is not None, "missing gradient"
        err = nk.max_relative_error(g, w)
        assert err < tol, f"gradient mismatch: relative error {err:.3g}"


class TestForward:
    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = nk.matmul(nk.Tensor(a), nk.Tensor(b)).data
        want = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        assert nk.max_relative_error(out, want) < 1e-12

    def test_matmul_batched_matches_einsum(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        out = nk.matmul(nk.Tensor(a), nk.Tensor(b)).data
        assert np.allclose(out, np.einsum("...ij,...jk->...ik", a, b))

    def test_matmul_nd_by_2d(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 4, 5))
        b = rng.normal(size=(5, 3))
        out = nk.matmul(nk.Tensor(a), nk.Tensor(b)).data
        assert np.allclose(out, a @ b)

    def test_matmul_shape_errors_name_both_shapes(self):
        a, b = nk.zeros((2, 3)), nk.zeros((4, 5))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 5\)"):
            nk.matmul(a, b)
        with pytest.raises(ContractError, match="matmul batch dimensions disagree"):
            nk.matmul(nk.zeros((2, 3, 4)), nk.zeros((3, 4, 5)))

    def test_softmax_rows_normalize(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 9)) * 5
        out = nk.softmax(nk.Tensor(x)).data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert (out > 0).all()

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 7)).astype(F64)
        base = nk.softmax(nk.Tensor(x)).data
        shifted = nk.softmax(nk.Tensor(x + 1000.0)).data
        assert nk.max_relative_error(base, shifted) < 1e-12

    def test_softmax_uniform_on_constant_rows(self):
        out = nk.softmax(nk.Tensor(np.full((2, 5), 3.0))).data
        assert np.allclose(out, 0.2)

    def test_log_softmax_consistent_with_softmax(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 8)).astype(F64) * 3
        ls = nk.log_softmax(nk.Tensor(x)).data
        s = nk.softmax(nk.Tensor(x)).data
        assert nk.max_relative_error(np.exp(ls), s) < 1e-12

    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 16)).astype(F64) * 4 + 2
        gain = nk.Tensor(np.ones(16))
        bias = nk.Tensor(np.zeros(16))
        out = nk.layer_norm(nk.Tensor(x), gain, bias).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_rejects_wrong_affine_shape(self):
        with pytest.raises(ContractError, match=r"layer_norm affine shapes \(4,\)/\(8,\)"):
            nk.layer_norm(nk.zeros((2, 8)), nk.zeros(4), nk.zeros(8))

    def test_embedding_gathers_rows(self):
        w = np.arange(12, dtype=F64).reshape(4, 3)
        ids = np.array([[0, 3], [2, 2]])
        out = nk.embedding(nk.Tensor(w), ids).data
        assert np.array_equal(out, w[ids])

    def test_embedding_rejects_bad_ids(self):
        with pytest.raises(ContractError, match=r"embedding ids out of range \[0, 4\): min=0, max=4"):
            nk.embedding(nk.zeros((4, 3)), np.array([0, 4]))

    def test_take_along_last(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 3, 5))
        idx = rng.integers(0, 5, size=(2, 3))
        out = nk.take_along_last(nk.Tensor(a), idx).data
        for i in range(2):
            for j in range(3):
                assert out[i, j] == a[i, j, idx[i, j]]
        with pytest.raises(ContractError, match=r"index shape \(2, 4\) must equal \(2, 3\)"):
            nk.take_along_last(nk.Tensor(a), np.zeros((2, 4), dtype=int))

    def test_masked_fill(self):
        a = nk.Tensor(np.ones((2, 3)))
        mask = np.array([[True, False, True], [False, False, False]])
        out = nk.masked_fill(a, mask, -9.0).data
        assert np.array_equal(out, np.where(mask, -9.0, 1.0))

    def test_narrow_slices_one_axis(self):
        a = nk.Tensor(np.arange(24, dtype=F64).reshape(2, 3, 4))
        out = nk.narrow(a, 1, 1, 2).data
        assert np.array_equal(out, a.data[:, 1:3])
        with pytest.raises(ContractError, match=r"narrow \[2:4\) exceeds axis 1"):
            nk.narrow(a, 1, 2, 2)

    def test_add_mul_broadcast(self):
        a = np.arange(6, dtype=F64).reshape(2, 3)
        b = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(nk.add(nk.Tensor(a), nk.Tensor(b)).data, a + b)
        assert np.array_equal(nk.mul(nk.Tensor(a), nk.Tensor(b)).data, a * b)

    def test_sub_and_scale(self):
        a, b = nk.Tensor(np.array([3.0, 5.0])), nk.Tensor(np.array([1.0, 2.0]))
        assert np.array_equal(nk.sub(a, b).data, [2.0, 3.0])
        assert np.array_equal(nk.scale(a, -2.0).data, [-6.0, -10.0])

    def test_mean_and_sum_axes(self):
        a = nk.Tensor(np.arange(6, dtype=F64).reshape(2, 3))
        assert nk.sum_(a).item() == 15.0
        assert np.array_equal(nk.sum_(a, axis=-1).data, [3.0, 12.0])
        assert nk.mean(a).item() == 2.5
        assert np.array_equal(nk.mean(a, axis=-1).data, [1.0, 4.0])

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            nk.zeros((2,)).item()


class TestFiniteChecks:
    def test_overflow_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            nk.exp(nk.Tensor(np.array([1000.0], dtype=np.float32)))

    def test_log_zero_raises(self):
        with np.errstate(divide="ignore"), pytest.raises(NumericsError):
            nk.log(nk.Tensor(np.array([0.0])))


class TestGradients:
    def test_add_broadcast(self):
        rng = np.random.default_rng(10)
        check_op(nk.add, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_mul_broadcast(self):
        rng = np.random.default_rng(11)
        check_op(nk.mul, [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))])

    def test_sub(self):
        rng = np.random.default_rng(12)
        check_op(nk.sub, [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_scale(self):
        rng = np.random.default_rng(13)
        check_op(lambda a: nk.scale(a, -1.7), [rng.normal(size=(3, 3))])

    def test_matmul_2d(self):
        rng = np.random.default_rng(14)
        check_op(nk.matmul, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def test_matmul_batched(self):
        rng = np.random.default_rng(15)
        check_op(nk.matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))])

    def test_matmul_nd_by_2d(self):
        rng = np.random.default_rng(16)
        check_op(nk.matmul, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))])

    def test_matmul_nd_by_2d_input_gradient_is_one_product(self):
        # the input gradient is one product of all B*T rows of g with a
        # contiguous b.T; at this shape the product with the transposed view
        # of b, done per batch row, rounds differently
        rng = np.random.default_rng(18)
        bsz, length, dim = 33, 12, 64
        a = nk.tensor(rng.standard_normal((bsz, length, dim)), requires_grad=True)
        b = nk.tensor(rng.standard_normal((dim, dim)), requires_grad=True)
        g = rng.standard_normal((bsz, length, dim)).astype(np.float32)
        with nk.Graph() as tape:
            nk.backward(tape, nk.sum_(nk.mul(nk.matmul(a, b), nk.Tensor(g))))
        want = (g.reshape(-1, dim) @ np.ascontiguousarray(b.data.T)).reshape(a.shape)
        assert a.grad.dtype == np.float32 and a.grad.tobytes() == want.tobytes()

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 4))
        x[np.abs(x) < 0.1] += 0.2
        check_op(nk.relu, [x])

    def test_log(self):
        rng = np.random.default_rng(18)
        check_op(nk.log, [rng.uniform(0.5, 3.0, size=(3, 4))])

    def test_exp(self):
        rng = np.random.default_rng(19)
        check_op(nk.exp, [rng.normal(size=(3, 4))])

    def test_softmax(self):
        rng = np.random.default_rng(20)
        check_op(nk.softmax, [rng.normal(size=(3, 6)) * 2])

    def test_log_softmax(self):
        rng = np.random.default_rng(21)
        check_op(nk.log_softmax, [rng.normal(size=(3, 6)) * 2])

    def test_layer_norm_all_inputs(self):
        rng = np.random.default_rng(22)
        check_op(nk.layer_norm,
                 [rng.normal(size=(4, 8)) * 2, rng.normal(size=(8,)),
                  rng.normal(size=(8,))], tol=1e-5)

    def test_embedding_with_repeated_ids(self):
        rng = np.random.default_rng(23)
        ids = np.array([[0, 2, 2], [1, 0, 3]])
        check_op(lambda w: nk.embedding(w, ids), [rng.normal(size=(5, 4))])

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("prior", ["none", "contiguous", "strided"])
    def test_embedding_gradient_adds_as_row_wise_add_at(self, dtype, prior):
        # the reference: np.add.at over whole rows, into the gradient the
        # weight already holds; repeated ids add in order of occurrence
        rng = np.random.default_rng(26)
        ids = np.concatenate([[1] * 9, rng.integers(0, 12, 40)]).reshape(7, 7)
        g = rng.standard_normal((7, 7, 16)).astype(dtype)
        held = rng.standard_normal((12, 16)).astype(dtype)
        want = np.zeros_like(held) if prior == "none" else held.copy()
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 16))
        weight = nk.Tensor(rng.standard_normal((12, 16)).astype(dtype), requires_grad=True)
        weight.grad = {"none": None, "contiguous": held.copy(),
                       "strided": np.asfortranarray(held)}[prior]
        with nk.Graph() as graph:
            nk.embedding(weight, ids)
        graph.nodes[-1].backward_rule(g)
        assert weight.grad.tobytes() == want.tobytes()

    def test_take_along_last(self):
        rng = np.random.default_rng(24)
        idx = rng.integers(0, 5, size=(2, 3))
        check_op(lambda a: nk.take_along_last(a, idx),
                 [rng.normal(size=(2, 3, 5))])

    def test_masked_fill(self):
        rng = np.random.default_rng(25)
        mask = rng.random((3, 4)) < 0.4
        check_op(lambda a: nk.masked_fill(a, mask, 5.0), [rng.normal(size=(3, 4))])

    def test_reshape_transpose_narrow(self):
        rng = np.random.default_rng(26)
        check_op(lambda a: nk.reshape(a, (6, 2)), [rng.normal(size=(3, 4))])
        check_op(lambda a: nk.transpose(a, (1, 0, 2)), [rng.normal(size=(2, 3, 4))])
        check_op(lambda a: nk.narrow(a, 1, 1, 2), [rng.normal(size=(3, 4))])

    def test_sum_and_mean(self):
        rng = np.random.default_rng(27)
        check_op(lambda a: nk.sum_(a, axis=-1), [rng.normal(size=(3, 4))])
        check_op(lambda a: nk.mean(a, axis=-1), [rng.normal(size=(3, 4))])
        check_op(lambda a: nk.reshape(nk.sum_(a), (1,)), [rng.normal(size=(3, 4))])

    def test_fanout_accumulates(self):
        x = nk.tensor([3.0], requires_grad=True, dtype=F64)
        with nk.Graph() as g:
            y = nk.add(x, x)
            loss = nk.sum_(y)
            nk.backward(g, loss)
        assert x.grad[0] == 2.0

        x2 = nk.tensor([3.0], requires_grad=True, dtype=F64)
        with nk.Graph() as g:
            loss = nk.sum_(nk.mul(x2, x2))
            nk.backward(g, loss)
        assert x2.grad[0] == 6.0

    def test_scalar_tensor_is_zero_dimensional(self):
        assert nk.tensor(1.5).shape == ()
        assert nk.tensor([1.5]).shape == (1,)
        c = nk.tensor(1.5, requires_grad=True, dtype=F64)
        x = nk.tensor([1.0, 2.0], requires_grad=True, dtype=F64)
        with nk.Graph() as g:
            loss = nk.sum_(nk.mul(x, c))
            nk.backward(g, loss)
        assert c.grad.shape == () and c.grad == 3.0
        assert np.array_equal(x.grad, [1.5, 1.5])

    def test_linear_chain_hand_value(self):
        # loss = sum((w x - y)^2): dL/dw = 2 (w x - y) x
        w = nk.tensor([2.0], requires_grad=True, dtype=F64)
        x, y = 3.0, 5.0
        with nk.Graph() as g:
            pred = nk.scale(w, x)
            err = nk.add(pred, nk.tensor([-y], dtype=F64))
            loss = nk.sum_(nk.mul(err, err))
            nk.backward(g, loss)
        assert w.grad[0] == pytest.approx(2 * (2.0 * x - y) * x)

    def test_untouched_params_get_zero_grads(self):
        used = nk.tensor([1.0, 2.0], requires_grad=True, dtype=F64)
        unused = nk.tensor([5.0], requires_grad=True, dtype=F64)
        with nk.Graph() as g:
            loss = nk.sum_(nk.mul(used, used))
            grads = nk.backward(g, loss, {"used": used, "unused": unused})
        assert np.array_equal(grads["used"].data, [2.0, 4.0])
        assert np.array_equal(grads["unused"].data, [0.0])

    def test_backward_requires_scalar(self):
        x = nk.tensor([1.0, 2.0], requires_grad=True)
        with nk.Graph() as g:
            y = nk.add(x, x)
            with pytest.raises(ContractError):
                nk.backward(g, y)


class TestGraphMechanics:
    def test_no_recording_without_graph(self):
        x = nk.tensor([1.0], requires_grad=True)
        y = nk.add(x, x)
        assert y.requires_grad is False

    def test_constant_inputs_not_recorded(self):
        with nk.Graph() as g:
            _ = nk.add(nk.tensor([1.0]), nk.tensor([2.0]))
        assert len(g.nodes) == 0

    def test_copy_free_accumulation_under_fan_out(self):
        # rules hand each input its gradient without copying it; an array
        # that reaches two inputs (add) or a read-only broadcast (sum_) is
        # copied.  x feeds add(x, x), mul(x, x), reshape, matmul and add(x, y);
        # y feeds transposes and add(x, y); add(x, y) is the last op on the
        # tape to use them, so its rule gives both their first gradient.
        rng = np.random.default_rng(4)
        x, y, w = (nk.tensor(rng.normal(size=shape), requires_grad=True, dtype=F64)
                   for shape in ((2, 3), (2, 3), (3, 3)))
        z = nk.tensor(rng.normal(size=(4,)), requires_grad=True, dtype=F64)
        c = nk.tensor([1.5], requires_grad=True, dtype=F64)
        proj = rng.normal(size=(2, 3))
        with nk.Graph() as g:
            parts = [nk.add(x, x), nk.mul(x, x),
                     nk.reshape(nk.reshape(x, (3, 2)), (2, 3)),
                     nk.transpose(nk.transpose(y, (1, 0)), (1, 0)),
                     nk.matmul(x, w), nk.add(x, y)]
            total = parts[0]
            for part in parts[1:]:
                total = nk.add(total, part)
            loss = nk.add(c, nk.add(nk.sum_(nk.mul(total, nk.Tensor(proj))), nk.sum_(z)))
            nk.backward(g, loss)
        xd, wd = x.data, w.data
        assert np.allclose(x.grad, proj * (2 + 2 * xd + 1 + 1) + proj @ wd.T)
        assert np.allclose(y.grad, 2 * proj)
        assert np.allclose(w.grad, xd.T @ proj)
        assert np.array_equal(z.grad, np.ones(4)) and np.array_equal(c.grad, [1.0])
        assert np.array_equal(loss.grad, [1.0])
        grads = [t.grad for t in (x, y, w, z, c, loss)]
        for i, a in enumerate(grads):
            assert a.flags.writeable
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_finite_difference_on_quadratic(self):
        # d/dx sum(x^2) = 2x, checked against the helper itself
        x = np.array([1.0, -2.0, 0.5])
        grad = nk.finite_difference(lambda v: float(np.sum(v ** 2)), x)
        assert nk.max_relative_error(grad, 2 * x) < 1e-8


def _leaf(rng, *shape):
    return nk.Tensor(rng.standard_normal(shape), requires_grad=True)


def _watch_output(t):
    return t, t


def _watch_input(t, op):
    return t, op(t)


# each builds, on the open graph, a tensor whose data no backward rule reads
# and the output that the loss is taken of; the leaves must get gradients
UNREAD_ON_THE_TAPE = {
    "add output": lambda leaves, rng: _watch_output(nk.add(leaves(3, 4), leaves(4))),
    "scale output": lambda leaves, rng: _watch_output(nk.scale(leaves(3, 4), 0.5)),
    "embedding output": lambda leaves, rng: _watch_output(
        nk.embedding(leaves(5, 4), [[0, 3], [3, 1]])),
    "attention output": lambda leaves, rng: _watch_output(nk.attention(
        *2 * [leaves(2, 3, 4)], *(leaves(4, 4) for _ in range(4)), 2, None,
        rng.random((2, 2, 3, 3)))),
    "pre-bias matmul output": lambda leaves, rng: _watch_input(
        nk.matmul(leaves(3, 4), leaves(4, 5)), lambda h: nk.add(h, leaves(5))),
    "layer_norm input": lambda leaves, rng: _watch_input(
        nk.scale(leaves(3, 4), 2.0), lambda a: nk.layer_norm(a, leaves(4), leaves(4))),
    "relu input": lambda leaves, rng: _watch_input(nk.add(leaves(3, 4), leaves(4)), nk.relu),
}


class TestTapeHoldsWhatRulesRead:
    """The tape holds gradient slots and the arrays its rules read, not
    the ops' outputs: an array that no rule reads goes with its tensor."""

    @pytest.mark.parametrize("case", list(UNREAD_ON_THE_TAPE))
    def test_unread_array_is_freed_with_its_tensor(self, case):
        rng = np.random.default_rng(11)
        made = []

        def leaves(*shape):
            made.append(_leaf(rng, *shape))
            return made[-1]

        with nk.Graph() as g:
            watched, out = UNREAD_ON_THE_TAPE[case](leaves, rng)
            freed = weakref.ref(watched.data)
            loss = nk.sum_(nk.mul(out, nk.Tensor(rng.standard_normal(out.shape))))
            del watched, out
            assert freed() is None, f"the tape still holds the {case}"
            nk.backward(g, loss)
        assert all(leaf.grad is not None and leaf.grad.shape == leaf.shape for leaf in made)

    def test_read_array_lives_until_its_rule_has_run(self):
        # matmul's rule reads the layer_norm output for the weight's gradient
        rng = np.random.default_rng(12)
        x, gain, bias, w = _leaf(rng, 3, 4), _leaf(rng, 4), _leaf(rng, 4), _leaf(rng, 4, 5)
        proj = rng.standard_normal((3, 5))
        with nk.Graph() as g:
            normed = nk.layer_norm(x, gain, bias)
            kept, want = weakref.ref(normed.data), normed.data.T @ proj
            loss = nk.sum_(nk.mul(nk.matmul(normed, w), nk.Tensor(proj)))
            del normed
            assert kept() is not None
            nk.backward(g, loss)
            assert kept() is None, "backward kept the rule's arrays after running it"
        assert np.array_equal(w.grad, want)
        assert all(node.backward_rule is None for node in g.nodes)

    def test_a_graph_runs_backward_once(self):
        x = nk.tensor([1.0, 2.0], requires_grad=True, dtype=F64)
        with nk.Graph() as g:
            loss = nk.sum_(nk.mul(x, x))
            nk.backward(g, loss)
            with pytest.raises(ContractError, match="already run"):
                nk.backward(g, loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_gradient_slot_is_shared_by_tensor_and_node(self):
        x = _leaf(np.random.default_rng(13), 2, 3)
        with nk.Graph() as g:
            out = nk.scale(x, 3.0)
        assert g.nodes[0].slot is out.slot and out.slot.shape == (2, 3)
        assert out.slot.dtype == out.dtype
        with pytest.raises(ContractError, match="requires no grad"):
            nk.tensor([1.0]).grad = np.ones(1)


def composed_attention(query_x, key_x, wq, wk, wv, wo, heads, mask, keep):
    """Multi-head attention as the chain of primitive ops that
    `nk.attention` fuses; the bit-for-bit reference for it."""
    bsz, q_len, dim = query_x.shape
    k_len = key_x.shape[1]
    dh = dim // heads

    def split_heads(t, length):
        return nk.transpose(nk.reshape(t, (bsz, length, heads, dh)), (0, 2, 1, 3))

    q = split_heads(nk.matmul(query_x, wq), q_len)
    k = split_heads(nk.matmul(key_x, wk), k_len)
    v = split_heads(nk.matmul(key_x, wv), k_len)
    scores = nk.scale(nk.matmul(q, nk.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if mask is not None:
        scores = nk.masked_fill(scores, mask, nk.NEG_INF_FILL)
    weights = nk.softmax(scores)
    if keep is not None:
        weights = nk.mul(weights, nk.Tensor(keep))
    context = nk.matmul(weights, v)
    context = nk.reshape(nk.transpose(context, (0, 2, 1, 3)), (bsz, q_len, dim))
    return nk.matmul(context, wo)


def attention_case(dtype, cross, masked, dropped):
    """Arrays for one attention call at model-like sizes: inputs, weights,
    a pad (cross) or causal-plus-pad (self) mask, a dropout keep mask, an
    output projection for the loss and, for cross-attention, a gradient that
    key_x already holds from elsewhere on the tape."""
    rng = np.random.default_rng(0)
    bsz, q_len, k_len, dim, heads = 3, 7, (9 if cross else 7), 64, 2

    def draw(shape, scale=1.0):
        return (rng.standard_normal(shape) * scale).astype(dtype)

    arrays = {"query_x": draw((bsz, q_len, dim)),
              "key_x": draw((bsz, k_len, dim)) if cross else None,
              "w": [draw((dim, dim), 0.1) for _ in range(4)],
              "proj": draw((bsz, q_len, dim)),
              "prior": draw((bsz, k_len, dim)) if cross else None}
    pad = np.zeros((bsz, k_len), dtype=bool)
    pad[1, -2:] = pad[2, -4:] = True
    if not masked:
        mask = None
    elif cross:
        mask = pad[:, None, None, :]
    else:
        mask = np.triu(np.ones((q_len, k_len), dtype=bool), k=1)[None, None] | pad[:, None, None, :]
    keep = None
    if dropped:
        keep = (rng.random((bsz, heads, q_len, k_len)) >= 0.3) * (dtype(1) / dtype(0.7))
    return arrays, heads, mask, keep


def run_attention(op, arrays, heads, mask, keep):
    """Output and every input gradient of sum(op(...) * proj)."""
    query_x = nk.Tensor(arrays["query_x"].copy(), requires_grad=True)
    key_x = query_x
    if arrays["key_x"] is not None:
        key_x = nk.Tensor(arrays["key_x"].copy(), requires_grad=True)
        key_x.grad = arrays["prior"].copy()
    ws = [nk.Tensor(w.copy(), requires_grad=True) for w in arrays["w"]]
    with nk.Graph() as g:
        out = op(query_x, key_x, *ws, heads, mask, keep)
        nk.backward(g, nk.sum_(nk.mul(out, nk.Tensor(arrays["proj"]))))
    grads = [t.grad for t in [query_x, key_x] + ws]
    return [out.data] + grads


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    @pytest.mark.parametrize("masked", [False, True], ids=["nomask", "mask"])
    @pytest.mark.parametrize("dropped", [False, True], ids=["nokeep", "keep"])
    def test_matches_composed_ops_bit_for_bit(self, dtype, cross, masked, dropped):
        case = attention_case(dtype, cross, masked, dropped)
        got = run_attention(nk.attention, *case)
        want = run_attention(composed_attention, *case)
        names = ["output", "query_x", "key_x", "wq", "wk", "wv", "wo"]
        for name, a, b in zip(names, got, want):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), f"{name} differs from the composed ops"

    def test_finite_difference_in_self_attention(self):
        # query_x is key_x, so its gradient sums three paths; the acceptance
        # sweep checks cross-attention
        rng = np.random.default_rng(30)
        bsz, length, dim, heads = 2, 3, 4, 2
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)[None, None]
        keep = (rng.random((bsz, heads, length, length)) >= 0.3) / 0.7
        check_op(lambda x, *w: nk.attention(x, x, *w, heads, mask, keep),
                 [rng.normal(size=(bsz, length, dim))]
                 + [rng.normal(size=(dim, dim)) for _ in range(4)])

    # where the non-finite value first shows; the dropped checks (scaled
    # scores, softmax, dropout) are implied by these, so each case still raises
    @pytest.mark.parametrize("case, named", [
        ("inf-weight", "projection"), ("inf-keep", "context"), ("nan-keep", "context"),
        ("inf-keep-masked", "context"), ("overflowing-scores", "scores")])
    def test_inf_weight_raises_naming_the_op(self, case, named):
        arrays, heads, mask, keep = attention_case(np.float32, True, True, True)
        if case == "inf-weight":
            arrays["w"][1][3, 5] = np.inf
        elif case == "overflowing-scores":  # finite projections, dot products beyond float32
            arrays["query_x"] *= np.float32(1e19)
            arrays["key_x"] *= np.float32(1e19)
        else:  # inf-keep-masked's key is masked: its weight is 0, and 0 * inf is NaN
            at = {"inf-keep": (0, 0, 0, 0), "nan-keep": (0, 1, 2, 3),
                  "inf-keep-masked": (1, 0, 0, -1)}[case]
            keep[at] = np.nan if case == "nan-keep" else np.inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericsError, match=rf"op 'attention' \({named}\)$"):
            run_attention(nk.attention, arrays, heads, mask, keep)

    def test_records_one_node_and_nothing_without_a_graph(self):
        arrays, heads, mask, keep = attention_case(np.float32, False, True, True)
        x = nk.Tensor(arrays["query_x"], requires_grad=True)
        ws = [nk.Tensor(w, requires_grad=True) for w in arrays["w"]]
        assert not nk.attention(x, x, *ws, heads, mask, keep).requires_grad
        with nk.Graph() as g:
            out = nk.attention(x, x, *ws, heads, mask, keep)
            assert [node.name for node in g.nodes] == ["attention"] and out.requires_grad

    @pytest.mark.parametrize("cross, causal", [(True, False), (False, False), (False, True)],
                             ids=["cross", "self", "self-causal"])
    def test_masks_empty_key_slots_itself(self, cross, causal):
        # packed rows whose key slots include empty ones: without a padding
        # mask the op gives, bit for bit, what it gives with one
        rng = np.random.default_rng(8)
        dim, heads = 8, 2
        occupied = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=bool)
        key_slots = nk.Slots.of(occupied)
        query_slots = nk.Slots.of(occupied[:, :3]) if cross else key_slots
        n_q, n_k = int(query_slots.index.max()) + 1, int(occupied.sum())
        q_rows, k_rows = rng.standard_normal((n_q, dim)), rng.standard_normal((n_k, dim))
        ws = [rng.standard_normal((dim, dim)) * 0.5 for _ in range(4)]
        proj = rng.standard_normal((n_q, dim))
        given = np.triu(np.ones(occupied.shape[1:] * 2, dtype=bool), k=1)[None, None] if causal else None
        pad = ~occupied[:, None, None, :]

        def run(mask):
            query_x = nk.Tensor(q_rows.astype(np.float32), requires_grad=True)
            key_x = (nk.Tensor(k_rows.astype(np.float32), requires_grad=True)
                     if cross else query_x)
            weights = [nk.Tensor(w.astype(np.float32), requires_grad=True) for w in ws]
            with nk.Graph() as g:
                out = nk.attention(query_x, key_x, *weights, heads, mask, None,
                                   query_slots, key_slots)
                nk.backward(g, nk.sum_(nk.mul(out, nk.Tensor(proj.astype(np.float32)))))
            return [out.data] + [t.grad for t in [query_x, key_x] + weights]

        explicit = pad if given is None else given | pad
        for name, a, b in zip(["output", "query_x", "key_x", "wq", "wk", "wv", "wo"],
                              run(given), run(explicit)):
            assert a.tobytes() == b.tobytes(), name

    def test_rejects_mismatched_shapes(self):
        x, w = nk.zeros((2, 3, 8)), nk.zeros((8, 8))
        with pytest.raises(ContractError, match=r"query \(2, 3, 8\) and keys \(2, 4, 6\) disagree"):
            nk.attention(x, nk.zeros((2, 4, 6)), w, w, w, w, 2)
        with pytest.raises(ContractError, match=r"attention projection \(8, 4\) must be \(8, 8\)"):
            nk.attention(x, x, w, w, nk.zeros((8, 4)), w, 2)
        with pytest.raises(ContractError, match=r"keep mask \(2, 2, 3, 4\) must be \(2, 2, 3, 3\)"):
            nk.attention(x, x, w, w, w, w, 2, keep=np.ones((2, 2, 3, 4)))


class TestBlasThreads:
    def test_single_blas_thread_pins_and_restores(self):
        calls = nk.openblas_threads()
        if calls is None:  # another BLAS: the context does nothing
            with nk.single_blas_thread():
                pass
            return
        get, put = calls
        previous = get()
        try:
            put(2)
            with nk.single_blas_thread():
                assert get() == 1
            assert get() == 2
            with pytest.raises(RuntimeError):
                with nk.single_blas_thread():
                    raise RuntimeError("inside")
            assert get() == 2
        finally:
            put(previous)
