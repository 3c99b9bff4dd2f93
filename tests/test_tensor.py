"""Autodiff core: frozen oracle values plus finite-difference checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moelab import tensor as T
from moelab.model import ModelConfig, build
from moelab.tensor import Tensor, grad_check


def test_matmul_hand_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    out = T.matmul(a, b)
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_identity_and_zeros():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    assert np.array_equal(T.matmul(Tensor(a), Tensor(np.eye(4))).data, a)
    assert np.all(T.matmul(Tensor(a), Tensor(np.zeros((4, 4)))).data == 0.0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    a, b, c = (Tensor(rng.normal(size=(5, 5))) for _ in range(3))
    left = T.matmul(T.matmul(a, b), c).data
    right = T.matmul(a, T.matmul(b, c)).data
    assert np.max(np.abs(left - right)) / np.max(np.abs(left)) < 1e-9


def test_gelu_frozen_values():
    # oracle: x * 0.5 * (1 + erf(x / sqrt(2))) via math.erf
    x = Tensor([0.0, 1.0, -10.0])
    got = T.gelu(x).data
    expected = [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in (0.0, 1.0, -10.0)]
    assert got[0] == 0.0
    assert abs(got[1] - 0.8413447460685429) < 1e-12
    assert abs(got[2]) < 1e-9
    assert np.allclose(got, expected, atol=1e-15)


def test_softmax_frozen_values():
    # oracle: direct exponential-sum arithmetic
    logits = np.array([2.0, 1.0, 0.0, -1.0])
    e = np.exp(logits)
    want = e / e.sum()
    got = T.softmax(Tensor(logits)).data
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got, [0.6439, 0.2369, 0.0871, 0.0321], atol=1e-4)
    assert abs(got.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance_and_extremes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=(3, 7)) * rng.uniform(1, 50)
        a = T.softmax(Tensor(x), axis=-1).data
        b = T.softmax(Tensor(x + 123.456), axis=-1).data
        assert np.max(np.abs(a - b)) < 1e-12
    big = T.softmax(Tensor([1e4, 0.0, -1e4])).data
    assert np.isfinite(big).all() and abs(big.sum() - 1.0) < 1e-12


def test_cross_entropy_uniform_equals_log_vocab():
    vocab = 11
    logits = Tensor(np.zeros((3, vocab)))
    loss = T.cross_entropy(logits, np.array([0, 5, 10]))
    assert abs(loss.item() - math.log(vocab)) < 1e-12


def test_cross_entropy_frozen_and_confident():
    # two-way logits [1, 0], target 0: loss = ln(1 + e^-1)
    loss = T.cross_entropy(Tensor([[1.0, 0.0]]), np.array([0]))
    assert abs(loss.item() - math.log(1.0 + math.exp(-1.0))) < 1e-12
    confident = np.zeros((1, 4))
    confident[0, 2] = 30.0
    assert T.cross_entropy(Tensor(confident), np.array([2])).item() < 1e-9


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor(np.zeros((2, 5))), np.array([1, 5]))


def test_grad_check_quadratic_tight():
    x = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
    assert grad_check(lambda t: (t * t).sum(), x) < 1e-8


def test_grad_check_constant_zero():
    x = Tensor(np.random.default_rng(4).normal(size=(5,)))
    assert grad_check(lambda t: (t * 0.0).sum() + 7.0, x) == 0.0


def test_grad_check_eps_validation():
    x = Tensor([1.0])
    with pytest.raises(ValueError):
        grad_check(lambda t: t.sum(), x, eps=0.0)
    with pytest.raises(ValueError):
        grad_check(lambda t: t.sum(), x, eps=1e-2)


OP_SUITE = [
    ("matmul_left", lambda t: T.matmul(t, Tensor(np.linspace(-1, 1, 12).reshape(4, 3))).sum(), (5, 4)),
    ("matmul_right", lambda t: T.matmul(Tensor(np.linspace(-1, 1, 20).reshape(5, 4)), t).sum(), (4, 3)),
    ("batched_matmul", lambda t: T.matmul(t, t.swap_last2()).sum(), (2, 3, 4)),
    ("gelu", lambda t: T.gelu(t).sum(), (4, 4)),
    ("softmax", lambda t: (T.softmax(t, axis=-1) * Tensor(np.arange(12.0).reshape(3, 4))).sum(), (3, 4)),
    ("log_softmax", lambda t: (T.log_softmax(t, axis=-1) * Tensor(np.ones((3, 4)))).sum(), (3, 4)),
    ("div", lambda t: (t / (t * t + 1.0)).sum(), (6,)),
    ("pow", lambda t: ((t * t + 0.5) ** -0.5).sum(), (5,)),
    ("mean_axis", lambda t: (t.mean(axis=1) * Tensor([1.0, -2.0, 3.0])).sum(), (3, 4)),
    ("transpose", lambda t: (t.transpose((1, 0)) * Tensor(np.ones((4, 3)))).sum(), (3, 4)),
    ("reshape", lambda t: (t.reshape((2, 6)) * Tensor(np.arange(12.0).reshape(2, 6))).sum(), (3, 4)),
    ("broadcast_add", lambda t: (t + Tensor(np.arange(4.0))).sum(), (3, 4)),
    ("broadcast_mul", lambda t: (t * Tensor(np.arange(1.0, 5.0))).sum(), (3, 4)),
]


@pytest.mark.parametrize("name,fn,shape", OP_SUITE)
def test_grad_check_op_suite(name, fn, shape):
    x = Tensor(np.random.default_rng(hash(name) % 2**32).normal(size=shape))
    assert grad_check(fn, x) < 1e-4


def test_grad_check_gather_scatter_ops():
    rng = np.random.default_rng(7)
    table = Tensor(rng.normal(size=(6, 3)))
    ids = np.array([[0, 5, 5], [2, 1, 0]])
    assert grad_check(lambda t: (T.embedding(t, ids) ** 2.0).sum(), table) < 1e-6

    x = Tensor(rng.normal(size=(5, 4)))
    rows = np.array([4, 0, 0, 2])
    assert grad_check(lambda t: (T.embedding(t, rows) * 2.0).sum(), x) < 1e-6

    probs = Tensor(rng.normal(size=(4, 5)))
    idx = np.array([[0, 0], [3, 1], [4, 2], [2, 2]])
    assert grad_check(lambda t: (T.take_along_last(t, idx) ** 2.0).sum(), probs) < 1e-6

    head, tail = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 3)))
    weights = rng.normal(size=(5, 3))
    assert grad_check(lambda t: (T.concat([t, tail]) ** 2.0 * weights).sum(), head) < 1e-6
    assert grad_check(lambda t: (T.concat([head, t, t]) ** 3.0).sum(), tail) < 1e-6


def test_concat_stacks_rows_and_checks_trailing_shapes():
    out = T.concat([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]])])
    assert out.data.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    with pytest.raises(T.ShapeError):
        T.concat([Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3)))])
    with pytest.raises(T.ShapeError):
        T.concat([])


def test_cross_entropy_grad_check():
    logits = Tensor(np.random.default_rng(8).normal(size=(3, 4, 5)))
    targets = np.random.default_rng(9).integers(0, 5, size=(3, 4))
    assert grad_check(lambda t: T.cross_entropy(t, targets), logits) < 1e-6


def test_shared_parameter_gradients_accumulate():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    # y = sum(x * x) + sum(x): dy/dx = 2x + 1
    y = (x * x).sum() + x.sum()
    y.backward()
    assert np.allclose(x.grad, [5.0, -1.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(T.ShapeError):
        (x * 2.0).backward()


def test_constants_stay_off_tape():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3), requires_grad=True)
    out = (a * b).sum()
    out.backward()
    assert a.grad is None and np.allclose(b.grad, 1.0)


def test_repeated_backward_adds_one_more_gradient():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = x * 3.0
    z = y.sum()
    z.backward()
    z.backward()
    assert x.grad.tolist() == [6.0, 6.0]
    assert y.grad is None and z.grad is None


@pytest.mark.parametrize("axis", [None, 1, -1, (0, 1), (-1, 0), (0, 2), (0, 1, 2)])
@pytest.mark.parametrize("keepdims", [False, True])
def test_mean_over_axes_matches_numpy(axis, keepdims):
    data = np.random.default_rng(11).normal(size=(2, 3, 4))
    got = Tensor(data).mean(axis=axis, keepdims=keepdims).data
    assert np.allclose(got, data.mean(axis=axis, keepdims=keepdims), rtol=1e-14, atol=0.0)

    def f(t):
        m = t.mean(axis=axis, keepdims=keepdims)
        return (m * m).sum()

    assert grad_check(f, Tensor(data)) < 1e-6


# ---------------------------------------------- the former replay, for reference


def _former_replay(root):
    """The tape's nodes, and each leaf's gradient, by the rule backward used to follow.

    Every node's first gradient is copied into a buffer of its own and later
    ones are added in place; nothing is freed before the pass ends.
    """
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    held = {}

    def add(node, g):
        if node in held:
            held[node] += g
        else:
            held[node] = np.empty_like(node.data)
            held[node][...] = g

    add(root, np.ones_like(root.data))
    for node in reversed(topo):
        for parent, fn in node._parents:
            add(parent, fn(held[node]))
    return topo, {node: held[node] for node in topo if not node._parents}


def _assert_backward_matches_former_replay(loss):
    topo, want = _former_replay(loss)
    loss.backward()
    assert want and all(leaf.grad.tobytes() == g.tobytes() for leaf, g in want.items())
    assert all(node.grad is None for node in topo if node._parents)


@pytest.mark.parametrize("name,fn,shape", OP_SUITE)
def test_leaf_gradients_equal_the_former_replay_on_the_op_suite(name, fn, shape):
    x = Tensor(np.random.default_rng(len(name)).normal(size=shape), requires_grad=True)
    _assert_backward_matches_former_replay(fn(x))


def test_leaf_gradients_equal_the_former_replay_on_a_moe_model():
    # tied embedding, residual fan-out, and the MoE layer's expert gather and combine
    config = ModelConfig(
        n_layers=2, d_model=8, d_ff=16, n_heads=2, d_head=4,
        n_experts=4, vocab_size=17, seq_len=6, batch_size=3, rel_pos_buckets=8,
    )
    ids = np.random.default_rng(5).integers(0, 17, size=(3, 7))
    logits, aux, stats = build(config, seed=4).forward(ids[:, :-1])
    assert len(stats) == 1
    _assert_backward_matches_former_replay(T.cross_entropy(logits, ids[:, 1:]) + 0.01 * aux)


# ------------------------------------------------------------ scatter-adds


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 9), st.integers(0, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_gather_gradients_equal_an_add_at_reference(rows, n_ids, width, seed):
    # ids repeat (rows is small), and n_ids may be 0
    rng = np.random.default_rng(seed)
    table = Tensor(rng.normal(size=(rows, width)), requires_grad=True)
    ids = rng.integers(0, rows, size=n_ids)
    g = rng.normal(size=(n_ids, width))
    (T.embedding(table, ids) * Tensor(g)).sum().backward()
    want = np.zeros((rows, width))
    np.add.at(want, ids, g)
    assert table.grad.tobytes() == want.tobytes()

    x = Tensor(rng.normal(size=(2, 3, width)), requires_grad=True)
    idx = rng.integers(0, width, size=(2, 3, n_ids))
    g = rng.normal(size=idx.shape)
    (T.take_along_last(x, idx) * Tensor(g)).sum().backward()
    want = np.zeros(x.shape)
    lead = np.meshgrid(np.arange(2), np.arange(3), np.arange(n_ids), indexing="ij")[:2]
    np.add.at(want, (*lead, idx), g)
    assert x.grad.tobytes() == want.tobytes()

    # a negative id would scatter into the wrong row, so both gathers refuse it up front
    with pytest.raises(IndexError):
        T.embedding(table, np.array([-1]))
    for bad in (-1, width):
        with pytest.raises(IndexError):
            T.take_along_last(x, np.full((2, 3, 1), bad))
