"""Autodiff core: frozen oracle values plus finite-difference checks."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from moelab import model
from moelab import tensor as T
from moelab.model import ModelConfig, build, relative_buckets
from moelab.moe import ExpertFFN, moe_forward
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
    x = Tensor([[0.0], [1.0], [-10.0]])
    one = Tensor([[1.0]])
    got = T.gelu_ffn(x, one, one).data[:, 0]
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


def _square(t):
    return t * t


def _cube(t):
    return t * t * t


def _weighted(out):
    """A scalar that weighs every entry of ``out`` differently."""
    return (out * Tensor(np.linspace(-1.0, 1.5, out.size).reshape(out.shape))).sum()


def _split(t, *shapes):
    """Disjoint pieces of the flat tensor ``t``, one per shape, so one case reaches every operand."""
    column = t.reshape((t.size, 1))
    ends = np.cumsum([math.prod(s) for s in shapes])
    return [T.embedding(column, np.arange(end - math.prod(s), end)).reshape(s) for s, end in zip(shapes, ends)]


BUCKETS = np.array([[0, 0, 0], [1, 0, 0], [3, 1, 0]])  # bucket 2 unused, bucket 0 repeated

OP_SUITE = [
    ("matmul_left", lambda t: T.matmul(t, Tensor(np.linspace(-1, 1, 12).reshape(4, 3))).sum(), (5, 4)),
    ("matmul_right", lambda t: T.matmul(Tensor(np.linspace(-1, 1, 20).reshape(5, 4)), t).sum(), (4, 3)),
    ("batched_matmul", lambda t: T.matmul(t, t.transpose((0, 2, 1))).sum(), (2, 3, 4)),
    ("gelu", lambda t: T.gelu_ffn(t.reshape((16, 1)), Tensor([[1.0]]), Tensor([[1.0]])).sum(), (4, 4)),
    ("softmax", lambda t: (T.softmax(t, axis=-1) * Tensor(np.arange(12.0).reshape(3, 4))).sum(), (3, 4)),
    ("log_softmax", lambda t: (T.log_softmax(t, axis=-1) * Tensor(np.ones((3, 4)))).sum(), (3, 4)),
    ("div", lambda t: (t / (t * t + 1.0)).sum(), (6,)),
    ("rmsnorm", lambda t: _weighted(T.rms_norm(*_split(t, (2, 3, 4), (4,)))), (28,)),
    ("mean_axis", lambda t: (t.mean(axis=1) * Tensor([1.0, -2.0, 3.0])).sum(), (3, 4)),
    ("transpose", lambda t: (t.transpose((1, 0)) * Tensor(np.ones((4, 3)))).sum(), (3, 4)),
    ("reshape", lambda t: (t.reshape((2, 6)) * Tensor(np.arange(12.0).reshape(2, 6))).sum(), (3, 4)),
    ("broadcast_add", lambda t: (t + Tensor(np.arange(4.0))).sum(), (3, 4)),
    ("broadcast_mul", lambda t: (t * Tensor(np.arange(1.0, 5.0))).sum(), (3, 4)),
    (
        "attention",
        lambda t: _weighted(T.causal_attention(*_split(t, *[(2, 3, 2 * 2)] * 3, (2, 4)), BUCKETS)),  # two heads of d=2
        (80,),
    ),
    ("gelu_ffn_stacked", lambda t: _weighted(T.gelu_ffn(*_split(t, (2, 3, 4), (2, 4, 5), (2, 5, 4)))), (104,)),
    ("gelu_ffn_broadcast", lambda t: _weighted(T.gelu_ffn(*_split(t, (2, 3, 4), (4, 5), (5, 4)))), (64,)),
    ("geglu", lambda t: _weighted(T.gelu_ffn(*_split(t, (2, 3, 4), (4, 5), (5, 4), (4, 5)))), (84,)),
    ("cross_entropy", lambda t: T.cross_entropy(t.reshape((2, 3, 5)), np.array([[0, 4, 4], [2, 1, 0]])), (30,)),
]


@pytest.mark.parametrize("name,fn,shape", OP_SUITE)
def test_grad_check_op_suite(name, fn, shape):
    # crc32, unlike hash(), gives every process the same seed, so a failing draw can be replayed
    x = Tensor(np.random.default_rng(zlib.crc32(name.encode())).normal(size=shape))
    assert grad_check(fn, x) < 1e-4


def test_grad_check_gather_scatter_ops():
    rng = np.random.default_rng(7)
    table = Tensor(rng.normal(size=(6, 3)))
    ids = np.array([[0, 5, 5], [2, 1, 0]])
    assert grad_check(lambda t: _square(T.embedding(t, ids)).sum(), table) < 1e-6

    x = Tensor(rng.normal(size=(5, 4)))
    rows = np.array([4, 0, 0, 2])
    assert grad_check(lambda t: (T.embedding(t, rows) * 2.0).sum(), x) < 1e-6

    probs = Tensor(rng.normal(size=(4, 5)))
    idx = np.array([[0, 0], [3, 1], [4, 2], [2, 2]])
    assert grad_check(lambda t: _square(T.take_along_last(t, idx)).sum(), probs) < 1e-6

    head, tail = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(3, 3)))
    weights = rng.normal(size=(5, 3))
    assert grad_check(lambda t: (_square(T.concat([t, tail])) * weights).sum(), head) < 1e-6
    assert grad_check(lambda t: _cube(T.concat([head, t, t])).sum(), tail) < 1e-6


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
        parts = node._back(held[node]) if node._parents else ()
        for parent, i in node._parents:
            add(parent, parts[i])
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


# ------------------------------------------- fused layers against their composites
# Each layer as the composite of single ops it was before it became one node.
# The fused node's output must be bit-equal to it, and each leaf gradient must
# agree to 1e-12 of that gradient's largest entry.


def _gelu(x):
    """The former one-op GELU."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * (1.0 / math.sqrt(2.0))))

    def back(g):
        pdf = np.exp(-0.5 * xd * xd) * (1.0 / math.sqrt(2.0 * math.pi))
        return (g * (cdf + xd * pdf),)

    return T._op(xd * cdf, (x,), back)


def _rsqrt(x):
    """The former ``x ** -0.5``."""
    xd = x.data
    return T._op(xd**-0.5, (x,), lambda g: (g * -0.5 * xd**-1.5,))


def _rms_norm_composite(x, scale):
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * _rsqrt(ms + 1e-6) * scale


def _attention_composite(q, k, v, table, buckets):
    heads, seq, d = q.shape[-3:]
    k_t = k.transpose(tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = T.matmul(q, k_t) * (1.0 / math.sqrt(d))
    rows = T.embedding(table.transpose((1, 0)), buckets.reshape(-1))
    bias = rows.transpose((1, 0)).reshape((heads, seq, seq))
    mask = np.where(np.arange(seq)[:, None] >= np.arange(seq), 0.0, -1e30)
    return T.matmul(T.softmax(scores + bias + Tensor(mask), axis=-1), v)


def _split_heads_composite(q, k, v, table, buckets):
    """``_attention_composite`` on heads split out of [..., S, H * d], merged back."""
    heads, seq, width = table.shape[0], q.shape[-2], q.shape[-1]
    lead = q.shape[:-2]
    swap = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)  # the two axes before d

    def split(x):
        return x.reshape(lead + (seq, heads, width // heads)).transpose(swap)

    return _attention_composite(split(q), split(k), split(v), table, buckets).transpose(swap).reshape(q.shape)


def _gelu_ffn_composite(x, w_in, w_out, gate=None):
    hidden = _gelu(T.matmul(x, w_in))
    return T.matmul(hidden if gate is None else hidden * T.matmul(x, gate), w_out)


def _cross_entropy_composite(logits, targets):
    picked = T.take_along_last(T.log_softmax(logits, axis=-1), targets[..., None])
    return picked.mean() * -1.0


def _run(layer, leaves):
    """``layer``'s output bytes and each leaf's gradient of a weighted sum of it."""
    for leaf in leaves:
        leaf.zero_grad()
    out = layer(*leaves)
    (out if out.ndim == 0 else _weighted(out)).backward()
    return out.data.tobytes(), [leaf.grad for leaf in leaves]


def _assert_fused_matches(fused, composite, leaves):
    out, grads = _run(fused, leaves)
    want_out, want_grads = _run(composite, leaves)
    assert out == want_out
    for got, want in zip(grads, want_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _leaves(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("shape", [(3, 4), (2, 5, 4), (1, 1, 4)])
def test_fused_rms_norm_matches_its_composite(shape):
    _assert_fused_matches(T.rms_norm, _rms_norm_composite, _leaves([shape, shape[-1:]]))


@pytest.mark.parametrize("lead,seq", [((), 5), ((2,), 5), ((2,), 1), ((3, 2), 4)])
def test_fused_attention_matches_its_composite(lead, seq):
    buckets = relative_buckets(seq, 6)
    heads = lead[-1] if lead else 2
    qkv = lead[:-1] + (seq, heads * 3)
    leaves = _leaves([qkv, qkv, qkv, (heads, 6)])
    _assert_fused_matches(
        lambda *t: T.causal_attention(*t, buckets), lambda *t: _split_heads_composite(*t, buckets), leaves
    )


def test_fused_self_attention_sums_its_three_edges():
    buckets = relative_buckets(4, 6)
    _assert_fused_matches(
        lambda x, t: T.causal_attention(x, x, x, t, buckets),
        lambda x, t: _split_heads_composite(x, x, x, t, buckets),
        _leaves([(2, 4, 2 * 3), (2, 6)]),
    )


def test_attention_refuses_a_width_the_heads_do_not_split():
    x = Tensor(np.zeros((4, 5)))
    with pytest.raises(T.ShapeError, match="2 heads"):
        T.causal_attention(x, x, x, Tensor(np.zeros((2, 6))), relative_buckets(4, 6))


@pytest.mark.parametrize(
    "shapes",
    [
        [(3, 4, 5), (3, 5, 6), (3, 6, 5)],  # stacked experts
        [(1, 4, 5), (1, 5, 6), (1, 6, 5)],  # one stacked expert
        [(2, 4, 5), (5, 6), (6, 5)],  # one pair broadcast over leading axes
        [(2, 3, 5), (5, 6), (6, 5), (5, 6)],  # GEGLU
        [(1, 1, 5), (5, 6), (6, 5), (5, 6)],  # GEGLU at S = 1
    ],
    ids=["stacked", "one-expert", "broadcast", "geglu", "geglu-s1"],
)
def test_fused_gelu_ffn_matches_its_composite(shapes):
    _assert_fused_matches(T.gelu_ffn, _gelu_ffn_composite, _leaves(shapes))


@pytest.mark.parametrize("shape", [(2, 3, 7), (4, 7), (1, 1, 7)])
def test_fused_cross_entropy_matches_its_composite(shape):
    targets = np.random.default_rng(1).integers(0, 7, size=shape[:-1])
    _assert_fused_matches(
        lambda t: T.cross_entropy(t, targets), lambda t: _cross_entropy_composite(t, targets), _leaves([shape])
    )


@pytest.mark.parametrize("n_experts", [1, 8])
def test_fused_experts_match_their_composite_in_the_moe_layer(n_experts):
    leaves = _leaves([(24, 5), (5, n_experts), (n_experts, 5, 6), (n_experts, 6, 5)], seed=n_experts)
    tokens, gate = leaves[0].data, leaves[1].data
    tokens[:, 0] = np.abs(tokens[:, 0]) + 1.0
    gate[0, : min(2, n_experts)] = [5.0, 4.0][:n_experts]  # most tokens want experts 0 and 1, so rows drop
    _, stats = moe_forward(Tensor(tokens), [ExpertFFN(leaves[2], leaves[3])], Tensor(gate), 1.0)
    assert (stats.dropped_tokens > 0) == (n_experts > 1)

    def layer(expert):
        return lambda x, g, w_in, w_out: moe_forward(x, [expert(w_in, w_out)], g, 1.0)[0]

    composite = layer(lambda w_in, w_out: lambda x: _gelu_ffn_composite(x, w_in, w_out))
    _assert_fused_matches(layer(ExpertFFN), composite, leaves)


def test_fused_model_matches_its_composite_layers(monkeypatch):
    config = ModelConfig(
        n_layers=2, d_model=8, d_ff=16, n_heads=2, d_head=4,
        n_experts=4, vocab_size=17, seq_len=6, batch_size=3, rel_pos_buckets=8,
    )
    net = build(config, seed=4)
    params = list(net.params().values())
    ids = np.random.default_rng(5).integers(0, 17, size=(3, 7))

    def loss(*_):
        logits, aux, _ = net.forward(ids[:, :-1])
        return T.cross_entropy(logits, ids[:, 1:]) + 0.01 * aux

    fused = _run(loss, params)
    monkeypatch.setattr(T, "rms_norm", _rms_norm_composite)
    monkeypatch.setattr(
        model,
        "attention_with_relative_bias",
        lambda q, k, v, t: _split_heads_composite(q, k, v, t, relative_buckets(q.shape[-2], t.shape[1])),
    )
    monkeypatch.setattr(model, "geglu_ffn", lambda x, wa, wb, wout: _gelu_ffn_composite(x, wa, wout, wb))
    monkeypatch.setattr(ExpertFFN, "__call__", lambda self, x: _gelu_ffn_composite(x, self.w_in, self.w_out))
    monkeypatch.setattr(T, "cross_entropy", _cross_entropy_composite)
    composite = _run(loss, params)
    assert fused[0] == composite[0]
    for got, want in zip(fused[1], composite[1]):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


FUSED_CASES = [
    (T.rms_norm, [(2, 3, 4), (4,)]),
    (lambda q, k, v, t: T.causal_attention(q, k, v, t, relative_buckets(5, 6)), [(2, 5, 6)] * 3 + [(2, 6)]),
    (T.gelu_ffn, [(3, 4, 5), (3, 5, 6), (3, 6, 5)]),
    (T.gelu_ffn, [(2, 4, 5), (5, 6), (6, 5)]),
    (T.gelu_ffn, [(2, 3, 5), (5, 6), (6, 5), (5, 6)]),
    (lambda t: T.cross_entropy(t, np.array([[0, 6, 6], [2, 1, 0]])), [(2, 3, 7)]),
]
FUSED_IDS = ["rms_norm", "attention", "gelu_ffn_stacked", "gelu_ffn_broadcast", "geglu", "cross_entropy"]


@pytest.mark.parametrize("layer,shapes", FUSED_CASES, ids=FUSED_IDS)
def test_a_repeated_backward_is_exact_through_every_fused_node(layer, shapes):
    leaves = _leaves(shapes)
    _, once = _run(layer, leaves)
    for leaf in leaves:
        leaf.zero_grad()
    # two nodes that __add__ hands one gradient array, so a backward that wrote
    # into its incoming gradient would change the other node's
    out = layer(*leaves) + layer(*leaves)
    loss = out if out.ndim == 0 else _weighted(out)
    loss.backward()
    assert all(leaf.grad.tobytes() == (2.0 * g).tobytes() for leaf, g in zip(leaves, once))
    loss.backward()  # reads what each node keeps a second time
    assert all(leaf.grad.tobytes() == (4.0 * g).tobytes() for leaf, g in zip(leaves, once))


# The fused GELU feed-forward and loss as they were before their backwards
# stopped keeping the activations' temporaries and the exponentials; the
# gradients of today's nodes must be bit-equal to these.


def _former_gelu_ffn(x, w_in, w_out, gate=None):
    xd, win, wout = x.data, w_in.data, w_out.data
    wg = None if gate is None else gate.data
    h = np.matmul(xd, win)
    cdf = 0.5 * (1.0 + erf(h * (1.0 / math.sqrt(2.0))))
    hg = None if wg is None else np.matmul(xd, wg)

    def hidden():
        act = h * cdf
        return act, act if hg is None else act * hg

    def back(g):
        act, u = hidden()
        grads = [None, None, T._right_grad(u, g, wout.shape)]
        du = T._left_grad(g, wout, u.shape)
        if hg is not None:
            dhg = du * act
            du = du * hg
            grads.append(T._right_grad(xd, dhg, wg.shape))
        pdf = np.exp(-0.5 * h * h) * (1.0 / math.sqrt(2.0 * math.pi))
        dh = du * (cdf + h * pdf)
        grads[1] = T._right_grad(xd, dh, win.shape)
        gx = T._left_grad(dh, win, xd.shape)
        grads[0] = gx if hg is None else gx + T._left_grad(dhg, wg, xd.shape)
        return grads

    parents = (x, w_in, w_out) if gate is None else (x, w_in, w_out, gate)
    return T._op(np.matmul(hidden()[1], wout), parents, back)


def _former_cross_entropy(logits, targets):
    xd, vocab = logits.data, logits.shape[-1]
    e = xd - xd.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(e, targets[..., None].astype(np.intp), axis=-1)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    picked -= np.log(total)
    n = picked.size

    def back(g):
        grad = e / total
        grad.reshape(-1, vocab)[np.arange(n), targets.reshape(-1)] -= 1.0
        grad *= g * (1.0 / n)
        return (grad,)

    return T._op(-(picked.sum() * (1.0 / n)), (logits,), back)


@pytest.mark.parametrize(
    "shapes",
    [
        [(4, 40, 32), (4, 32, 64), (4, 64, 32)],  # stacked experts at train-moe32's C, M and H
        [(2, 9, 32), (32, 64), (64, 32)],  # one pair broadcast over leading axes
        [(2, 9, 32), (32, 64), (64, 32), (32, 64)],  # GEGLU
        [(1, 1, 5), (5, 6), (6, 5), (5, 6)],  # GEGLU at S = 1
    ],
    ids=["stacked", "broadcast", "geglu", "geglu-s1"],
)
def test_gelu_ffn_gradients_are_bit_equal_to_the_former_backward(shapes):
    leaves = _leaves(shapes, seed=len(shapes[0]))
    out, grads = _run(T.gelu_ffn, leaves)
    want_out, want_grads = _run(_former_gelu_ffn, leaves)
    assert out == want_out
    assert all(got.tobytes() == want.tobytes() for got, want in zip(grads, want_grads))


@pytest.mark.parametrize("shape", [(8, 63, 259), (4, 7), (1, 1, 7)])
def test_cross_entropy_gradient_is_bit_equal_to_the_former_backward(shape):
    targets = np.random.default_rng(2).integers(0, shape[-1], size=shape[:-1])
    leaves = _leaves([shape], seed=3)
    leaves[0].data *= 4.0  # confident rows, far from uniform
    out, grads = _run(lambda t: T.cross_entropy(t, targets), leaves)
    want_out, want_grads = _run(lambda t: _former_cross_entropy(t, targets), leaves)
    assert out == want_out and grads[0].tobytes() == want_grads[0].tobytes()


@pytest.mark.parametrize(
    "experts,seq_len,shape,most",
    [(32, 64, (8, 64), 41), (2, 128, (1, 60), 39)],  # 57 and 55 with the head split and merge as nodes
    ids=["train-moe32", "eval-fewshot"],
)
def test_a_forward_records_at_most_its_pinned_nodes(experts, seq_len, shape, most):
    config = ModelConfig(
        n_layers=2, d_model=32, d_ff=64, n_heads=2, d_head=16, n_experts=experts, seq_len=seq_len, batch_size=shape[0]
    )
    ids = np.random.default_rng(0).integers(0, config.vocab_size, size=shape)
    logits, _, _ = build(config, seed=0).forward(ids)
    nodes, seen, stack = 0, set(), [logits]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            nodes += 1
            stack.extend(parent for parent, _ in node._parents)
    assert nodes <= most  # 113 at train-moe32 as composites of single ops


# -------------------------------------------------------------- constant operands
# A node computes every operand's gradient and keeps those whose operand
# requires grad, so a constant operand changes no other operand's gradient.


@pytest.mark.parametrize(
    "layer,shapes",
    [
        (T.matmul, [(3, 4), (4, 5)]),
        (lambda a, b: a * b, [(3, 4), (3, 4)]),
        (T.rms_norm, [(2, 3, 4), (4,)]),
        (lambda q, k, v, t: T.causal_attention(q, k, v, t, relative_buckets(5, 6)), [(2, 5, 6)] * 3 + [(2, 6)]),
        (T.gelu_ffn, [(3, 4, 5), (3, 5, 6), (3, 6, 5)]),
        (T.gelu_ffn, [(2, 3, 5), (5, 6), (6, 5), (5, 6)]),
    ],
    ids=["matmul", "mul", "rms_norm", "attention", "gelu_ffn", "geglu"],
)
def test_a_constant_operand_leaves_the_others_gradients_bit_equal(layer, shapes):
    leaves = _leaves(shapes)
    _, want = _run(layer, leaves)
    for i in range(len(leaves)):
        _, got = _run(layer, [Tensor(t.data) if j == i else t for j, t in enumerate(leaves)])
        assert got[i] is None
        assert all(got[j].tobytes() == want[j].tobytes() for j in range(len(leaves)) if j != i)


def test_a_forward_over_constant_parameters_records_no_edges_or_backwards(monkeypatch):
    config = ModelConfig(
        n_layers=2, d_model=8, d_ff=16, n_heads=2, d_head=4,
        n_experts=4, vocab_size=17, seq_len=6, batch_size=3, rel_pos_buckets=8,
    )
    params = {name: Tensor(p.data) for name, p in build(config, seed=4).params().items()}
    ids = np.random.default_rng(5).integers(0, 17, size=(3, 7))
    made, op = [], T._op
    monkeypatch.setattr(T, "_op", lambda *args: made.append(op(*args)) or made[-1])
    logits, aux, _ = model.TransformerLM(config, params).forward(ids[:, :-1])
    loss = T.cross_entropy(logits, ids[:, 1:]) + 0.01 * aux
    assert made and not loss.requires_grad
    assert all(node._parents == [] and node._back is None for node in made)


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
