"""Model assembly: attention oracle, causality, counting, dense reduction."""

import math

import numpy as np
import pytest

from moelab import tensor as T
from moelab.configs import PRESETS
from moelab.model import (
    ModelConfig,
    attention_with_relative_bias,
    build,
    count_params,
    flops_per_token,
    geglu_ffn,
    reduce_to_single_expert,
    relative_buckets,
)
from moelab.moe import ConfigError, ExpertFFN, expert_capacity
from moelab.tensor import Tensor, grad_check
from moelab.util import params_checksum


def tiny_cfg(**kw):
    base = dict(
        n_layers=2, d_model=8, d_ff=16, n_heads=2, d_head=4,
        n_experts=4, vocab_size=17, seq_len=5, batch_size=2,
        rel_pos_buckets=8,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(n_layers=3)  # odd layer count with experts
    tiny_cfg(n_layers=3, n_experts=1)  # fine when dense
    with pytest.raises(ConfigError):
        tiny_cfg(d_model=0)
    with pytest.raises(ConfigError):
        tiny_cfg(capacity_factor=0.9)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_experts", True),
        ("rel_pos_buckets", 2.5),
        ("capacity_factor", True),
        ("capacity_factor", "1.25"),
        ("capacity_factor", float("nan")),
        ("capacity_factor", float("inf")),
    ],
)
def test_config_rejects_booleans_and_non_numbers(field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_cfg(**{field: value})


def test_build_is_deterministic():
    a = build(tiny_cfg(), seed=42)
    b = build(tiny_cfg(), seed=42)
    c = build(tiny_cfg(), seed=43)
    assert params_checksum(a.params()) == params_checksum(b.params())
    assert params_checksum(a.params()) != params_checksum(c.params())


def test_build_structure():
    def experts(params, i):
        return {name for name in params if name.startswith(f"layer{i}.expert")}

    dense = build(tiny_cfg(n_experts=1), seed=0).params()
    assert all(f"layer{i}.gate" not in dense and not experts(dense, i) for i in range(2))

    cfg = tiny_cfg(n_experts=4, n_layers=4)
    sparse = build(cfg, seed=0).params()
    moe_layers = [i for i in range(4) if f"layer{i}.gate" in sparse]
    assert moe_layers == [1, 3]
    for i in moe_layers:
        assert experts(sparse, i) == {f"layer{i}.experts.w_in", f"layer{i}.experts.w_out"}
        assert sparse[f"layer{i}.experts.w_in"].shape == (4, cfg.d_model, cfg.d_ff)
        assert sparse[f"layer{i}.experts.w_out"].shape == (4, cfg.d_ff, cfg.d_model)


def test_forward_shapes_and_stats():
    cfg = tiny_cfg()
    model = build(cfg, seed=1)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 5))
    logits, aux, stats = model.forward(ids)
    assert logits.shape == (2, 5, cfg.vocab_size)
    assert aux.size == 1 and np.isfinite(aux.item())
    assert len(stats) == 1  # one MoE layer in a 2-layer stack
    assert stats[0].total_tokens == 10


def test_dense_model_has_zero_aux():
    cfg = tiny_cfg(n_experts=1)
    model = build(cfg, seed=1)
    ids = np.zeros((1, 3), dtype=int)
    _, aux, stats = model.forward(ids)
    assert aux.item() == 0.0 and stats == []


def test_causality_is_exact():
    cfg = tiny_cfg()
    model = build(cfg, seed=2)
    rng = np.random.default_rng(3)
    ids = rng.integers(0, cfg.vocab_size, size=(1, 5))
    base, _, _ = model.forward(ids)
    for j in range(1, 5):
        perturbed = ids.copy()
        perturbed[0, j] = (perturbed[0, j] + 1) % cfg.vocab_size
        out, _, _ = model.forward(perturbed)
        # positions strictly before j must be bit-identical
        assert np.array_equal(out.data[0, :j], base.data[0, :j])


def test_zeroed_model_is_uniform_and_position_independent():
    cfg = tiny_cfg()
    model = build(cfg, seed=4)
    for p in model.params().values():
        p.data[...] = 0.0
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(2, 5))
    logits, _, _ = model.forward(ids)
    assert np.all(logits.data == 0.0)
    probs = T.softmax(logits, axis=-1).data
    assert np.max(np.abs(probs - 1.0 / cfg.vocab_size)) < 1e-15


def _plain_causal_attention(q, k, v):
    """Numpy oracle: masked softmax attention without any bias."""
    heads, s, d = q.shape
    out = np.zeros_like(v)
    for h in range(heads):
        scores = q[h] @ k[h].T / math.sqrt(d)
        for i in range(s):
            row = scores[i, : i + 1]
            e = np.exp(row - row.max())
            w = e / e.sum()
            out[h, i] = w @ v[h, : i + 1]
    return out


def _split_heads(x, heads):
    """[S, H * d] -> [H, S, d]."""
    return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)


def test_attention_zero_bias_matches_plain_oracle():
    rng = np.random.default_rng(6)
    q, k, v = (Tensor(rng.normal(size=(6, 2 * 3))) for _ in range(3))  # S=6, two heads of d=3
    table = Tensor(np.zeros((2, 8)))
    got = _split_heads(attention_with_relative_bias(q, k, v, table).data, 2)
    want = _plain_causal_attention(*(_split_heads(t.data, 2) for t in (q, k, v)))
    assert np.max(np.abs(got - want)) < 1e-12


def test_attention_hand_computed_s3():
    # one head, d_head=1, hand-set q,k,v and bias: verify the full 3x3 table
    q = Tensor(np.array([[[1.0], [2.0], [0.5]]]))
    k = Tensor(np.array([[[1.0], [-1.0], [2.0]]]))
    v = Tensor(np.array([[[1.0], [10.0], [100.0]]]))
    table = Tensor(np.array([[0.5, -0.25, 0.0, 0.0]]))  # bucket 0 -> 0.5, bucket 1 -> -0.25

    got = attention_with_relative_bias(q, k, v, table).data[0]

    def row(i, qv):
        scores = [qv * kv + (0.5 if i == j else -0.25 if i - j == 1 else 0.0)
                  for j, kv in enumerate([1.0, -1.0, 2.0][: i + 1])]
        e = np.exp(np.array(scores) - max(scores))
        w = e / e.sum()
        return float(w @ np.array([1.0, 10.0, 100.0][: i + 1]))

    want = np.array([[row(0, 1.0)], [row(1, 2.0)], [row(2, 0.5)]])
    assert np.max(np.abs(got - want)) < 1e-12


def test_relative_buckets_depend_only_on_offset():
    buckets = relative_buckets(12, 8)
    for offset in range(12):
        diag = np.diagonal(buckets, offset=-offset)
        assert np.all(diag == diag[0])
    # future offsets all share bucket 0 (masked anyway)
    assert np.all(np.triu(buckets, k=1) == 0)
    # log spacing: bucket ids nondecreasing in distance, capped at n-1
    firsts = buckets[:, 0]
    assert np.all(np.diff(firsts) >= 0) and firsts.max() <= 7
    assert relative_buckets(300, 8).max() == 7


def test_relative_buckets_pinned_table():
    assert relative_buckets(5, 4).tolist() == [
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [2, 1, 0, 0, 0],
        [2, 2, 1, 0, 0],
        [2, 2, 2, 1, 0],
    ]
    # four exact offsets, then log-spaced buckets 4..7 from distances 4, 10, 23 and 54
    first_column = [0, 1, 2, 3] + [4] * 6 + [5] * 13 + [6] * 31 + [7] * 6
    buckets = relative_buckets(60, 8)
    assert buckets.dtype == np.intp and buckets[:, 0].tolist() == first_column


def _square_sum(t):
    return (t * t).sum()


def test_attention_bias_grad_check():
    rng = np.random.default_rng(7)
    q = Tensor(rng.normal(size=(4, 2 * 3)))  # S=4, two heads of d=3
    k = Tensor(rng.normal(size=(4, 2 * 3)))
    v = Tensor(rng.normal(size=(4, 2 * 3)))
    table = Tensor(rng.normal(size=(2, 6)))
    assert grad_check(lambda t: _square_sum(attention_with_relative_bias(q, k, v, t)), table) < 1e-4
    assert grad_check(lambda t: _square_sum(attention_with_relative_bias(t, k, v, table)), q) < 1e-4


def test_geglu_values_and_grad():
    # H=1, all weights 1, x=1: GELU(1) * 1 * 1
    x = Tensor(np.array([[1.0]]))
    out = geglu_ffn(x, Tensor([[1.0]]), Tensor([[1.0]]), Tensor([[1.0]]))
    assert abs(out.data[0, 0] - 0.8413447460685429) < 1e-12

    rng = np.random.default_rng(8)
    wa, wb, wout = (Tensor(rng.normal(size=s)) for s in [(3, 5), (3, 5), (5, 3)])
    zero_b = geglu_ffn(Tensor(rng.normal(size=(4, 3))), wa, Tensor(np.zeros((3, 5))), wout)
    assert np.all(zero_b.data == 0.0)

    x = Tensor(rng.normal(size=(4, 3)))
    assert grad_check(lambda t: _square_sum(geglu_ffn(t, wa, wb, wout)), x) < 1e-4


def test_rmsnorm_scale_and_grad():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4)))
    y = T.rms_norm(x, Tensor(np.ones(4)))
    rms = np.sqrt((y.data**2).mean(axis=-1))
    assert np.max(np.abs(rms - 1.0)) < 1e-4  # eps shifts it slightly
    assert grad_check(lambda t: _square_sum(T.rms_norm(t, Tensor(np.ones(4)))), x) < 1e-4


@pytest.mark.parametrize(
    "cfg",
    [
        tiny_cfg(),
        tiny_cfg(n_experts=1),
        tiny_cfg(n_experts=2, n_layers=4),
        tiny_cfg(n_experts=8, d_model=6, n_heads=3, d_head=2),
        tiny_cfg(n_experts=1, n_layers=1),
    ],
)
def test_count_params_matches_enumeration(cfg):
    model = build(cfg, seed=0)
    enumerated = sum(p.size for name, p in model.params().items() if name != "embed")
    total, activated = count_params(cfg)
    assert total == enumerated
    if cfg.n_experts == 1:
        assert total == activated
    elif cfg.n_experts == 2:
        assert total == activated  # top-2 routing activates both experts
    else:
        assert activated < total


def test_activated_count_by_manual_walk():
    cfg = tiny_cfg(n_experts=4)
    params = build(cfg, seed=0).params()
    activated = 0
    for name, p in params.items():
        if name == "embed":
            continue
        if ".experts." in name:
            continue  # count experts separately below
        activated += p.size
    # two activated experts per MoE layer: two slices of each stacked weight
    for i in range(cfg.n_layers):
        if f"layer{i}.gate" in params:
            expert0 = params[f"layer{i}.experts.w_in"].data[0], params[f"layer{i}.experts.w_out"].data[0]
            activated += 2 * (expert0[0].size + expert0[1].size)
    assert activated == count_params(cfg)[1]


def test_flops_per_token():
    cfg = tiny_cfg()
    assert flops_per_token(cfg) == 2.0 * count_params(cfg)[1] / 1e9


# Literal (total, activated) counts per preset; any change to the layout shows here.
PINNED_COUNTS = {
    "0.1b": (113270016, 113270016),
    "0.1b-64e": (1883036928, 127720704),
    "1.7b": (1610725376, 1610725376),
    "1.7b-32e": (13892433920, 1812838400),
    "1.7b-64e": (26778122240, 1813624832),
    "1.7b-128e": (52549498880, 1815197696),
    "1.7b-256e": (104092252160, 1818343424),
    "8b": (8590233600, 8590233600),
    "8b-64e": (142812155904, 9668169728),
    "137b": (137440272384, 137440272384),
    "64b-64e": (1159659266048, 94507376640),
    "dense-175b": (173948841984, 173948841984),
}


def test_preset_counts_are_pinned():
    assert {name: count_params(cfg) for name, cfg in PRESETS.items()} == PINNED_COUNTS


def test_parameter_names_order_and_init_are_pinned():
    params = build(tiny_cfg(), seed=7).params()
    shared = ["wq", "wk", "wv", "wo", "norm_attn", "norm_ffn", "bias_table"]
    experts = ["experts.w_in", "experts.w_out"]
    assert list(params) == (
        ["embed"]
        + [f"layer0.{n}" for n in shared + ["wa", "wb", "wout"]]
        + [f"layer1.{n}" for n in shared + ["gate"] + experts]
        + ["norm_final"]
    )
    assert params_checksum(params) == "abe331e008288e17d6507bdaf722cdaf4d783fda103c1f6cb5824d9451423a92"


def _train_tape_nodes(model, ids):
    """Recorded operations reachable from a train forward's loss."""
    logits, aux, _ = model.forward(ids[:, :-1])
    loss = T.cross_entropy(logits, ids[:, 1:]) + 0.01 * aux
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += bool(node._parents)
            stack.extend(parent for parent, _ in node._parents)
    return count


def test_train_forward_tape_does_not_grow_with_experts():
    ids = np.random.default_rng(3).integers(0, 17, size=(2, 6))
    # capacity_factor E makes every expert's capacity cover all tokens: nothing drops
    counts = {
        e: _train_tape_nodes(build(tiny_cfg(n_experts=e, seq_len=6, capacity_factor=float(e)), seed=4), ids)
        for e in (2, 4, 32)
    }
    assert len(set(counts.values())) == 1, counts


def test_forward_calls_one_expert_callable_per_moe_layer(monkeypatch):
    calls = []
    expert_call = ExpertFFN.__call__

    def counted(self, x):
        calls.append(x.shape)
        return expert_call(self, x)

    monkeypatch.setattr(ExpertFFN, "__call__", counted)
    cfg = tiny_cfg(n_experts=8, n_layers=4)
    build(cfg, seed=5).forward(np.zeros((2, 5), dtype=int))
    capacity = expert_capacity(10, 8, cfg.capacity_factor)
    assert calls == [(8, capacity, cfg.d_model)] * 2


def test_dense_reduction_equivalence():
    cfg = tiny_cfg(n_experts=2, n_layers=2)
    model = build(cfg, seed=10)
    # duplicate expert 0 into expert 1 in every MoE layer
    for name, p in model.params().items():
        if ".experts." in name:
            p.data[1] = p.data[0]
    single = reduce_to_single_expert(model)
    rng = np.random.default_rng(11)
    for _ in range(10):
        ids = rng.integers(0, cfg.vocab_size, size=(2, 5))
        a, _, _ = model.forward(ids)
        b, _, _ = single.forward(ids)
        assert np.max(np.abs(a.data - b.data)) < 1e-10


def test_model_loss_grad_check_small():
    # small full-model check; the acceptance suite runs the larger pinned one
    cfg = ModelConfig(
        n_layers=2, d_model=4, d_ff=6, n_heads=2, d_head=2,
        n_experts=2, vocab_size=7, seq_len=4, batch_size=1, rel_pos_buckets=4,
    )
    model = build(cfg, seed=12)
    ids = np.random.default_rng(13).integers(0, 7, size=(1, 4))
    params = model.params()

    for name in ["embed", "layer1.gate", "layer0.wa", "layer1.experts.w_in", "norm_final"]:
        p = params[name]

        def g(t, p=p):
            saved = p.data
            p.data = t.data.copy()
            try:
                logits, aux, _ = model.forward(ids[:, :-1])
                loss = T.cross_entropy(logits, ids[:, 1:]) + 0.01 * aux
                if t.requires_grad:
                    model.zero_grad()
                    loss.backward()
                    t.grad = None if p.grad is None else p.grad.copy()
                return loss
            finally:
                p.data = saved

        err = _manual_grad_check(g, p.data)
        assert err < 1e-4, f"{name}: {err}"


def _manual_grad_check(f, base, eps=1e-5):
    """grad_check variant for parameters embedded in a larger model."""
    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(base)
    numeric = np.zeros_like(base)
    flat = numeric.reshape(-1)
    for i in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[i] += eps
        hi = float(f(Tensor(bumped.reshape(base.shape))).data)
        bumped[i] -= 2 * eps
        lo = float(f(Tensor(bumped.reshape(base.shape))).data)
        flat[i] = (hi - lo) / (2 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_sequence_length_cap():
    cfg = tiny_cfg()
    model = build(cfg, seed=0)
    with pytest.raises(ConfigError):
        model.forward(np.zeros((1, cfg.seq_len + 1), dtype=int))
