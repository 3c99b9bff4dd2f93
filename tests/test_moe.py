"""Routing: the route rule, capacity drops vs an exhaustive oracle, aux loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moelab.moe import (
    ConfigError,
    DispatchStats,
    ExpertFFN,
    aux_load_balance_loss,
    expert_capacity,
    moe_forward,
    route,
)
from moelab.tensor import Tensor, grad_check, matmul, softmax


class IdentityExpert:
    def __call__(self, x):
        return x * 1.0


class ScaleExpert:
    def __init__(self, factor):
        self.factor = factor

    def __call__(self, x):
        return x * self.factor


def _gate_probs(x, gate_weights):
    """[1, E] gate probabilities of a single token activation."""
    x = Tensor(np.asarray(x, dtype=np.float64).reshape(1, -1))
    return softmax(matmul(x, Tensor(np.asarray(gate_weights, dtype=np.float64))), axis=-1)


def _gate_for_logits(logits):
    """Weights so a 1-d input [1.0] produces exactly the given gate logits."""
    return np.array([logits], dtype=np.float64)


def test_gate_top2_frozen_example():
    idx, weights, keep, _ = route(_gate_probs([1.0], _gate_for_logits([2.0, 1.0, 0.0, -1.0])), 2)
    assert idx.tolist() == [[0, 1]]
    assert keep.tolist() == [[True, True]]
    e = np.exp([2.0, 1.0, 0.0, -1.0])
    p = e / e.sum()
    w = weights.data[0]
    assert abs(w[0] - p[0] / (p[0] + p[1])) < 1e-12
    assert abs(w[0] - 0.7310585786300049) < 1e-12
    assert abs(w.sum() - 1.0) < 1e-12


def test_gate_top2_tie_breaks_to_lower_index():
    idx, weights, _, _ = route(_gate_probs([1.0], _gate_for_logits([0.5, 0.5, 0.5])), 2)
    assert idx.tolist() == [[0, 1]]
    assert abs(weights.data[0, 0] - 0.5) < 1e-12
    assert abs(weights.data[0, 1] - 0.5) < 1e-12


def test_gate_top2_single_expert():
    probs = _gate_probs([1.0, 2.0], np.array([[0.3], [0.4]]))
    assert probs.shape == (1, 1)
    idx, weights, keep, _ = route(probs, 2)
    assert idx.tolist() == [[0]]
    assert weights.data.tolist() == [[1.0]]
    assert keep.tolist() == [[True]]


def test_gate_top2_ordering_and_distinctness():
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = _gate_probs(rng.normal(size=4), rng.normal(size=(4, 6)))
        idx, weights, _, _ = route(probs, 2)
        i0, i1 = idx[0]
        w0, w1 = weights.data[0]
        assert i0 != i1
        assert probs.data[0, i0] >= probs.data[0, i1]
        assert w0 >= w1 >= 0.0
        assert abs(w0 + w1 - 1.0) < 1e-12


def test_expert_capacity_values_and_errors():
    assert expert_capacity(4, 2, 1.0) == 4
    assert expert_capacity(10, 4, 1.25) == math.ceil(1.25 * 20 / 4)
    with pytest.raises(ConfigError):
        expert_capacity(4, 2, 0.5)


def test_moe_forward_single_expert_exact():
    rng = np.random.default_rng(1)
    tokens = Tensor(rng.normal(size=(6, 4)))
    expert = ExpertFFN(Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=(8, 4))))
    out, stats = moe_forward(tokens, [expert], Tensor(np.zeros((4, 1))), capacity_factor=4.0)
    direct = expert(tokens)
    assert np.array_equal(out.data, direct.data)
    assert stats.dropped_tokens == 0
    assert stats.tokens_per_expert.tolist() == [6]


def test_moe_forward_identity_experts_return_input():
    rng = np.random.default_rng(2)
    tokens = Tensor(rng.normal(size=(5, 3)))
    out, stats = moe_forward(tokens, [IdentityExpert()] * 4, Tensor(rng.normal(size=(3, 4))))
    assert np.max(np.abs(out.data - tokens.data)) < 1e-12
    assert stats.total_tokens == 5
    assert stats.tokens_per_expert.sum() == 5


def _oracle_dispatch(tokens, expert_fns, gate_w, capacity_factor):
    """Independent per-token reimplementation of routing with python loops."""
    n_tokens, _ = tokens.shape
    n_experts = gate_w.shape[1]
    capacity = math.ceil(capacity_factor * 2.0 * n_tokens / n_experts)
    outputs = np.zeros_like(tokens)
    counts = {e: 0 for e in range(n_experts)}
    loads = [0] * n_experts
    dropped = 0
    for t in range(n_tokens):
        logits = tokens[t] @ gate_w
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        order = sorted(range(n_experts), key=lambda i: (-probs[i], i))
        if n_experts == 1:
            pair, weights = [0, 0], [1.0, 0.0]
        else:
            pair = order[:2]
            s = probs[pair[0]] + probs[pair[1]]
            weights = [probs[pair[0]] / s, probs[pair[1]] / s]
        loads[pair[0]] += 1
        kept_any = False
        for slot in range(2):
            if n_experts == 1 and slot == 1:
                continue
            e_id = pair[slot]
            if counts[e_id] < capacity:
                counts[e_id] += 1
                fn = expert_fns[e_id]
                outputs[t] += weights[slot] * fn(Tensor(tokens[t : t + 1])).data[0]
                kept_any = True
        if not kept_any:
            outputs[t] = tokens[t]
            dropped += 1
    return outputs, loads, dropped


@pytest.mark.parametrize("seed", range(8))
def test_moe_forward_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n_tokens = int(rng.integers(2, 16))
    n_experts = int(rng.integers(1, 5))
    d = 3
    capacity_factor = float(rng.choice([1.0, 1.25, 2.0]))
    tokens = rng.normal(size=(n_tokens, d))
    gate_w = rng.normal(size=(d, n_experts))
    experts = [ScaleExpert(float(rng.normal())) for _ in range(n_experts)]

    out, stats = moe_forward(Tensor(tokens), experts, Tensor(gate_w), capacity_factor)
    want, loads, dropped = _oracle_dispatch(tokens, experts, gate_w, capacity_factor)
    assert np.max(np.abs(out.data - want)) < 1e-10
    assert stats.tokens_per_expert.tolist() == loads
    assert stats.dropped_tokens == dropped


def test_capacity_one_drops_all_but_first_per_expert():
    # T=4, E=2 at capacity_factor=1 gives capacity 4: nothing dropped.
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(4, 3))
    gate_w = rng.normal(size=(3, 2))
    _, stats = moe_forward(Tensor(tokens), [IdentityExpert()] * 2, Tensor(gate_w), 1.0)
    assert stats.dropped_tokens == 0

    # Forcing capacity 1 keeps one assignment per expert.
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]])
    idx, _, keep, _ = route(Tensor(probs), capacity=1)
    for e in range(2):
        assigned = (idx == e).sum()
        kept = keep[idx == e].sum()
        assert kept == min(assigned, 1)
        assert (assigned - kept) == max(0, assigned - 1)


def test_partial_drop_is_not_renormalized():
    # Two tokens both prefer expert 0; capacity 1 forces the second token to
    # keep only its slot-1 expert, weighted by the *unrenormalized* w1.
    tokens = np.array([[1.0, 0.0], [1.0, 0.0]])
    gate_w = np.array([[2.0, 1.0], [0.0, 0.0]])  # logits [2, 1] for both tokens
    experts = [ScaleExpert(10.0), ScaleExpert(100.0)]
    probs = np.exp([2.0, 1.0])
    probs = probs / probs.sum()
    w0, w1 = probs[0], probs[1]  # already sum to 1 for E=2

    out, stats = moe_forward(Tensor(tokens), experts, Tensor(gate_w), capacity_factor=1.0)
    # capacity = ceil(1.0 * 4 / 2) = 2: no drop at factor 1; use the oracle path
    want0 = w0 * 10.0 * tokens[0] + w1 * 100.0 * tokens[0]
    assert np.allclose(out.data[0], want0)

    # squeezing capacity to 1 leaves the second token with neither expert
    _, _, keep, _ = route(Tensor(np.tile(probs, (2, 1))), capacity=1)
    assert keep.tolist() == [[True, True], [False, False]]


def test_token_losing_both_slots_passes_through():
    # Three tokens, one expert pair, capacity forced low by many tokens and
    # adversarial preferences: construct E=2 where all tokens pick the same
    # order so late tokens lose both slots.
    n_tokens = 6
    tokens = np.tile(np.array([[1.0, 0.0]]), (n_tokens, 1))
    gate_w = np.array([[3.0, 1.0], [0.0, 0.0]])
    experts = [ScaleExpert(5.0), ScaleExpert(7.0)]
    out, stats = moe_forward(Tensor(tokens), experts, Tensor(gate_w), capacity_factor=1.0)
    # capacity = ceil(2*6/2 * 1.0) = 6 -> nobody dropped here; verify invariant holds
    assert stats.dropped_tokens == 0

    want, loads, dropped = _oracle_dispatch(tokens, experts, gate_w, 1.0)
    assert np.max(np.abs(out.data - want)) < 1e-10

    # identical tokens all queue on the same two experts; at capacity 2,
    # tokens 2.. lose both slots
    _, _, keep, _ = route(Tensor(np.tile([0.9, 0.1], (n_tokens, 1))), capacity=2)
    assert (~keep.any(axis=1)).sum() == n_tokens - 2


def test_aux_loss_balanced_and_degenerate():
    # perfectly balanced: f == m == 1/E -> loss 1
    stats = DispatchStats(
        tokens_per_expert=np.array([2, 2, 2, 2]),
        mean_gate_prob=Tensor(np.full(4, 0.25)),
        dropped_tokens=0,
        total_tokens=8,
    )
    assert abs(aux_load_balance_loss(stats).item() - 1.0) < 1e-12

    one_hot = DispatchStats(
        tokens_per_expert=np.array([8, 0, 0, 0]),
        mean_gate_prob=Tensor(np.array([1.0, 0.0, 0.0, 0.0])),
        dropped_tokens=0,
        total_tokens=8,
    )
    assert abs(aux_load_balance_loss(one_hot).item() - 4.0) < 1e-12


def test_aux_loss_frozen_mixed_example():
    stats = DispatchStats(
        tokens_per_expert=np.array([3, 1]),
        mean_gate_prob=Tensor(np.array([0.75, 0.25])),
        dropped_tokens=0,
        total_tokens=4,
    )
    assert abs(aux_load_balance_loss(stats).item() - 1.25) < 1e-12


def test_aux_loss_exceeds_one_when_imbalanced():
    rng = np.random.default_rng(4)
    for _ in range(25):
        e = int(rng.integers(2, 8))
        f = rng.dirichlet(np.ones(e) * 0.3)
        stats = DispatchStats(
            tokens_per_expert=(f * 1000).astype(np.int64),
            mean_gate_prob=Tensor(f),
            dropped_tokens=0,
            total_tokens=int((f * 1000).astype(np.int64).sum()),
        )
        stats.tokens_per_expert = (f * 1000).astype(np.int64)
        stats.total_tokens = int(stats.tokens_per_expert.sum())
        fr = stats.load_fractions
        want = e * float((fr * f).sum())
        assert abs(aux_load_balance_loss(stats).item() - want) < 1e-9
        if np.max(np.abs(f - 1.0 / e)) > 0.05:
            assert aux_load_balance_loss(stats).item() > 1.0


def test_aux_loss_is_differentiable_through_gate():
    rng = np.random.default_rng(5)
    tokens = Tensor(rng.normal(size=(6, 3)))
    gate = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    _, stats = moe_forward(tokens, [IdentityExpert()] * 4, gate)
    aux_load_balance_loss(stats).backward()
    assert gate.grad is not None and np.abs(gate.grad).max() > 0.0


def test_unrouted_expert_gets_zero_gradient():
    # perturbing an expert that received no tokens leaves the loss bit-identical
    rng = np.random.default_rng(6)
    tokens = Tensor(rng.normal(size=(4, 3)))
    gate_w = np.zeros((3, 3))
    gate_w[0] = [5.0, 4.0, -5.0]  # expert 2 never selected
    experts = [
        ExpertFFN(Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  Tensor(rng.normal(size=(4, 3)), requires_grad=True))
        for _ in range(3)
    ]
    tokens.data[:, 0] = np.abs(tokens.data[:, 0]) + 0.5  # keep gate order stable

    def run():
        out, _ = moe_forward(tokens, experts, Tensor(gate_w))
        return (out * out).sum()

    base = run().item()
    experts[2].w_in.data += 100.0
    assert run().item() == base

    loss = run()
    loss.backward()
    assert experts[2].w_in.grad is None or np.all(experts[2].w_in.grad == 0.0)
    assert np.abs(experts[0].w_in.grad).max() > 0.0


def test_moe_forward_grad_check():
    rng = np.random.default_rng(7)
    tokens_data = rng.normal(size=(5, 3))
    experts = [
        ExpertFFN(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 3))))
        for _ in range(3)
    ]
    gate = Tensor(rng.normal(size=(3, 3)))

    def loss_wrt_tokens(t):
        out, stats = moe_forward(t, experts, gate, capacity_factor=4.0)
        return (out * out).sum() + aux_load_balance_loss(stats)

    assert grad_check(loss_wrt_tokens, Tensor(tokens_data)) < 1e-4

    tokens = Tensor(tokens_data)

    def loss_wrt_gate(g):
        out, stats = moe_forward(tokens, experts, g, capacity_factor=4.0)
        return (out * out).sum() + 0.01 * aux_load_balance_loss(stats)

    assert grad_check(loss_wrt_gate, gate) < 1e-4


def test_moe_forward_consistent_with_gate_top2():
    rng = np.random.default_rng(8)
    tokens = rng.normal(size=(7, 4))
    gate_w = rng.normal(size=(4, 5))
    _, stats = moe_forward(Tensor(tokens), [IdentityExpert()] * 5, Tensor(gate_w))
    loads = np.zeros(5, dtype=int)
    prob_sum = np.zeros(5)
    for t in range(7):
        logits = tokens[t] @ gate_w
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        loads[np.argmax(probs)] += 1
        prob_sum += probs
    assert stats.tokens_per_expert.tolist() == loads.tolist()
    assert np.max(np.abs(stats.mean_gate_prob.data - prob_sum / 7)) < 1e-12
    assert abs(stats.mean_gate_prob.data.sum() - 1.0) < 1e-9


# ------------------------------------------------------- route properties


@st.composite
def _routing_case(draw, max_experts=6, scales=(1.0,)):
    """Gate probabilities [T, E] (E may be 1) and a capacity; logits tie often."""
    n_tokens = draw(st.integers(1, 24))
    n_experts = draw(st.integers(1, max_experts))
    scale = draw(st.sampled_from(scales))
    logit = st.one_of(st.integers(-3, 3).map(float), st.floats(-6.0, 6.0))
    logits = scale * draw(hnp.arrays(np.float64, (n_tokens, n_experts), elements=logit))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    capacity = draw(st.integers(1, 2 * n_tokens + 1))
    return e / e.sum(axis=-1, keepdims=True), capacity


@settings(deadline=None)
@given(_routing_case())
def test_route_never_exceeds_capacity(case):
    probs, capacity = case
    idx, _, keep, _ = route(Tensor(probs), capacity)
    for e in range(probs.shape[1]):
        assert ((idx == e) & keep).sum() <= capacity


@settings(deadline=None)
@given(_routing_case())
def test_route_slots_number_each_expert_queue_of_kept_assignments(case):
    probs, capacity = case
    idx, _, keep, slot = route(Tensor(probs), capacity)
    for e in range(probs.shape[1]):
        mine = (idx == e) & keep  # row-major order is the (token, slot) queue order
        assert slot[mine].tolist() == list(range(mine.sum()))


@settings(deadline=None)
@given(_routing_case())
def test_route_kept_weights_are_a_sub_distribution(case):
    probs, capacity = case
    _, weights, keep, _ = route(Tensor(probs), capacity)
    kept = np.where(keep, weights.data, 0.0)
    assert kept.min() >= 0.0 and kept.max() <= 1.0
    assert np.all(kept.sum(axis=1) <= 1.0 + 1e-12)


@settings(deadline=None)
@given(_routing_case(), st.integers(1, 8))
def test_route_drops_no_more_tokens_as_capacity_grows(case, extra):
    probs, capacity = case
    _, _, small, _ = route(Tensor(probs), capacity)
    _, _, large, _ = route(Tensor(probs), capacity + extra)
    assert (~large.any(axis=1)).sum() <= (~small.any(axis=1)).sum()


def _argsort_route(probs, capacity):
    """Reference rule: sort each whole gate row, take two, and count kept
    assignments ahead of each in its expert's queue (E >= 2 only)."""
    n_experts = probs.shape[-1]
    idx = np.argsort(-probs, axis=-1, kind="stable")[:, :2]
    raw = np.take_along_axis(probs, idx, axis=-1)
    weights = raw / raw.sum(axis=-1, keepdims=True)
    flat = idx.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_e = flat[order]
    starts = np.searchsorted(sorted_e, np.arange(n_experts), side="left")
    keep = np.empty(flat.size, dtype=bool)
    keep[order] = np.arange(flat.size) - starts[sorted_e] < capacity
    kept_sorted = keep[order]
    ahead = np.cumsum(kept_sorted) - kept_sorted
    slot = np.empty(flat.size, dtype=np.intp)
    slot[order] = ahead - ahead[starts[sorted_e]]
    return idx, weights, keep.reshape(idx.shape), slot.reshape(idx.shape)


@settings(deadline=None)
@given(_routing_case(max_experts=40, scales=(1.0, 30.0, 800.0)))
def test_route_equals_the_argsort_rule(case):
    probs, capacity = case
    idx, weights, keep, slot = route(Tensor(probs), capacity)
    if probs.shape[1] == 1:
        assert idx.shape == (probs.shape[0], 1) and not idx.any()
        assert np.all(weights.data == 1.0)
        assert np.array_equal(keep[:, 0], np.arange(probs.shape[0]) < capacity)
        return
    want_idx, want_weights, want_keep, want_slot = _argsort_route(probs, capacity)
    assert np.array_equal(idx, want_idx)
    assert weights.data.tobytes() == want_weights.tobytes()
    assert np.array_equal(keep, want_keep)
    assert np.array_equal(slot[keep], want_slot[want_keep])


@settings(deadline=None)
@given(_routing_case(), st.data())
def test_route_keep_depends_only_on_earlier_tokens(case, data):
    probs, capacity = case
    n_tokens, n_experts = probs.shape
    cut = data.draw(st.integers(1, n_tokens))
    suffix = data.draw(
        hnp.arrays(np.float64, (n_tokens - cut, n_experts), elements=st.floats(0.01, 1.0))
    )
    changed = np.concatenate([probs[:cut], suffix / suffix.sum(axis=-1, keepdims=True)])
    idx, _, keep, _ = route(Tensor(probs), capacity)
    idx_changed, _, keep_changed, _ = route(Tensor(changed), capacity)
    assert np.array_equal(idx[:cut], idx_changed[:cut])
    assert np.array_equal(keep[:cut], keep_changed[:cut])


@settings(deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 6),
    st.floats(1.0, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_moe_forward_totals_agree_with_route(n_tokens, n_experts, capacity_factor, seed):
    rng = np.random.default_rng(seed)
    tokens = Tensor(rng.normal(size=(n_tokens, 3)))
    gate = Tensor(rng.normal(scale=2.0, size=(3, n_experts)))
    _, stats = moe_forward(tokens, [IdentityExpert()] * n_experts, gate, capacity_factor)
    assert stats.tokens_per_expert.sum() == n_tokens
    probs = softmax(matmul(tokens, gate), axis=-1)
    _, _, keep, _ = route(probs, expert_capacity(n_tokens, n_experts, capacity_factor))
    assert stats.dropped_tokens == (~keep.any(axis=1)).sum()


# ------------------------------------------------ capacity-buffer dispatch


class RowCountingExpert:
    def __init__(self):
        self.rows = []

    def __call__(self, x):
        self.rows.append(x.shape[-2])
        self.experts = x.shape[0]
        return x * 2.0


@pytest.mark.parametrize(
    "n_tokens, n_experts, capacity_factor",
    [(64, 32, 1.25), (64, 4, 1.0), (10, 2, 1.25), (7, 1, 1.0), (6, 8, 1.0), (3, 8, 1.0), (1, 4, 1.0)],
)
def test_each_expert_runs_once_on_its_capacity_buffer(n_tokens, n_experts, capacity_factor):
    rng = np.random.default_rng(n_tokens + n_experts)
    experts = [RowCountingExpert() for _ in range(n_experts)]
    stacked = RowCountingExpert()
    tokens = Tensor(rng.normal(size=(n_tokens, 3)))
    gate = Tensor(rng.normal(size=(3, n_experts)))
    moe_forward(tokens, experts, gate, capacity_factor)
    moe_forward(tokens, [stacked], gate, capacity_factor)
    capacity = expert_capacity(n_tokens, n_experts, capacity_factor)
    rows = min(max(capacity, 2), n_tokens)  # a buffer never has one row unless T is 1
    assert [e.rows for e in experts] == [[rows]] * n_experts
    assert all(e.experts == 1 for e in experts)
    assert stacked.rows == [rows] and stacked.experts == n_experts  # one [E, C, M] call


def _mask_combine(tokens, experts, gate_weights, capacity_factor):
    """Reference combine: every expert runs over all T tokens, and each token's
    weight for that expert (zero where unselected or dropped) scales its output."""
    n_tokens, n_experts = tokens.shape[0], len(experts)
    probs = softmax(matmul(tokens, gate_weights), axis=-1)
    idx, weights, keep, _ = route(probs, expert_capacity(n_tokens, n_experts, capacity_factor))
    terms = []
    for e in range(n_experts):
        mask = ((idx == e) & keep).astype(np.float64)
        if mask.any():
            terms.append(experts[e](tokens) * (weights * mask).sum(axis=-1, keepdims=True))
    kept_any = keep.any(axis=1)
    if not kept_any.all():
        terms.append(tokens * (~kept_any).astype(np.float64)[:, None])
    return sum(terms[1:], terms[0])


@settings(deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 8),
    st.floats(1.0, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_moe_forward_equals_mask_combine(n_tokens, n_experts, capacity_factor, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(n_tokens, 4)), rng.normal(scale=2.0, size=(4, n_experts))]
    arrays += [rng.normal(size=shape) for _ in range(n_experts) for shape in ((4, 6), (6, 4))]

    def run(combine):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        tokens, gate, *w = leaves
        experts = [ExpertFFN(w[2 * e], w[2 * e + 1]) for e in range(n_experts)]
        out = combine(tokens, experts, gate, capacity_factor)
        (out * out).sum().backward()
        return out.data, [np.zeros_like(a) if t.grad is None else t.grad for t, a in zip(leaves, arrays)]

    out, grads = run(lambda *args: moe_forward(*args)[0])
    want, want_grads = run(_mask_combine)
    assert np.array_equal(out, want)
    for got, expected in zip(grads, want_grads):
        assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("n_experts", [2, 4, 32, 64])
def test_stacked_experts_equal_the_list_bit_for_bit(n_experts):
    # one ExpertFFN over [E, M, H] and [E, H, M] against E one-expert callables over the slices
    rng = np.random.default_rng(n_experts)
    arrays = [
        rng.normal(size=(96, 8)),
        rng.normal(scale=2.0, size=(8, n_experts)),
        rng.normal(size=(n_experts, 8, 12)),
        rng.normal(size=(n_experts, 12, 8)),
    ]
    probe = Tensor(rng.normal(size=(96, 8)))

    def run(stacked):
        tokens, gate, w_in, w_out = [Tensor(a, requires_grad=True) for a in arrays]
        pairs = [(w_in, w_out)]
        if not stacked:
            pairs = [(Tensor(w_in.data[e], requires_grad=True), Tensor(w_out.data[e], requires_grad=True))
                     for e in range(n_experts)]
        out, _ = moe_forward(tokens, [ExpertFFN(*pair) for pair in pairs], gate)
        (out * probe).sum().backward()
        weight_grads = [np.stack([pair[i].grad for pair in pairs]).reshape(arrays[2 + i].shape) for i in (0, 1)]
        return [out.data, tokens.grad, gate.grad, *weight_grads]

    for stacked, listed in zip(run(True), run(False)):
        assert stacked.tobytes() == listed.tobytes()
