"""Acceptance gate: one numbered criterion per test-name prefix.

Counting oracles against published reference sizes, gradient correctness,
directional training properties on synthetic corpora, and exactness fixtures
for the data, eval, contamination, and sharding modules.  Criteria 6-8 train
many tiny models and dominate the suite's runtime (a few minutes total);
everything else is seconds.  Values quoted from the published tables live in
PUBLISHED_SIZES and the energy constants below.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from _synth import (
    clean_docs,
    markov_batch_source,
    markov_transitions,
    noise_docs,
    uniform_batch_source,
)
from moelab import tensor as T
from moelab.checkpoint import load_checkpoint, save_checkpoint
from moelab.configs import PRESETS
from moelab.costs import co2_estimate, energy_estimate
from moelab.contamination import build_ngram_index, is_dirty, normalize_tokens
from moelab.data import (
    DEFAULT_MIXTURE,
    Document,
    MixtureSpec,
    batches_from_documents,
    filter_corpus,
    keep_mask,
    mixture_sampler,
    train_quality_classifier,
)
from moelab.evalharness import generate_beam, generative_metrics, score_option
from moelab.model import (
    ModelConfig,
    build,
    count_params,
    flops_per_token,
    reduce_to_single_expert,
)
from moelab.moe import ExpertFFN, moe_forward
from moelab.shardplan import (
    Mesh,
    comm_volume,
    expert_home_column,
    plan,
    simulate_sharded,
    validate,
)
from moelab.trainer import AdafactorState, CheckpointManager, train, train_step
from moelab.util import params_checksum, substream, substream_seed


# ------------------------------------------------- 1: parameter accounting

# (total, activated) parameter counts as published for this model family.
PUBLISHED_SIZES = {
    "0.1b": (130e6, 130e6),
    "0.1b-64e": (1.9e9, 145e6),
    "1.7b": (1.7e9, 1.700e9),
    "1.7b-32e": (20e9, 1.878e9),
    "1.7b-64e": (27e9, 1.879e9),
    "1.7b-128e": (53e9, 1.881e9),
    "1.7b-256e": (105e9, 1.886e9),
    "8b": (8.7e9, 8.7e9),
    "8b-64e": (143e9, 9.8e9),
    "137b": (137e9, 137e9),
    "64b-64e": (1.2e12, 96.6e9),
}


def test_criterion_01_preset_counts_land_within_fifteen_percent():
    for name, (pub_total, pub_act) in PUBLISHED_SIZES.items():
        total, act = count_params(PRESETS[name])
        assert abs(act - pub_act) / pub_act < 0.15, (name, act, pub_act)
        if name == "1.7b-32e":
            continue  # published total checked by the companion xfail test
        assert abs(total - pub_total) / pub_total < 0.15, (name, total, pub_total)


@pytest.mark.xfail(
    strict=True,
    reason="the published total for the 32-expert 1.7B-geometry row is ~30% above "
    "what the row's own geometry implies under any single counting rule that fits "
    "every sibling row; its activated column does match within tolerance",
)
def test_criterion_01_published_32_expert_total():
    total, _ = count_params(PRESETS["1.7b-32e"])
    pub_total, _ = PUBLISHED_SIZES["1.7b-32e"]
    assert abs(total - pub_total) / pub_total < 0.15


def test_criterion_01_moe_minus_dense_delta_identity():
    # same-geometry pairs differing only in expert count; gate tables are the
    # only MoE parameters outside the published delta formula
    pairs = [
        ("0.1b", "0.1b-64e"),
        ("1.7b", "1.7b-32e"),
        ("1.7b", "1.7b-64e"),
        ("1.7b", "1.7b-128e"),
        ("1.7b", "1.7b-256e"),
        ("8b", "8b-64e"),
    ]
    for dense_name, moe_name in pairs:
        dense_cfg, moe_cfg = PRESETS[dense_name], PRESETS[moe_name]
        layers, m, h, experts = (
            moe_cfg.n_layers,
            moe_cfg.d_model,
            moe_cfg.d_ff,
            moe_cfg.n_experts,
        )
        gates = (layers // 2) * m * experts
        delta = count_params(moe_cfg)[0] - count_params(dense_cfg)[0] - gates
        assert delta == (layers // 2) * (experts * 2 * m * h - 3 * m * h), moe_name

    gates = 6 * 768 * 64
    delta = count_params(PRESETS["0.1b-64e"])[0] - count_params(PRESETS["0.1b"])[0]
    assert delta - gates == 1_769_472_000  # the published ~1.77B example


# ---------------------------------------------------------- 2: flops ratio


def test_criterion_02_sparse_model_runs_under_sixty_percent_of_dense_flops():
    ratio = flops_per_token(PRESETS["64b-64e"]) / flops_per_token(PRESETS["dense-175b"])
    assert ratio < 0.6, ratio


# ----------------------------------------------------- 3: energy arithmetic


def test_criterion_03_training_energy_and_emissions_arithmetic():
    # published reference run: 1024 chips at 326 W for 574 h, PUE 1.11
    assert 212.5 <= energy_estimate(1024, 326, 574, 1.11) <= 213.5
    assert 18.6 <= co2_estimate(213, 0.088) <= 18.8
    assert 40.0 <= co2_estimate(456, 0.088) <= 40.3


# ------------------------------------------------------- 4: gradient check


def test_criterion_04_full_model_gradient_check():
    cfg = ModelConfig(
        n_layers=2,
        d_model=8,
        d_ff=16,
        n_heads=2,
        d_head=4,
        n_experts=4,
        vocab_size=17,
        seq_len=5,
        batch_size=2,
    )
    model = build(cfg, seed=21)
    ids = np.random.default_rng(22).integers(0, cfg.vocab_size, size=(2, 5))
    eps = 1e-5

    def loss_value():
        logits, aux, _ = model.forward(ids[:, :-1])
        return T.cross_entropy(logits, ids[:, 1:]) + 0.01 * aux

    model.zero_grad()
    loss_value().backward()
    analytic = {
        name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        for name, p in model.params().items()
    }

    def loss_at(param, flat_index, delta):
        saved = param.data
        bumped = saved.copy()
        bumped.reshape(-1)[flat_index] += delta
        param.data = bumped
        try:
            return float(loss_value().data)
        finally:
            param.data = saved

    worst = 0.0
    for name, param in sorted(model.params().items()):
        grad = analytic[name].reshape(-1)
        for i in range(param.data.size):
            numeric = (loss_at(param, i, eps) - loss_at(param, i, -eps)) / (2 * eps)
            denom = max(abs(grad[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(grad[i] - numeric) / denom)
    assert worst < 1e-4, worst


# ------------------------------------------------------ 5: dense reduction


def test_criterion_05_duplicated_experts_match_the_reduced_dense_model():
    cfg = ModelConfig(
        n_layers=2,
        d_model=16,
        d_ff=32,
        n_heads=2,
        d_head=8,
        n_experts=2,
        vocab_size=23,
        seq_len=8,
    )
    model = build(cfg, seed=50)
    for name, p in model.params().items():
        if ".experts." in name:
            p.data[1] = p.data[0]
    single = reduce_to_single_expert(model)
    rng = np.random.default_rng(51)
    for _ in range(100):
        ids = rng.integers(0, cfg.vocab_size, size=(2, 6))
        a, _, _ = model.forward(ids)
        b, _, _ = single.forward(ids)
        assert np.max(np.abs(a.data - b.data)) < 1e-10


# ------------------------------------------------------- 6: load balancing


def _final_max_load(seed, aux_coeff):
    """Mean over the last 10 steps of the busiest expert's token share."""
    cfg = ModelConfig(
        n_layers=2,
        d_model=16,
        d_ff=32,
        n_heads=2,
        d_head=8,
        n_experts=8,
        vocab_size=32,
        seq_len=16,
        batch_size=8,
    )
    model = build(cfg, substream_seed(seed, "model"))
    entries = train(
        model,
        uniform_batch_source(32, 8, 16),
        steps=500,
        seed=seed,
        aux_coeff=aux_coeff,
    )
    return float(np.mean([max(e.expert_load[0]) for e in entries[-10:]]))


def test_criterion_06_auxiliary_loss_keeps_expert_load_flat():
    balanced = sum(_final_max_load(seed, 0.01) < 2.5 / 8 for seed in range(5))
    assert balanced >= 4, balanced


def test_criterion_06_without_auxiliary_loss_some_run_collapses():
    assert any(_final_max_load(seed, 0.0) > 4 / 8 for seed in range(5))


# -------------------------------------------------- 7: expert-count scaling


def test_criterion_07_more_experts_do_not_hurt_markov_perplexity():
    trans = markov_transitions(substream(0, "chain"), 64)
    holdout = list(
        itertools.islice(
            markov_batch_source(trans, 16, 16)(substream_seed(999, "holdout")), 30
        )
    )

    def heldout_ppl(seed, n_experts, d_ff):
        cfg = ModelConfig(
            n_layers=2,
            d_model=16,
            d_ff=d_ff,
            n_heads=2,
            d_head=8,
            n_experts=n_experts,
            vocab_size=64,
            seq_len=16,
            batch_size=16,
        )
        model = build(cfg, substream_seed(seed, "model"))
        train(
            model,
            markov_batch_source(trans, 16, 16),
            steps=2000,
            seed=seed,
            warmup_steps=200,
        )
        losses = []
        for batch in holdout:
            logits, _, _ = model.forward(batch[:, :-1])
            losses.append(float(T.cross_entropy(logits, batch[:, 1:]).data))
        return math.exp(float(np.mean(losses)))

    # d_ff 28 dense vs 24 sparse equalizes activated feed-forward compute per
    # layer pair: 2 * 3MH = 6*28*M dense, 3MH + 2 * 2MH = 7*24*M sparse
    wins = 0
    for seed in range(5):
        ppl = [heldout_ppl(seed, 1, 28), heldout_ppl(seed, 4, 24), heldout_ppl(seed, 16, 24)]
        wins += ppl[0] >= ppl[1] >= ppl[2]
    assert wins >= 3, wins


# ------------------------------------------------- 8: quality-filter payoff


def test_criterion_08_filtered_corpus_lowers_clean_heldout_perplexity():
    rng = substream(0, "corpus")
    clean_all = clean_docs(rng, 200)
    noise_all = noise_docs(rng, 160)
    corpus = clean_all[:120] + noise_all[:120]
    curated, web = clean_all[120:160], noise_all[120:160]
    held = clean_all[160:200]
    clf = train_quality_classifier(
        curated, web, hash_dim=4096, seed=substream_seed(0, "clf")
    )
    holdout = list(
        itertools.islice(
            batches_from_documents(held, 32, 8)(substream_seed(999, "holdout")), 15
        )
    )

    def heldout_ppl(model):
        losses = []
        for batch in holdout:
            logits, _, _ = model.forward(batch[:, :-1])
            losses.append(float(T.cross_entropy(logits, batch[:, 1:]).data))
        return math.exp(float(np.mean(losses)))

    cfg = ModelConfig(
        n_layers=2,
        d_model=16,
        d_ff=32,
        n_heads=2,
        d_head=8,
        n_experts=1,
        vocab_size=259,
        seq_len=32,
        batch_size=8,
    )
    wins = 0
    for seed in range(5):
        kept, _ = filter_corpus(corpus, clf, alpha=9.0, seed=substream_seed(seed, "filter"))
        arms = {}
        for arm, docs in (("filtered", kept), ("unfiltered", corpus)):
            model = build(cfg, substream_seed(seed, "model"))
            train(model, batches_from_documents(docs, 32, 8), steps=400, seed=seed)
            arms[arm] = heldout_ppl(model)
        wins += arms["filtered"] < arms["unfiltered"]
    assert wins >= 3, wins


# ------------------------------------------------------ 9: pareto keep rate


def test_criterion_09_keep_rates_match_the_closed_form():
    rng = np.random.default_rng(90)
    n = 1_000_000
    for s in (0.0, 0.5):
        expected = (2.0 - s) ** -9.0
        rate = float(keep_mask(np.full(n, s), alpha=9.0, rng=rng).mean())
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(rate - expected) < 3 * sigma, (s, rate, expected)
    # a perfect score keeps everything: the closed form hits probability 1
    assert keep_mask(np.ones(n), alpha=9.0, rng=rng).all()


# -------------------------------------------------------- 10: mixture weights


def test_criterion_10_sampler_reproduces_published_mixture_weights():
    sources = {
        name: [Document(f"{name}-{i}", name, f"text for {name} {i}") for i in range(4)]
        for name in DEFAULT_MIXTURE
    }
    stream = mixture_sampler(sources, MixtureSpec(), np.random.default_rng(100))
    n = 1_000_000
    counts = Counter(doc.source for doc in itertools.islice(stream, n))
    for name, weight in DEFAULT_MIXTURE.items():
        assert abs(counts[name] / n - weight) < 0.005, name


# ------------------------------------------------------- 11: eval protocol


class _TableScorer:
    """Per-token logprobs looked up by token id."""

    def __init__(self, table, default=-1.0):
        self.table = table
        self.default = default

    def token_logprobs(self, ids):
        return np.array([self.table.get(t, self.default) for t in ids])


class _EnumScorer:
    """Next-token distributions keyed on the generated prefix."""

    def __init__(self, transitions):
        self.transitions = {
            k: np.log(np.asarray(v, dtype=np.float64)) for k, v in transitions.items()
        }

    def next_token_logprobs(self, ids):
        return self.transitions[tuple(ids)]


# greedy takes token 0 twice, but stopping after token 1 scores better per
# token; token 2 is EOS
_TRAP = {
    (): [0.55, 0.449, 0.001],
    (0,): [0.4, 0.3, 0.3],
    (1,): [0.05, 0.05, 0.9],
    (0, 0): [0.001, 0.001, 0.998],
    (0, 1): [0.001, 0.001, 0.998],
    (1, 0): [0.001, 0.001, 0.998],
    (1, 1): [0.001, 0.001, 0.998],
    (0, 0, 0): [0.001, 0.001, 0.998],
}


def _normalized_score(scorer, seq):
    total, prefix = 0.0, ()
    for token in seq:
        total += float(scorer.next_token_logprobs(list(prefix))[token])
        prefix += (token,)
    return total / len(seq)


def _exhaustive_best(scorer, max_len, eos=2):
    best, best_score = None, -np.inf
    for length in range(1, max_len + 1):
        for seq in itertools.product(range(3), repeat=length):
            if eos in seq[:-1] or seq[-1] != eos:
                continue  # exactly one EOS, at the end
            value = _normalized_score(scorer, seq)
            if value > best_score:
                best, best_score = seq, value
    return list(best[:-1])


def test_criterion_11_normalized_and_raw_scoring_pick_different_options():
    scorer = _TableScorer({10: -0.5, 11: -0.5, 12: -0.5, 20: -1.2})
    a_norm = score_option(scorer, [1], [10, 11, 12], "length_normalized")
    b_norm = score_option(scorer, [1], [20], "length_normalized")
    a_raw = score_option(scorer, [1], [10, 11, 12], "raw")
    b_raw = score_option(scorer, [1], [20], "raw")
    assert (a_norm, b_norm, a_raw, b_raw) == (-0.5, -1.2, -1.5, -1.2)
    assert a_norm > b_norm  # normalized prefers the long option
    assert b_raw > a_raw  # raw prefers the short one


def test_criterion_11_width_two_beam_beats_greedy_and_matches_exhaustion():
    scorer = _EnumScorer(_TRAP)
    greedy = generate_beam(scorer, [], beam_width=1, max_tokens=3, eos_id=2)
    wide = generate_beam(scorer, [], beam_width=2, max_tokens=3, eos_id=2)
    assert greedy == [0, 0]
    assert wide == [1]
    assert wide == _exhaustive_best(scorer, max_len=3)
    assert _normalized_score(scorer, (1, 2)) > _normalized_score(scorer, (0, 0, 2))


def test_criterion_11_em_f1_goldens():
    assert generative_metrics("same words", ["same words"]) == {"em": 1.0, "f1": 1.0}
    assert generative_metrics("The cat sat!", ["cat sat"]) == {"em": 1.0, "f1": 1.0}
    assert generative_metrics("alpha beta", ["gamma delta"]) == {"em": 0.0, "f1": 0.0}
    partial = generative_metrics("x y z", ["y z w"])
    assert partial["em"] == 0.0
    assert partial["f1"] == pytest.approx(2 / 3)
    assert generative_metrics("a b c", ["b c d"])["f1"] == pytest.approx(0.8)
    best_of = generative_metrics("blue sky", ["green grass", "blue sky"])
    assert best_of == {"em": 1.0, "f1": 1.0}


# -------------------------------------------------------- 12: contamination

_WORDS = ["red", "blue", "green", "stone", "river", "cloud", "lamp", "door", "wheel", "paper"]


def _random_text(rng, n_words):
    return " ".join(_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n_words))


def _brute_force_dirty(example, corpus, n):
    """Quadratic scan: compare every example window to every corpus window."""
    ex = normalize_tokens(example)
    for i in range(len(ex) - n + 1):
        window = ex[i : i + n]
        for doc in corpus:
            tokens = normalize_tokens(doc)
            for j in range(len(tokens) - n + 1):
                if tokens[j : j + n] == window:
                    return True
    return False


def test_criterion_12_index_agrees_with_brute_force_on_100_fixtures():
    rng = np.random.default_rng(120)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        corpus = [_random_text(rng, int(rng.integers(3, 15))) for _ in range(4)]
        example = _random_text(rng, int(rng.integers(3, 15)))
        index = build_ngram_index(corpus, n=n)
        assert is_dirty(example, index) == _brute_force_dirty(example, corpus, n)


def test_criterion_12_dirty_counts_are_monotone_in_n_on_every_fixture():
    rng = np.random.default_rng(121)
    for _ in range(10):
        corpus = [_random_text(rng, 20) for _ in range(6)]
        examples = [_random_text(rng, 12) for _ in range(30)]
        counts = []
        for n in (2, 3, 4, 5, 6):
            index = build_ngram_index(corpus, n=n)
            counts.append(sum(is_dirty(e, index) for e in examples))
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts


# -------------------------------------------------------- 13: shard planner


def _plan_cfg(E, M, H, B, S):
    # head fields are irrelevant to planning but must validate
    return ModelConfig(
        n_layers=2,
        d_model=M,
        d_ff=H,
        n_heads=1,
        d_head=M,
        n_experts=E,
        vocab_size=32,
        seq_len=S,
        batch_size=B,
    )


def test_criterion_13_divisible_sweep_partitions_cleanly():
    for E in (2, 4, 8):
        for M in (8, 16):
            for H in (16, 32):
                for mesh in (Mesh(1, 1), Mesh(2, 2), Mesh(2, 4), Mesh(E, 1)):
                    cfg = _plan_cfg(E=E, M=M, H=H, B=4, S=8)
                    assert validate(plan(cfg, mesh)) == [], (E, M, H, mesh)


def test_criterion_13_sharded_layer_matches_the_reference():
    rng = np.random.default_rng(130)
    cases = [
        (1, Mesh(1, 1), 8, 8),
        (2, Mesh(2, 2), 8, 8),
        (4, Mesh(2, 2), 8, 16),
        (4, Mesh(4, 1), 8, 8),
        (4, Mesh(1, 4), 8, 8),
        (32, Mesh(4, 2), 8, 8),
    ]
    for E, mesh, M, H in cases:
        for _ in range(3):
            tokens = rng.normal(size=(16, M))
            gate = rng.normal(scale=0.5, size=(M, E))
            weights = [
                (rng.normal(scale=0.5, size=(M, H)), rng.normal(scale=0.5, size=(H, M)))
                for _ in range(E)
            ]
            w_in, w_out = (np.stack(ws) for ws in zip(*weights))
            # the layer as the model runs it: one stacked ExpertFFN
            reference, _ = moe_forward(T.Tensor(tokens), [ExpertFFN(T.Tensor(w_in), T.Tensor(w_out))], T.Tensor(gate))
            sharded = simulate_sharded(tokens, gate, w_in, w_out, mesh)
            assert np.max(np.abs(sharded - reference.data)) < 1e-10, (E, mesh)


def test_criterion_13_comm_volume_matches_monte_carlo():
    cfg = _plan_cfg(E=8, M=8, H=8, B=8, S=8)
    mesh = Mesh(4, 1)
    expected = comm_volume(plan(cfg, mesh), cfg)["dispatch_elements"]
    tokens = cfg.batch_size * cfg.seq_len
    per_column = tokens // mesh.x
    rng = np.random.default_rng(131)
    n_trials = 2000
    crossings = np.empty(n_trials)
    for t in range(n_trials):
        count = 0
        for token in range(tokens):
            token_col = token // per_column
            for _ in range(2):  # two dispatch sends per token
                expert = int(rng.integers(0, cfg.n_experts))
                if expert_home_column(cfg.n_experts, mesh.x, expert) != token_col:
                    count += cfg.d_model
        crossings[t] = count
    sigma = crossings.std(ddof=1) / math.sqrt(n_trials)
    assert abs(crossings.mean() - expected) < 3 * sigma + 1e-9


# --------------------------------------------------- 14: stability machinery


def _stability_cfg():
    return ModelConfig(
        n_layers=2,
        d_model=16,
        d_ff=32,
        n_heads=2,
        d_head=8,
        n_experts=2,
        vocab_size=16,
        seq_len=16,
    )


def test_criterion_14_nonfinite_gradient_skips_without_touching_weights():
    model = build(_stability_cfg(), seed=140)
    model.params()["embed"].data[0, 0] = np.nan
    checksum = params_checksum(model.params())
    state = AdafactorState()
    batch = np.random.default_rng(141).integers(0, 16, size=(4, 9))
    entry = train_step(model, batch, state, lr=0.01)
    assert entry.skipped
    assert state.step == 0 and state.accum == {}
    assert params_checksum(model.params()) == checksum


def test_criterion_14_checkpoint_and_rollback_round_trip_bit_exactly(tmp_path):
    config = _stability_cfg()
    model = build(config, seed=142)
    state = AdafactorState()
    rng = np.random.default_rng(143)
    for _ in range(3):
        train_step(model, rng.integers(0, 16, size=(4, 9)), state, lr=0.01)

    path = tmp_path / "snap.ckpt"
    save_checkpoint(path, config, model.params(), opt_arrays=state.arrays(),
                    meta={"step": 3, "data_seed": 9})
    snap = load_checkpoint(path)
    assert snap.meta == {"step": 3, "data_seed": 9}
    for name, arr in snap.params.items():
        assert np.array_equal(arr, model.params()[name].data), name
    for key, arr in snap.opt_arrays.items():
        assert np.array_equal(arr, state.arrays()[key]), key

    manager = CheckpointManager(tmp_path, interval=10)
    manager.save(model, state, data_seed=9)
    saved_checksum = params_checksum(model.params())
    saved_arrays = {k: v.copy() for k, v in state.arrays().items()}
    for _ in range(4):
        train_step(model, rng.integers(0, 16, size=(4, 9)), state, lr=0.05)
    assert params_checksum(model.params()) != saved_checksum

    data_seed = manager.rollback(model, state)
    assert data_seed == 9
    assert params_checksum(model.params()) == saved_checksum
    assert state.step == 3
    for key, arr in state.arrays().items():
        assert np.array_equal(arr, saved_arrays[key]), key


def test_criterion_14_divergence_trigger_fires_on_a_scripted_spike(tmp_path):
    manager = CheckpointManager(tmp_path, interval=10)
    model = build(_stability_cfg(), seed=144)
    manager.save(model, AdafactorState(), data_seed=0)
    for value in (2.0, 2.1, 1.9, 2.0):
        assert not manager.observe(value)
    assert manager.observe(6.5)  # above 3x the recent median
    assert manager.observe(float("nan"))

    # end to end: a poisoned batch mid-run rolls back and still finishes
    model = build(_stability_cfg(), seed=145)
    run_manager = CheckpointManager(tmp_path / "run", interval=5)
    poisoned = {"done": False}
    inner = uniform_batch_source(16, 4, 9)

    def source(seed):
        for i, batch in enumerate(inner(seed)):
            if i == 5 and not poisoned["done"]:
                poisoned["done"] = True
                model.params()["embed"].data[0, 0] = np.nan
            yield batch

    entries = train(model, source, steps=10, seed=146, warmup_steps=5, manager=run_manager)
    assert run_manager.rollbacks == 1
    assert sum(e.rollback for e in entries) == 1
    for param in model.params().values():
        assert np.isfinite(param.data).all()
