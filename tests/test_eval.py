"""Harness: prompt assembly, option scoring modes, decoding, metrics, averages."""

import itertools
import math

import numpy as np
import pytest

from moelab.data import EOS, tokenize
from moelab.evalharness import (
    TASK_REGISTRY,
    SequenceScorer,
    Task,
    aggregate,
    build_prompt,
    classify,
    evaluate_task,
    generate_beam,
    generative_metrics,
    load_task,
    normalize_answer,
    save_task,
    score_option,
    stub_task,
    write_stub_tasks,
)
from moelab.model import ModelConfig, build
from moelab.moe import ConfigError


def scoring_model(seed=0, vocab=259, seq_len=96):
    config = ModelConfig(
        n_layers=2,
        d_model=16,
        d_ff=32,
        n_heads=2,
        d_head=8,
        n_experts=1,
        vocab_size=vocab,
        seq_len=seq_len,
    )
    return build(config, seed=seed)


def uniform_scorer(vocab=259, seq_len=96):
    """All-zero weights give exactly uniform next-token distributions."""
    model = scoring_model(vocab=vocab, seq_len=seq_len)
    for p in model.params().values():
        p.data = np.zeros_like(p.data)
    return SequenceScorer(model)


class TableScorer:
    """Per-token logprobs looked up by token id; for arithmetic oracles."""

    def __init__(self, table, default=-1.0):
        self.table = table
        self.default = default

    def token_logprobs(self, ids):
        return np.array([self.table.get(t, self.default) for t in ids])


class EnumScorer:
    """Next-token distributions keyed on the generated prefix."""

    def __init__(self, transitions, vocab=3):
        self.transitions = {k: np.log(np.asarray(v, dtype=np.float64)) for k, v in transitions.items()}
        self.vocab = vocab

    def next_token_logprobs(self, ids):
        return self.transitions[tuple(ids)]


# ------------------------------------------------------------------ registry


def test_registry_matches_the_published_task_split():
    assert len(TASK_REGISTRY) == 29
    kinds = [spec.kind for spec in TASK_REGISTRY.values()]
    assert kinds.count("generative") == 8
    assert kinds.count("multiple_choice") == 21
    assert len({spec.category for spec in TASK_REGISTRY.values()}) == 7
    # the two raw-sum holdouts among choice tasks
    assert TASK_REGISTRY["copa"].normalization == "raw"
    assert TASK_REGISTRY["record"].normalization == "raw"
    assert TASK_REGISTRY["multirc"].metric == "f1"
    assert TASK_REGISTRY["squadv2"].metric == "f1"


# ------------------------------------------------------------------- prompts


def test_zero_shot_prompt_is_the_context():
    assert build_prompt(["demo"], "the context", shots=0) == "the context"


def test_one_shot_prompt_inserts_two_newlines():
    assert build_prompt(["Q: a\nA: b"], "Q: c\nA:", shots=1) == "Q: a\nA: b\n\nQ: c\nA:"


def test_two_shot_prompt_contains_both_demos():
    demos = ["first demo", "second demo"]
    prompt = build_prompt(demos, "ctx", shots=2, seed=5)
    assert prompt.endswith("ctx")
    assert prompt.count("\n\n") == 2
    for demo in demos:
        assert demo in prompt
    assert build_prompt(demos, "ctx", shots=2, seed=5) == prompt


def test_demo_order_depends_on_seed():
    demos = [f"demo {i}" for i in range(6)]
    prompts = {build_prompt(demos, "x", shots=3, seed=s) for s in range(8)}
    assert len(prompts) > 1


def test_too_many_shots_is_an_error():
    with pytest.raises(ConfigError):
        build_prompt(["only one"], "ctx", shots=2)


# ------------------------------------------------------------ option scoring


def test_normalized_and_raw_argmax_can_differ():
    scorer = TableScorer({10: -0.5, 11: -0.5, 12: -0.5, 20: -1.2})
    ctx = [1]
    a_norm = score_option(scorer, ctx, [10, 11, 12], "length_normalized")
    b_norm = score_option(scorer, ctx, [20], "length_normalized")
    a_raw = score_option(scorer, ctx, [10, 11, 12], "raw")
    b_raw = score_option(scorer, ctx, [20], "raw")
    assert a_norm == pytest.approx(-0.5) and b_norm == pytest.approx(-1.2)
    assert a_raw == pytest.approx(-1.5) and b_raw == pytest.approx(-1.2)
    assert a_norm > b_norm  # normalized picks the long option
    assert b_raw > a_raw  # raw picks the short one


def test_single_token_option_modes_agree():
    scorer = TableScorer({42: -0.7})
    args = (scorer, [1, 2], [42])
    assert score_option(*args, "raw") == score_option(*args, "length_normalized")


def test_uniform_model_scores_are_log_vocab():
    scorer = uniform_scorer(vocab=259)
    option = tokenize("abcd")
    raw = score_option(scorer, tokenize("xy"), option, "raw")
    norm = score_option(scorer, tokenize("xy"), option, "length_normalized")
    assert raw == pytest.approx(-4 * math.log(259), rel=1e-9)
    assert norm == pytest.approx(-math.log(259), rel=1e-9)


def test_raw_equals_count_times_normalized():
    model = scoring_model(seed=4)
    scorer = SequenceScorer(model)
    ctx, opt = tokenize("the weather "), tokenize("is mild")
    raw = score_option(scorer, ctx, opt, "raw")
    norm = score_option(scorer, ctx, opt, "length_normalized")
    assert raw == pytest.approx(len(opt) * norm, rel=1e-12)


def test_empty_option_is_rejected():
    with pytest.raises(ConfigError):
        score_option(TableScorer({}), [1], [])


def test_sequence_scorer_validates_length():
    scorer = SequenceScorer(scoring_model(seq_len=8))
    assert scorer.token_logprobs(list(range(8))).shape == (8,)
    # the feed [BOS] + ids[:-1] is as long as ids, so the forward's own limit applies
    with pytest.raises(ConfigError, match="sequence length 9 exceeds seq_len=8") as caught:
        scorer.token_logprobs(list(range(9)))
    assert caught.traceback[-1].name == "forward"
    with pytest.raises(ConfigError):
        scorer.token_logprobs([])
    # generation path slides its window instead of failing
    assert scorer.next_token_logprobs(list(np.zeros(20, dtype=int))).shape == (259,)


# ---------------------------------------------------------------- classify


def _choice_task(options_list, normalization="length_normalized"):
    examples = [
        {"context": "pick: ", "options": options, "answer_index": 0} for options in options_list
    ]
    return Task("fixture", "multiple_choice", examples, normalization=normalization)


def test_identical_options_tie_break_to_lowest_index():
    scorer = uniform_scorer()
    task = _choice_task([["same", "same"]])
    assert classify(scorer, task, task.examples[0]) == 0


def test_rigged_scorer_forces_the_favored_option():
    # option "b" = byte 98 carries probability ~1; "a" = 97 is penalized
    scorer = TableScorer({98: 0.0, 97: -5.0})
    task = _choice_task([["a", "b"]], normalization="raw")
    assert classify(scorer, task, task.examples[0]) == 1


def test_argmax_invariant_to_shared_option_prefix():
    scorer = SequenceScorer(scoring_model(seed=9))
    ctx = tokenize("ctx ")
    options = ["cold", "warm", "damp"]
    prefix = "it is "
    direct = [score_option(scorer, tokenize("ctx " + prefix), tokenize(o), "raw") for o in options]
    prefixed = [score_option(scorer, ctx, tokenize(prefix + o), "raw") for o in options]
    assert int(np.argmax(direct)) == int(np.argmax(prefixed))


# ---------------------------------------------------------------- decoding

# a two-step trap: greedy takes token 0 twice, but stopping after token 1
# scores better per token; token 2 is EOS
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
    return list(best[:-1]), best_score


def test_width_two_beats_greedy_on_the_trap():
    scorer = EnumScorer(_TRAP)
    greedy = generate_beam(scorer, [], beam_width=1, max_tokens=3, eos_id=2)
    wide = generate_beam(scorer, [], beam_width=2, max_tokens=3, eos_id=2)
    oracle, _ = _exhaustive_best(scorer, max_len=3)
    assert greedy == [0, 0]
    assert wide == [1]
    assert wide == oracle


def test_wider_beams_never_score_worse():
    scorer = EnumScorer(_TRAP)
    scores = []
    for width in (1, 2, 3):
        ids = generate_beam(scorer, [], beam_width=width, max_tokens=3, eos_id=2)
        scores.append(_normalized_score(scorer, tuple(ids) + (2,)))
    assert scores[0] <= scores[1] <= scores[2] + 1e-12


def test_unique_best_continuation_wins_at_any_width():
    peaked = {
        (): [0.98, 0.01, 0.01],
        (0,): [0.01, 0.01, 0.98],
        (0, 0): [0.001, 0.001, 0.998],
        (1,): [0.01, 0.01, 0.98],
    }
    scorer = EnumScorer(peaked)
    for width in (1, 2, 3, 4):
        assert generate_beam(scorer, [], beam_width=width, max_tokens=2, eos_id=2) == [0]


def test_beam_on_a_real_model_emits_valid_ids():
    scorer = SequenceScorer(scoring_model(seed=2))
    ids = generate_beam(scorer, tokenize("ab"), beam_width=4, max_tokens=5)
    assert len(ids) <= 5
    assert all(0 <= t < 259 for t in ids)
    with pytest.raises(ConfigError):
        generate_beam(scorer, [], beam_width=0)


# ----------------------------------------------------------------- metrics


def test_exact_match_and_f1_on_identical_strings():
    assert generative_metrics("same words", ["same words"]) == {"em": 1.0, "f1": 1.0}


def test_articles_and_punctuation_are_stripped():
    assert normalize_answer("The Cat, sat!") == "cat sat"
    metrics = generative_metrics("the cat sat", ["cat sat"])
    assert metrics == {"em": 1.0, "f1": 1.0}


def test_disjoint_answers_score_zero():
    assert generative_metrics("alpha beta", ["gamma delta"]) == {"em": 0.0, "f1": 0.0}


def test_partial_overlap_f1_value():
    metrics = generative_metrics("x y z", ["y z w"])
    assert metrics["em"] == 0.0
    assert metrics["f1"] == pytest.approx(2 / 3)
    # "a" is an article: it vanishes, leaving perfect precision on "b c"
    assert generative_metrics("a b c", ["b c d"])["f1"] == pytest.approx(0.8)


def test_best_reference_wins():
    metrics = generative_metrics("blue sky", ["green grass", "blue sky"])
    assert metrics == {"em": 1.0, "f1": 1.0}


def test_metrics_require_a_reference():
    with pytest.raises(ConfigError):
        generative_metrics("text", [])


# ------------------------------------------------------------- aggregation


def test_single_task_average_is_itself():
    out = aggregate([{"task": "fixture", "kind": "multiple_choice", "score": 50.0}])
    assert out["avg_nlu"] == 50.0
    assert out["avg_nlg"] is None
    assert out["categories"] == {"other": 50.0}


def test_two_task_macro_average():
    out = aggregate(
        [
            {"task": "a", "kind": "generative", "score": 40.0},
            {"task": "b", "kind": "generative", "score": 60.0},
        ]
    )
    assert out["avg_nlg"] == 50.0


def test_categories_follow_the_registry():
    out = aggregate(
        [
            {"task": "boolq", "kind": "multiple_choice", "score": 80.0},
            {"task": "rte", "kind": "multiple_choice", "score": 60.0},
            {"task": "triviaqa", "kind": "generative", "score": 10.0},
            {"task": "hellaswag", "kind": "multiple_choice", "score": 30.0},
        ]
    )
    assert out["categories"]["superglue"] == 70.0
    assert out["categories"]["open_domain_qa"] == 10.0
    assert out["categories"]["cloze_completion"] == 30.0
    assert out["avg_nlu"] == pytest.approx((80 + 60 + 30) / 3)
    assert out["avg_nlg"] == 10.0


def test_aggregate_rejects_empty_results():
    with pytest.raises(ConfigError):
        aggregate([])


# -------------------------------------------------------------- task files


def test_stub_tasks_cover_the_registry(tmp_path):
    paths = write_stub_tasks(tmp_path)
    assert len(paths) == 29
    task = load_task(tmp_path / "copa.jsonl")
    assert task.normalization == "raw"
    assert len(task.examples) == 3
    assert len(task.train_examples) == 3


def test_task_round_trip(tmp_path):
    task = stub_task("squadv2", shots=1)
    path = tmp_path / "t.jsonl"
    save_task(task, path)
    back = load_task(path)
    assert back.name == task.name
    assert back.kind == task.kind
    assert back.metric == task.metric
    assert back.shots == 1
    assert back.examples == task.examples
    assert back.train_examples == task.train_examples


def test_load_task_requires_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "example", "context": "x"}\n')
    with pytest.raises(ConfigError):
        load_task(path)


def test_task_validation():
    with pytest.raises(ConfigError):
        Task("t", "multiple_choice", [{"context": "c", "options": ["only"], "answer_index": 0}])
    with pytest.raises(ConfigError):
        Task("t", "generative", [{"context": "c", "references": []}])
    with pytest.raises(ConfigError):
        stub_task("not_a_task")
    with pytest.raises(ConfigError, match="task t has no examples"):  # a demonstration pool alone
        Task("t", "generative", examples=[], train_examples=[{"context": "c", "references": ["r"]}])
    with pytest.raises(ConfigError, match="task t asks for 2 shots but has 1 demonstrations"):
        Task("t", "generative", [{"context": "c", "references": ["r"]}], [{"context": "d", "references": ["s"]}], shots=2)


# ------------------------------------------------------------ end to end


def test_evaluate_choice_task_end_to_end():
    scorer = SequenceScorer(scoring_model(seed=6))
    task = stub_task("boolq", shots=1)
    out = evaluate_task(scorer, task, seed=3)
    assert out["task"] == "boolq"
    assert out["shots"] == 1
    assert out["n_examples"] == 3
    assert 0.0 <= out["score"] <= 100.0


def test_evaluate_generative_task_end_to_end():
    scorer = SequenceScorer(scoring_model(seed=6))
    task = stub_task("webqs")
    out = evaluate_task(scorer, task, seed=3, max_tokens=4)
    assert out["kind"] == "generative"
    assert out["metric"] == "accuracy_em"
    assert 0.0 <= out["score"] <= 100.0


def test_scorer_needs_the_byte_vocabulary():
    with pytest.raises(ConfigError):
        SequenceScorer(scoring_model(vocab=200))
