"""Pipeline: hashing classifier, Pareto filter rates, mixing, packing."""

import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from _synth import docs_from_bank, markov_batch_source, markov_transitions, mixed_docs, word_bank
from moelab.data import (
    BOS,
    DEFAULT_MIXTURE,
    EOS,
    PAD,
    VOCAB_SIZE,
    Document,
    MixtureSpec,
    QualityClassifier,
    batches_from_documents,
    detokenize,
    filter_corpus,
    hashed_features,
    keep_mask,
    load_documents,
    mixture_sampler,
    pack_examples,
    save_documents,
    score,
    tokenize,
    train_quality_classifier,
)
from moelab.moe import ConfigError
from moelab.util import substream

HASH_DIM = 2**12  # small but valid; keeps toy training dense enough


# -------------------------------------------------------------- tokenizer


def test_specials_sit_just_past_the_byte_range():
    assert (PAD, BOS, EOS) == (256, 257, 258)
    assert VOCAB_SIZE == 259


def test_tokenize_empty_and_plain_bytes():
    assert tokenize("") == []
    assert detokenize([]) == ""
    assert tokenize("ab") == [97, 98]


def test_round_trip_on_multilingual_text():
    sample = "English text. Grüße aus München! Привет мир. 你好世界 こんにちは 🚀🌍 " * 120
    assert len(sample.encode("utf-8")) > 10_000
    assert detokenize(tokenize(sample)) == sample


def test_decode_skips_special_ids():
    ids = [BOS] + tokenize("hi") + [EOS, PAD, PAD]
    assert detokenize(ids) == "hi"


# -------------------------------------------------------------- documents


def test_document_validation():
    with pytest.raises(ConfigError):
        Document("d", "books", "")
    with pytest.raises(ConfigError):
        Document("d", "blogs", "text")
    with pytest.raises(ConfigError):
        Document("d", "books", "text", quality_score=1.5)
    with pytest.raises(ConfigError, match="document 'd'"):
        Document("d", "books", "lone \ud800 surrogate")


def test_documents_round_trip_through_jsonl(tmp_path):
    docs = [
        Document("a", "books", "one two", quality_score=0.5),
        Document("b", "news", "three"),
    ]
    path = tmp_path / "docs.jsonl"
    save_documents(docs, path)
    back = load_documents(path)
    assert [d.__dict__ for d in back] == [d.__dict__ for d in docs]


def test_mixture_spec_validation():
    MixtureSpec()  # defaults are a valid distribution
    with pytest.raises(ConfigError):
        MixtureSpec({"books": 0.7, "news": 0.2})
    with pytest.raises(ConfigError):
        MixtureSpec({"books": -0.1, "news": 1.1})
    with pytest.raises(ConfigError):
        MixtureSpec({"blogs": 1.0})


# -------------------------------------------------------------- classifier


def test_zero_classifier_scores_half():
    clf = QualityClassifier(HASH_DIM, np.zeros(HASH_DIM))
    assert score(clf, "any words at all") == pytest.approx(0.5)


def test_features_ignore_word_order_and_repetition():
    a = hashed_features("alpha beta gamma", HASH_DIM)
    b = hashed_features("gamma alpha beta", HASH_DIM)
    assert a == b
    doubled = hashed_features("alpha beta gamma alpha beta gamma", HASH_DIM)
    for key, value in a.items():
        assert doubled[key] == pytest.approx(value)


def test_separable_corpora_reach_perfect_training_accuracy():
    rng = np.random.default_rng(0)
    curated_bank = word_bank(rng, 60, prefix="cur")
    web_bank = word_bank(rng, 60, prefix="web")
    curated = docs_from_bank(rng, curated_bank, "books", 40, id_prefix="c")
    web = docs_from_bank(rng, web_bank, "filtered_web", 40, id_prefix="w")
    clf = train_quality_classifier(curated, web, HASH_DIM, epochs=10, seed=1)
    assert all(score(clf, d) > 0.5 for d in curated)
    assert all(score(clf, d) < 0.5 for d in web)
    probe = Document("p", "books", " ".join(curated_bank[:20]))
    assert score(clf, probe) > 0.9


def test_identical_streams_score_near_half():
    rng = np.random.default_rng(1)
    bank = word_bank(rng, 80)
    docs = docs_from_bank(rng, bank, "books", 30)
    clf = train_quality_classifier(docs, list(docs), HASH_DIM, epochs=2, seed=0)
    held_out = docs_from_bank(rng, bank, "books", 10, id_prefix="h")
    for doc in held_out:
        assert abs(score(clf, doc) - 0.5) < 0.1


def _auc(pos_scores, neg_scores):
    # rank-sum AUC: probability a positive outranks a negative
    wins = ties = 0
    for p in pos_scores:
        for n in neg_scores:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos_scores) * len(neg_scores))


def test_overlapping_corpora_give_high_heldout_auc():
    rng = np.random.default_rng(2)
    curated_bank = word_bank(rng, 60, prefix="cur")
    web_bank = word_bank(rng, 60, prefix="web")
    shared = word_bank(rng, 40, prefix="sh")
    curated = mixed_docs(rng, curated_bank, shared, "books", 100, id_prefix="c")
    web = mixed_docs(rng, web_bank, shared, "filtered_web", 100, id_prefix="w")
    clf = train_quality_classifier(curated[:70], web[:70], HASH_DIM, epochs=3, seed=3)
    pos = [score(clf, d) for d in curated[70:]]
    neg = [score(clf, d) for d in web[70:]]
    assert _auc(pos, neg) > 0.9


def test_classifier_training_is_deterministic():
    rng = np.random.default_rng(3)
    curated = docs_from_bank(rng, word_bank(rng, 30, prefix="c"), "books", 15)
    web = docs_from_bank(rng, word_bank(rng, 30, prefix="w"), "news", 15)
    a = train_quality_classifier(curated, web, HASH_DIM, seed=7)
    b = train_quality_classifier(curated, web, HASH_DIM, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_empty_stream_is_rejected():
    doc = Document("d", "books", "text")
    with pytest.raises(ConfigError):
        train_quality_classifier([], [doc], HASH_DIM)
    with pytest.raises(ConfigError):
        train_quality_classifier([doc], [], HASH_DIM)


def test_hash_dim_must_be_power_of_two():
    with pytest.raises(ConfigError):
        QualityClassifier(1000, np.zeros(1000))
    with pytest.raises(ConfigError):
        QualityClassifier(512, np.zeros(512))


def test_scoring_a_megabyte_document_is_fast():
    text = "lorem ipsum dolor sit amet " * 40_000  # ~1 MB
    clf = QualityClassifier(HASH_DIM, np.zeros(HASH_DIM))
    start = time.perf_counter()
    score(clf, text)
    assert time.perf_counter() - start < 5.0


# ------------------------------------------------------------ Pareto filter


def test_perfect_score_is_always_kept():
    rng = np.random.default_rng(0)
    assert keep_mask(np.ones(100_000), alpha=9.0, rng=rng).all()


def test_keep_rates_match_closed_form():
    rng = np.random.default_rng(1)
    n = 1_000_000
    for s in (0.0, 0.5):
        expected = (2.0 - s) ** -9.0
        rate = keep_mask(np.full(n, s), alpha=9.0, rng=rng).mean()
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) < 3 * sigma, (s, rate, expected)


def test_scalar_keep_agrees_with_vector_rate():
    rng = np.random.default_rng(2)
    n = 30_000
    rate = sum(bool(keep_mask(np.array([0.5]), 9.0, rng)[0]) for _ in range(n)) / n
    expected = 1.5**-9.0
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert abs(rate - expected) < 4 * sigma


def test_keep_rate_is_monotone_in_score():
    rng = np.random.default_rng(3)
    n = 1_000_000
    rates = [keep_mask(np.full(n, s), 9.0, rng).mean() for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_pareto_validation():
    with pytest.raises(ConfigError):
        keep_mask(np.array([1.2]), 9.0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        keep_mask(np.array([0.5]), 0.0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        keep_mask(np.array([0.5, -0.1]), 9.0, np.random.default_rng(0))


def test_filter_corpus_counts_and_scores():
    rng = np.random.default_rng(4)
    curated = docs_from_bank(rng, word_bank(rng, 30, prefix="c"), "books", 20)
    web = docs_from_bank(rng, word_bank(rng, 30, prefix="w"), "filtered_web", 20)
    clf = train_quality_classifier(curated, web, HASH_DIM, seed=0)
    kept, report = filter_corpus(curated + web, clf, alpha=2.0, seed=5)
    total = sum(report["kept"].values()) + sum(report["dropped"].values())
    assert total == 40
    assert len(kept) == sum(report["kept"].values())
    assert all(d.quality_score is not None for d in kept)
    # curated docs score higher, so more of them should survive
    assert report["kept"].get("books", 0) >= report["kept"].get("filtered_web", 0)


# ------------------------------------------------------------ source mixing


def _doc(source, i):
    return Document(f"{source}-{i}", source, f"text {i}")


def test_single_source_mixture():
    docs = {"books": [_doc("books", i) for i in range(3)]}
    spec = MixtureSpec({"books": 1.0})
    stream = mixture_sampler(docs, spec, np.random.default_rng(0))
    drawn = list(itertools.islice(stream, 10))
    assert all(d.source == "books" for d in drawn)
    # exhausted sources cycle in order
    assert [d.id for d in drawn[:6]] == ["books-0", "books-1", "books-2"] * 2


def test_default_mixture_frequencies():
    sources = {name: [_doc(name, i) for i in range(5)] for name in DEFAULT_MIXTURE}
    stream = mixture_sampler(sources, MixtureSpec(), np.random.default_rng(1))
    n = 1_000_000
    counts: dict[str, int] = {}
    for doc in itertools.islice(stream, n):
        counts[doc.source] = counts.get(doc.source, 0) + 1
    for name, weight in DEFAULT_MIXTURE.items():
        assert abs(counts.get(name, 0) / n - weight) < 0.005, name


def test_even_mixture_passes_chi_square():
    sources = {name: [_doc(name, 0)] for name in ("books", "news")}
    spec = MixtureSpec({"books": 0.5, "news": 0.5})
    stream = mixture_sampler(sources, spec, np.random.default_rng(2))
    n = 100_000
    books = sum(d.source == "books" for d in itertools.islice(stream, n))
    result = stats.chisquare([books, n - books])
    assert result.pvalue > 0.001


def test_missing_source_is_a_config_error():
    with pytest.raises(ConfigError):
        next(mixture_sampler({}, MixtureSpec({"books": 1.0}), np.random.default_rng(0)))


# ------------------------------------------------------------------ packing


def test_exact_length_doc_packs_to_one_row():
    batches = pack_examples([[1, 2, 3, 4, 5]], seq_len=5, batch_size=1)
    assert len(batches) == 1
    assert batches[0].tolist() == [[1, 2, 3, 4, 5]]


def test_hand_packed_rows():
    batches = pack_examples([[7, 7, 7], [9, 9, 9, 9]], seq_len=5, batch_size=2)
    assert len(batches) == 1
    assert batches[0].tolist() == [
        [7, 7, 7, EOS, 9],
        [9, 9, 9, EOS, PAD],
    ]


def test_partial_batch_pads_with_pad_rows():
    batches = pack_examples([[1] * 11], seq_len=4, batch_size=2)
    assert [b.shape for b in batches] == [(2, 4), (2, 4)]
    assert batches[1].tolist() == [[1, 1, 1, EOS], [PAD, PAD, PAD, PAD]]


def test_content_tokens_are_conserved():
    rng = np.random.default_rng(5)
    streams = [rng.integers(0, 256, size=rng.integers(1, 40)).tolist() for _ in range(17)]
    batches = pack_examples(streams, seq_len=7, batch_size=3)
    packed = np.concatenate([b.reshape(-1) for b in batches])
    content = packed[packed < 256]
    expected = np.concatenate([np.array(s) for s in streams])
    assert np.array_equal(np.sort(content), np.sort(expected))
    assert (packed == EOS).sum() == len(streams)


def _former_pack_examples(token_streams, seq_len, batch_size):
    """The per-token packer that ``pack_examples`` replaced, kept as its reference."""
    flat = []
    for stream in token_streams:
        flat.extend(int(t) for t in stream)
        flat.append(EOS)
    rows = []
    for start in range(0, len(flat), seq_len):
        chunk = flat[start : start + seq_len]
        chunk.extend([PAD] * (seq_len - len(chunk)))
        rows.append(chunk)
    while rows and all(t >= 256 for t in rows[-1]):
        rows.pop()
    batches = []
    for start in range(0, len(rows), batch_size):
        group = rows[start : start + batch_size]
        while len(group) < batch_size:
            group.append([PAD] * seq_len)
        batches.append(np.array(group, dtype=np.int64))
    return batches


_streams = st.lists(
    st.one_of(
        st.lists(st.integers(0, VOCAB_SIZE - 1), max_size=12),
        hnp.arrays(np.uint8, st.integers(0, 12)),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(streams=_streams, seq_len=st.integers(2, 9), batch_size=st.integers(1, 4))
@example(streams=[], seq_len=4, batch_size=2)  # empty input
@example(streams=[np.array([1, 2, 3], np.uint8)], seq_len=4, batch_size=1)  # ends on a row boundary
@example(streams=[[1, 2, 3, 4]], seq_len=4, batch_size=1)  # trailing row holds only the separator
@example(streams=[[], [5], []], seq_len=2, batch_size=1)  # separators fill the last rows
@example(streams=[np.ones(11, np.uint8)], seq_len=4, batch_size=3)  # last batch needs a PAD row
def test_pack_examples_matches_the_former_packer(streams, seq_len, batch_size):
    new = pack_examples(streams, seq_len, batch_size)
    old = _former_pack_examples(streams, seq_len, batch_size)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape == (batch_size, seq_len)
        assert a.tobytes() == b.tobytes()


def test_packing_peaks_below_twelve_bytes_per_token():
    rng = np.random.default_rng(8)
    streams = [rng.integers(0, 256, size=n, dtype=np.uint8) for n in rng.integers(50, 950, size=1000)]
    n_tokens = sum(len(s) for s in streams)
    assert 450_000 < n_tokens < 550_000
    tracemalloc.start()
    try:
        batches = pack_examples(streams, 64, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(b.size for b in batches) >= n_tokens + len(streams)
    assert peak / n_tokens < 12, peak / n_tokens


def test_pack_rejects_tiny_seq_len():
    with pytest.raises(ConfigError):
        pack_examples([[1, 2]], seq_len=1, batch_size=1)


def test_batch_source_is_deterministic_per_seed():
    rng = np.random.default_rng(6)
    docs = docs_from_bank(rng, word_bank(rng, 20), "books", 8)
    source = batches_from_documents(docs, seq_len=16, batch_size=2)
    a = list(itertools.islice(source(11), 5))
    b = list(itertools.islice(source(11), 5))
    c = list(itertools.islice(source(12), 5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    assert all(x.shape == (2, 16) for x in a)


def test_batch_source_matches_its_pinned_digest():
    # the first two epochs, byte for byte, as the per-token packer produced them
    texts = [f"doc{i} " * (1 + i % 4) + "Grüße 你好 🚀"[: i % 7] for i in range(23)]
    docs = [Document(f"p{i}", "books", t) for i, t in enumerate(texts)]
    per_epoch = len(pack_examples([tokenize(d.text) for d in docs], 16, 4))
    batches = list(itertools.islice(batches_from_documents(docs, 16, 4)(7), 2 * per_epoch))
    assert per_epoch == 7
    assert all(b.dtype == np.int64 and b.shape == (4, 16) for b in batches)
    digest = hashlib.sha256(b"".join(b.tobytes() for b in batches)).hexdigest()
    assert digest == "7772e8e5b301c1be02f7cf5cd3902c0a715fef5dd006d339abc3937e2758d83b"


def test_markov_batch_source_matches_its_pinned_digest():
    # the first 2000 batches, byte for byte, as the former per-token sampler drew them
    source = markov_batch_source(markov_transitions(substream(0, "chain"), 64), 16, 16)(7)
    batches = list(itertools.islice(source, 2000))
    assert all(b.dtype == np.int64 and b.shape == (16, 16) for b in batches)
    digest = hashlib.sha256(b"".join(b.tobytes() for b in batches)).hexdigest()
    assert digest == "fd42a93fb17fdfc7c4887c7574f7e04c6d2991401a48cf1fbad787826c87a3a5"
