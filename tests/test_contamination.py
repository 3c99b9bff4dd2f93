"""Overlap analysis vs a brute-force scan oracle; count monotonicity in n."""

import numpy as np
import pytest

from moelab.contamination import (
    BloomFilter,
    NgramIndex,
    build_ngram_index,
    is_dirty,
    ngrams,
    normalize_tokens,
    report,
    report_table,
)
from moelab.moe import ConfigError

WORDS = ["red", "blue", "green", "stone", "river", "cloud", "lamp", "door", "wheel", "paper"]


def _random_text(rng, n_words):
    return " ".join(WORDS[i] for i in rng.integers(0, len(WORDS), size=n_words))


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


def test_normalization_strips_case_and_punctuation():
    assert normalize_tokens("The Cat, sat!") == ["the", "cat", "sat"]
    assert normalize_tokens("") == []


def test_sliding_window_ngrams():
    assert list(ngrams(["a", "b", "c", "d"], 3)) == ["a b c", "b c d"]
    assert list(ngrams(["a", "b"], 3)) == []


def test_short_documents_contribute_nothing():
    index = build_ngram_index(["one two"], n=3)
    assert len(index) == 0


def test_index_contents_match_the_window_oracle():
    index = build_ngram_index(["a b c d"], n=3)
    assert len(index) == 2
    assert "a b c" in index
    assert "b c d" in index
    assert "a b d" not in index


def test_duplicate_documents_change_nothing():
    once = build_ngram_index(["red blue green stone"], n=2)
    twice = build_ngram_index(["red blue green stone"] * 2, n=2)
    assert len(once) == len(twice)


def test_no_cross_document_ngrams():
    index = build_ngram_index(["red blue", "green stone"], n=2)
    assert "red blue" in index
    assert "green stone" in index
    assert "blue green" not in index


def test_verbatim_example_is_dirty():
    corpus = ["the river runs past the old stone door every day"]
    index = build_ngram_index(corpus, n=4)
    assert is_dirty(corpus[0], index)


def test_disjoint_vocabulary_is_clean():
    index = build_ngram_index(["red blue green stone river"], n=2)
    assert not is_dirty("totally different words here", index)


def test_single_shared_span_is_dirty():
    corpus = ["alpha beta gamma delta epsilon zeta"]
    example = "unrelated start gamma delta epsilon zeta trailing words"
    index = build_ngram_index(corpus, n=4)
    assert is_dirty(example, index)
    assert _brute_force_dirty(example, corpus, 4)


def test_agreement_with_brute_force_on_random_fixtures():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        corpus = [_random_text(rng, int(rng.integers(3, 15))) for _ in range(4)]
        example = _random_text(rng, int(rng.integers(3, 15)))
        index = build_ngram_index(corpus, n=n)
        assert is_dirty(example, index) == _brute_force_dirty(example, corpus, n)


def test_dirty_count_never_grows_with_n():
    rng = np.random.default_rng(1)
    corpus = [_random_text(rng, 20) for _ in range(6)]
    examples = [_random_text(rng, 12) for _ in range(30)]
    counts = []
    for n in (2, 3, 4, 5, 6):
        index = build_ngram_index(corpus, n=n)
        counts.append(sum(is_dirty(e, index) for e in examples))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_report_arithmetic_and_rounding():
    index = build_ngram_index(["red blue green"], n=2)
    dirty = "red blue green"
    clean = "nothing matches this"
    out = report([dirty, dirty, dirty, clean], index)
    assert out == {"dirty_count": 3, "total_count": 4, "percent_clean": 25.0}
    assert report([clean, clean], index)["percent_clean"] == 100.0
    assert report([dirty], index)["percent_clean"] == 0.0
    assert report([dirty, clean, clean], index)["percent_clean"] == 66.67


def test_report_rejects_empty_dataset():
    with pytest.raises(ConfigError):
        report([], build_ngram_index([], n=2))


def test_report_table_shapes_rows():
    index = build_ngram_index(["red blue green"], n=2)
    rows = report_table({"fixture": ["red blue green", "other words here"]}, index)
    assert rows == [
        {"dataset": "fixture", "dirty_count": 1, "total_count": 2, "percent_clean": 50.0}
    ]


def test_bloom_mode_never_misses_a_real_collision():
    rng = np.random.default_rng(2)
    corpus = [_random_text(rng, 20) for _ in range(5)]
    exact = build_ngram_index(corpus, n=3)
    bloom = build_ngram_index(corpus, n=3, bloom_bits=1 << 16)
    dirty_examples = [c for c in corpus]
    for example in dirty_examples:
        assert is_dirty(example, exact)
        assert is_dirty(example, bloom)  # no false negatives
    with pytest.raises(ConfigError):
        len(bloom)


def test_bloom_filter_membership():
    bloom = BloomFilter(1 << 14)
    items = [f"gram number {i}" for i in range(200)]
    for item in items:
        bloom.add(item)
    assert all(item in bloom for item in items)
    misses = sum(f"absent {i}" in bloom for i in range(1000))
    assert misses < 50  # far below chance for this load factor


def test_index_validation():
    with pytest.raises(ConfigError):
        NgramIndex(1)
    with pytest.raises(ConfigError):
        BloomFilter(4)


def test_zero_bloom_bits_is_rejected_not_exact():
    with pytest.raises(ConfigError):
        build_ngram_index(["alpha beta gamma"], n=2, bloom_bits=0)
