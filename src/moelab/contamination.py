"""Train/eval overlap analysis: n-gram collision against the training corpus.

Documents are normalized (lowercased, punctuation stripped, whitespace split)
and every within-document n-gram goes into an exact membership set.  An
evaluation example is dirty as soon as one of its n-grams collides.  An
optional Bloom-filter mode swaps the exact set for a fixed-size bit array at
the cost of a small false-dirty rate; it can never miss a real collision.
"""

from __future__ import annotations

import hashlib
import string
from typing import Iterable, Iterator, Mapping

import numpy as np

from .moe import ConfigError

__all__ = [
    "normalize_tokens",
    "ngrams",
    "BloomFilter",
    "NgramIndex",
    "build_ngram_index",
    "is_dirty",
    "report",
    "report_table",
]

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_BLOOM_HASHES = 4


def normalize_tokens(text: str) -> list[str]:
    """Lowercased, punctuation-stripped, whitespace-split tokens."""
    return text.lower().translate(_PUNCT_TABLE).split()


def ngrams(tokens: list[str], n: int) -> Iterator[str]:
    for i in range(len(tokens) - n + 1):
        yield " ".join(tokens[i : i + n])


class BloomFilter:
    """Fixed-size membership filter: false positives possible, negatives not."""

    def __init__(self, n_bits: int):
        if n_bits < 8:
            raise ConfigError(f"bloom filter needs >= 8 bits, got {n_bits}")
        self.n_bits = n_bits
        self.bits = np.zeros(n_bits, dtype=bool)

    def _positions(self, item: str) -> list[int]:
        out = []
        for salt in range(_BLOOM_HASHES):
            digest = hashlib.sha256(f"{salt}:{item}".encode()).digest()
            out.append(int.from_bytes(digest[:8], "little") % self.n_bits)
        return out

    def add(self, item: str) -> None:
        self.bits[self._positions(item)] = True

    def __contains__(self, item: str) -> bool:
        return bool(self.bits[self._positions(item)].all())

    def __len__(self) -> int:
        raise ConfigError("a Bloom filter has no exact size")


class NgramIndex:
    """Membership index over normalized within-document n-grams."""

    def __init__(self, n: int, bloom_bits: int | None = None):
        if n < 2:
            raise ConfigError(f"n must be >= 2, got {n}")
        self.n = n
        self.store: set[str] | BloomFilter = set() if bloom_bits is None else BloomFilter(bloom_bits)

    def add_document(self, text: str) -> None:
        add = self.store.add
        for gram in ngrams(normalize_tokens(text), self.n):
            add(gram)

    def __contains__(self, gram: str) -> bool:
        return gram in self.store

    def __len__(self) -> int:
        return len(self.store)


def build_ngram_index(corpus: Iterable, n: int = 8, bloom_bits: int | None = None) -> NgramIndex:
    """Index every document's n-grams; cross-document windows never enter."""
    index = NgramIndex(n, bloom_bits=bloom_bits)
    for doc in corpus:
        index.add_document(getattr(doc, "text", doc))
    return index


def is_dirty(example_text: str, index: NgramIndex) -> bool:
    return any(gram in index for gram in ngrams(normalize_tokens(example_text), index.n))


def report(examples: Iterable[str], index: NgramIndex) -> dict:
    """Dirty/total counts plus percent clean rounded to two decimals."""
    texts = [getattr(e, "text", e) for e in examples]
    if not texts:
        raise ConfigError("cannot report on an empty dataset")
    dirty = sum(is_dirty(t, index) for t in texts)
    total = len(texts)
    return {
        "dirty_count": dirty,
        "total_count": total,
        "percent_clean": round(100.0 * (total - dirty) / total, 2),
    }


def report_table(datasets: Mapping[str, Iterable[str]], index: NgramIndex) -> list[dict]:
    """One report row per dataset, ready for CSV emission."""
    return [{"dataset": name, **report(examples, index)} for name, examples in datasets.items()]
