"""Corpus pipeline: quality classifier, Pareto filter, source mixing, packing.

A hashed-feature logistic regression scores documents against a curated
reference; a Pareto-tailed coin decides who survives (P(keep | s) =
(2 - s)^-alpha, so even low-quality pages keep a thin tail); surviving
sources are mixed by fixed weights, byte-tokenized, and packed into fixed
length rows with EOS separators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .moe import ConfigError
from .util import read_jsonl, substream, write_jsonl

__all__ = [
    "PAD",
    "BOS",
    "EOS",
    "VOCAB_SIZE",
    "require_byte_vocab",
    "SOURCES",
    "DEFAULT_MIXTURE",
    "Document",
    "MixtureSpec",
    "QualityClassifier",
    "hashed_features",
    "train_quality_classifier",
    "score",
    "keep_mask",
    "filter_corpus",
    "mixture_sampler",
    "refuse_unencodable",
    "tokenize",
    "detokenize",
    "pack_examples",
    "batches_from_documents",
    "load_documents",
    "save_documents",
]

PAD = 256
BOS = 257
EOS = 258
VOCAB_SIZE = 259


def require_byte_vocab(vocab_size: int) -> None:
    """A model fed byte text sees ids 0..EOS, so it needs ``vocab_size >= VOCAB_SIZE``."""
    if vocab_size < VOCAB_SIZE:
        raise ConfigError(f"byte text and PAD, BOS, EOS need vocab_size >= {VOCAB_SIZE}, got {vocab_size}")


SOURCES = ("filtered_web", "wikipedia", "conversations", "forums", "books", "news", "other")

DEFAULT_MIXTURE = {
    "filtered_web": 0.42,
    "wikipedia": 0.06,
    "conversations": 0.28,
    "forums": 0.02,
    "books": 0.20,
    "news": 0.02,
}


@dataclass
class Document:
    """One corpus record; ``quality_score`` appears once the doc is scored."""

    id: str
    source: str
    text: str
    quality_score: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ConfigError(f"document id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.text, str) or not self.text:
            raise ConfigError(f"document {self.id!r} text must be a non-empty string")
        refuse_unencodable(f"document {self.id!r}", self.id, self.text)
        if self.source not in SOURCES:
            raise ConfigError(f"unknown source {self.source!r}; expected one of {SOURCES}")
        score = self.quality_score
        not_number = isinstance(score, bool) or not isinstance(score, (int, float))
        if score is not None and (not_number or not 0 <= score <= 1):
            raise ConfigError(f"quality_score must be a number in [0, 1], got {score!r}")


def load_documents(path: str | Path) -> list[Document]:
    return [Document(**record) for record in read_jsonl(path)]


def save_documents(docs: Iterable[Document], path: str | Path) -> None:
    write_jsonl(path, ({k: v for k, v in d.__dict__.items() if v is not None} for d in docs))


@dataclass
class MixtureSpec:
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIXTURE))

    def __post_init__(self) -> None:
        for name, w in self.weights.items():
            if name not in SOURCES:
                raise ConfigError(f"unknown source {name!r} in mixture")
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0 <= w < math.inf:
                raise ConfigError(f"mixture weight for {name!r} must be finite and >= 0, got {w!r}")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mixture weights sum to {total}, expected 1")


# ------------------------------------------------------------ hashed features

_MASK64 = (1 << 64) - 1
_hash_cache: dict[str, tuple[int, int]] = {}


def _word_hashes(word: str) -> tuple[int, int]:
    cached = _hash_cache.get(word)
    if cached is None:
        bucket = sign = 0
        for ch in word:
            code = ord(ch)
            bucket = (bucket * 31 + code) & _MASK64
            sign = (sign * 131 + code) & _MASK64
        cached = (bucket, sign)
        if len(_hash_cache) < 1_000_000:
            _hash_cache[word] = cached
    return cached


def hashed_features(text: str, hash_dim: int) -> dict[int, float]:
    """Signed hashed bag of lowercased word unigrams, term-frequency scaled.

    One pass over the words, so cost is linear in document length; the
    frequency scaling makes scores invariant to repeating a document.
    """
    words = text.lower().split()
    if not words:
        return {}
    inv = 1.0 / len(words)
    feats: dict[int, float] = {}
    for w in words:
        bucket, sign = _word_hashes(w)
        delta = inv if sign & 1 == 0 else -inv
        key = bucket & (hash_dim - 1)
        feats[key] = feats.get(key, 0.0) + delta
    return feats


@dataclass
class QualityClassifier:
    """Logistic regression over hashed features; higher scores mean curated-like."""

    hash_dim: int
    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self) -> None:
        if self.hash_dim < 2**10 or self.hash_dim & (self.hash_dim - 1):
            raise ConfigError(f"hash_dim must be a power of two >= 1024, got {self.hash_dim}")
        if self.weights.shape != (self.hash_dim,):
            raise ConfigError(f"weight shape {self.weights.shape} != ({self.hash_dim},)")


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def score(classifier: QualityClassifier, doc: "Document | str") -> float:
    """Quality score in [0, 1]: sigmoid of the hashed-feature linear score."""
    text = doc.text if isinstance(doc, Document) else doc
    z = classifier.bias
    for key, value in hashed_features(text, classifier.hash_dim).items():
        z += classifier.weights[key] * value
    return _sigmoid(z)


def train_quality_classifier(
    curated: Sequence[Document],
    web: Sequence[Document],
    hash_dim: int = 2**20,
    epochs: int = 5,
    lr: float = 2.0,
    seed: int = 0,
) -> QualityClassifier:
    """SGD logistic regression labeling curated docs 1 and web docs 0.

    Deterministic for a given seed and input order: each epoch visits the
    pooled examples in one seeded shuffle.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if not lr > 0:
        raise ConfigError(f"lr must be > 0, got {lr}")
    curated = list(curated)
    web = list(web)
    if not curated or not web:
        raise ConfigError("both curated and web streams must be non-empty")
    clf = QualityClassifier(hash_dim, np.zeros(hash_dim))
    examples = [(doc, 1.0) for doc in curated] + [(doc, 0.0) for doc in web]
    rng = substream(seed, "quality-classifier")
    for _ in range(epochs):
        for i in rng.permutation(len(examples)):
            doc, label = examples[i]
            feats = hashed_features(doc.text, hash_dim)
            z = clf.bias + sum(clf.weights[k] * v for k, v in feats.items())
            err = _sigmoid(z) - label
            for k, v in feats.items():
                clf.weights[k] -= lr * err * v
            clf.bias -= lr * err
    return clf


# ------------------------------------------------------------- Pareto filter


def keep_mask(scores: np.ndarray, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Keep iff a Lomax(alpha) draw reaches 1 - score: P(keep | s) = (2 - s)^-alpha."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and not (scores.min() >= 0 and scores.max() <= 1):
        raise ConfigError("scores must lie in [0, 1]")
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    draws = (1.0 - rng.random(scores.shape)) ** (-1.0 / alpha) - 1.0
    return draws >= 1.0 - scores


def filter_corpus(
    docs: Iterable[Document],
    classifier: QualityClassifier,
    alpha: float = 9.0,
    seed: int = 0,
) -> tuple[list[Document], dict]:
    """Score and Pareto-filter a corpus; returns survivors plus a count report."""
    docs = list(docs)
    scores = [score(classifier, doc) for doc in docs]
    mask = keep_mask(np.array(scores), alpha, substream(seed, "pareto-filter"))
    kept: list[Document] = []
    report = {"kept": {}, "dropped": {}, "alpha": alpha}
    for doc, s, keep in zip(docs, scores, mask):
        bucket = "kept" if keep else "dropped"
        report[bucket][doc.source] = report[bucket].get(doc.source, 0) + 1
        if keep:
            kept.append(Document(doc.id, doc.source, doc.text, quality_score=s))
    return kept, report


# ------------------------------------------------------------ source mixing


def mixture_sampler(
    sources: Mapping[str, Sequence[Document]],
    spec: MixtureSpec,
    rng: np.random.Generator,
) -> Iterator[Document]:
    """Yield documents whose source is drawn i.i.d. from the mixture weights.

    Exhausted sources cycle from their beginning, so the stream is infinite.
    """
    names = [name for name, w in spec.weights.items() if w > 0]
    for name in names:
        if name not in sources or not sources[name]:
            raise ConfigError(f"mixture weight for {name!r} but no documents supplied")
    probs = np.array([spec.weights[n] for n in names])
    probs = probs / probs.sum()
    cycles = {name: itertools.cycle(sources[name]) for name in names}
    while True:
        # block draws amortize generator overhead across many emissions
        for idx in rng.choice(len(names), size=8192, p=probs):
            yield next(cycles[names[idx]])


# -------------------------------------------------------------- tokenization


def _utf8(text: str) -> bytes:
    """The byte rule: a text's token ids are its UTF-8 bytes, 0..255."""
    return text.encode("utf-8")


def refuse_unencodable(record: str, *texts: str) -> None:
    """Raise ``ConfigError`` naming ``record`` if UTF-8 cannot encode a text.

    Only a lone surrogate such as ``"\\ud800"`` fails, and valid JSON can hold one.
    """
    for text in texts:
        try:
            _utf8(text)
        except UnicodeEncodeError as exc:
            bad = text[exc.start : exc.end]
            raise ConfigError(
                f"{record} holds {bad!r} at index {exc.start}, which UTF-8 cannot encode"
            ) from None


def tokenize(text: str) -> list[int]:
    """UTF-8 bytes as ids 0..255; PAD, BOS and EOS sit just past them."""
    return list(_utf8(text))


def detokenize(ids: Iterable[int]) -> str:
    """Inverse of ``tokenize``; special ids are skipped."""
    return bytes(i for i in ids if i < PAD).decode("utf-8", errors="replace")


# ------------------------------------------------------------------ packing

_SEPARATOR = np.array([EOS], dtype=np.int64)


def pack_examples(
    token_streams: Iterable[Sequence[int]],
    seq_len: int,
    batch_size: int,
) -> list[np.ndarray]:
    """Pack token sequences into [batch_size, seq_len] int64 id arrays.

    Documents are laid end to end with an EOS after each one, the stream is
    chunked into rows, and the final short row (and final short batch) is
    PAD-filled.  Trailing rows that would hold only separators and padding
    are dropped.  Every content token appears exactly once.  A stream may be
    a list of ints or an integer array (``batches_from_documents`` passes
    uint8 arrays).  One PAD-filled [n_batches, batch_size, seq_len] array is
    allocated and filled by a single concatenate; the batches are its slices.
    """
    if seq_len < 2:
        raise ConfigError(f"seq_len must be >= 2, got {seq_len}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    parts = [part for stream in token_streams for part in (stream, _SEPARATOR)]
    if not parts:
        return []
    n_tokens = sum(len(part) for part in parts)
    n_rows = -(-n_tokens // seq_len)
    packed = np.full(-(-n_rows // batch_size) * batch_size * seq_len, PAD, dtype=np.int64)
    # "unsafe" only so an empty list, which numpy reads as float64, may join
    np.concatenate(parts, out=packed[:n_tokens], casting="unsafe")
    rows = packed.reshape(-1, seq_len)
    kept = n_rows
    while kept and (rows[kept - 1] >= PAD).all():
        kept -= 1  # only separators and padding remained
    rows[kept:] = PAD
    return list(packed.reshape(-1, batch_size, seq_len)[: -(-kept // batch_size)])


def batches_from_documents(docs: Sequence[Document], seq_len: int, batch_size: int):
    """Infinite seeded batch source over a fixed document set.

    Returns a callable suitable for the training loop: given a seed it yields
    packed batches forever, reshuffling document order each pass with a seed
    derived from the pass number.  Each document is encoded once, as a uint8
    array of its ``tokenize`` bytes; each pass is one ``pack_examples`` call,
    so the pass is a single int64 array and its batches are views into it.
    """
    if not docs:
        raise ConfigError("no documents to batch")
    encoded = [np.frombuffer(_utf8(d.text), dtype=np.uint8) for d in docs]

    def source(seed: int) -> Iterator[np.ndarray]:
        epoch = 0
        while True:
            rng = np.random.default_rng((seed, epoch))
            order = rng.permutation(len(encoded))
            yield from pack_examples([encoded[i] for i in order], seq_len, batch_size)
            epoch += 1

    return source
