"""Synthetic corpora and token sources shared across test modules."""

import numpy as np

from moelab.data import Document

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def word_bank(rng, n_words=100, min_len=3, max_len=8, prefix=""):
    """Distinct random lowercase words, optionally sharing a marker prefix."""
    words = set()
    while len(words) < n_words:
        k = int(rng.integers(min_len, max_len + 1))
        words.add(prefix + "".join(_LETTERS[i] for i in rng.integers(0, 26, size=k)))
    return sorted(words)


def docs_from_bank(rng, bank, source, n_docs, words_per_doc=30, id_prefix="doc"):
    docs = []
    for i in range(n_docs):
        words = [bank[j] for j in rng.integers(0, len(bank), size=words_per_doc)]
        docs.append(Document(f"{id_prefix}-{i}", source, " ".join(words)))
    return docs


def mixed_docs(rng, main_bank, shared_bank, source, n_docs, words_per_doc=30, share=0.2, id_prefix="doc"):
    """Docs drawing mostly from main_bank with a fraction from shared_bank."""
    docs = []
    for i in range(n_docs):
        words = []
        for _ in range(words_per_doc):
            bank = shared_bank if rng.random() < share else main_bank
            words.append(bank[int(rng.integers(0, len(bank)))])
        docs.append(Document(f"{id_prefix}-{i}", source, " ".join(words)))
    return docs


def markov_transitions(rng, vocab, branching=4, concentrate=0.85):
    """Order-1 transition matrix where each state favors a few successors."""
    trans = np.full((vocab, vocab), (1.0 - concentrate) / vocab)
    for s in range(vocab):
        heirs = rng.choice(vocab, size=branching, replace=False)
        trans[s, heirs] += concentrate / branching
    return trans / trans.sum(axis=1, keepdims=True)


def markov_batch_source(trans, batch_size, seq_len):
    """Infinite seeded [B, S] batches, each row one walk of the Markov chain.

    Each row draws its start state, then ``seq_len`` uniforms.  A step inverts
    its state's cdf row with one uniform, as ``rng.choice(vocab, p=row)``
    does: the count of cdf entries <= u is ``searchsorted(u, side="right")``.
    The B rows take each step together.
    """
    vocab = trans.shape[0]
    cdf = trans.cumsum(axis=1)
    cdf /= cdf[:, -1:]

    def source(seed):
        rng = np.random.default_rng(seed)
        while True:
            state = np.empty(batch_size, dtype=np.int64)
            uniforms = np.empty((batch_size, seq_len))
            for row in range(batch_size):
                state[row] = rng.integers(0, vocab)
                uniforms[row] = rng.random(seq_len)
            batch = np.empty((batch_size, seq_len), dtype=np.int64)
            for i in range(seq_len):
                state = (cdf[state] <= uniforms[:, i, None]).sum(axis=1)
                batch[:, i] = state
            yield batch

    return source


def uniform_batch_source(vocab, batch_size, seq_len):
    """Infinite seeded [B, S] batches of uniform random token ids."""

    def source(seed):
        rng = np.random.default_rng(seed)
        while True:
            yield rng.integers(0, vocab, size=(batch_size, seq_len))

    return source


def clean_docs(rng, n_docs, words_per_doc=40, bank_size=50, source="books", id_prefix="clean"):
    """Low-entropy word-salad documents from a small shared vocabulary."""
    bank = word_bank(rng, bank_size, min_len=3, max_len=5)
    # Zipf-ish draw keeps the byte statistics highly predictable
    ranks = np.arange(1, bank_size + 1, dtype=np.float64)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    docs = []
    for i in range(n_docs):
        words = [bank[int(j)] for j in rng.choice(bank_size, size=words_per_doc, p=probs)]
        docs.append(Document(f"{id_prefix}-{i}", source, " ".join(words)))
    return docs


def noise_docs(rng, n_docs, chars_per_doc=200, source="filtered_web", id_prefix="noise"):
    """High-entropy documents of uniform random printable characters."""
    alphabet = "".join(chr(c) for c in range(33, 127))
    docs = []
    for i in range(n_docs):
        text = "".join(alphabet[int(j)] for j in rng.integers(0, len(alphabet), size=chars_per_doc))
        docs.append(Document(f"{id_prefix}-{i}", source, text))
    return docs
