"""corpus-audit: quality filtering, then n-gram indexing and contamination audit.

One round runs ``data.train_quality_classifier`` and ``data.filter_corpus`` as
``moelab data-filter`` does, then ``contamination.build_ngram_index`` with
n = 8 once as an exact set and once as a Bloom filter, then audits every task
text with ``contamination.report`` against both indexes, one text per call.
The corpus mixes low-entropy documents over a small Zipf vocabulary with
high-entropy noise documents; a known share of the task texts carries a span
copied from the corpus.  Rounds repeat on the same inputs until time is up.

Why: pure-Python hashing and set work that never touches tensor, model or
moe.  Index building (writes) runs beside audit probes (reads), and the Bloom
path calls sha256 on every insert and probe.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from common import GOLDENS, CheckFailed
from tracer import median

from moelab import contamination, data
from moelab.util import substream_seed

NAME = "corpus-audit"
TAG = "audit"
N = 8
BLOOM_BITS = 2**20
HASH_DIM = 2**20
N_TRAIN_DOCS = 150  # per class for the quality classifier
N_CORPUS_DOCS = 800
LOW_ENTROPY_SHARE = 0.55
N_EXAMPLES = 300
PLANTED_SHARE = 0.25
PLANTED_WORDS = 12
VOCAB_WORDS = 300
BRUTE_FORCE_SAMPLE = 40
LOW_SOURCES = ("wikipedia", "books", "news")
NOISE_SOURCES = ("filtered_web", "forums", "conversations")

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_NOISE = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))
_now = time.perf_counter


@dataclass
class Inputs:
    seed: int
    data_seed: int
    curated: list
    web: list
    corpus: list
    examples: list[str]
    planted: list[bool]
    grams: int
    repeat_word_share: float


class _Text:
    """Seeded generators for the two kinds of document."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.vocab = ["".join(rng.choice(_LETTERS, size=k)) for k in rng.integers(2, 9, size=VOCAB_WORDS)]
        weights = 1.0 / np.arange(1, VOCAB_WORDS + 1) ** 1.1
        self.weights = weights / weights.sum()

    def low(self, n_words: int) -> list[str]:
        """Zipf words over the small vocabulary, as sentences with punctuation."""
        words = [self.vocab[i] for i in self.rng.choice(VOCAB_WORDS, size=n_words, p=self.weights)]
        for i in range(0, n_words, 9):
            words[i] = words[i].capitalize()
            words[min(i + 8, n_words - 1)] += "."
        return words

    def noise(self, n_words: int) -> list[str]:
        return ["".join(self.rng.choice(_NOISE, size=k)) for k in self.rng.integers(3, 11, size=n_words)]

    def length(self) -> int:
        return int(self.rng.integers(40, 90))


def prepare(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 4])
    text = _Text(rng)
    curated = [data.Document(f"cur-{i}", "books", " ".join(text.low(text.length()))) for i in range(N_TRAIN_DOCS)]
    web = [data.Document(f"web-{i}", "filtered_web", " ".join(text.noise(text.length()))) for i in range(N_TRAIN_DOCS)]
    corpus = []
    for i in range(N_CORPUS_DOCS):
        if rng.random() < LOW_ENTROPY_SHARE:
            source, words = LOW_SOURCES[i % 3], text.low(text.length())
        else:
            source, words = NOISE_SOURCES[i % 3], text.noise(text.length())
        corpus.append(data.Document(f"doc-{i}", source, " ".join(words)))
    normalized = [contamination.normalize_tokens(d.text) for d in corpus]
    examples, planted = [], []
    for _ in range(N_EXAMPLES):
        words = text.low(int(rng.integers(20, 40)))
        plant = rng.random() < PLANTED_SHARE
        if plant:
            source = normalized[int(rng.integers(len(corpus)))]
            at = int(rng.integers(len(source) - PLANTED_WORDS + 1))
            cut = int(rng.integers(len(words)))
            words = words[:cut] + source[at : at + PLANTED_WORDS] + words[cut:]
        examples.append(" ".join(words))
        planted.append(bool(plant))
    seen: set[str] = set()
    repeats = total = 0
    for tokens in normalized:
        for token in tokens:
            repeats += token in seen
            seen.add(token)
        total += len(tokens)
    return Inputs(
        seed=seed,
        data_seed=substream_seed(seed, "data"),
        curated=curated,
        web=web,
        corpus=corpus,
        examples=examples,
        planted=planted,
        grams=sum(max(len(t) - N + 1, 0) for t in normalized),
        repeat_word_share=repeats / total,
    )


def cold_start() -> None:
    """Empty the program's word-hash cache, as a fresh ``moelab data-filter`` has it.

    Rounds repeat on the same corpus; without this every round after the
    first would find the hashes of its unique noise words already cached.
    """
    cache = getattr(data, "_hash_cache", None)
    if cache is not None:
        cache.clear()


def one_round(inputs: Inputs, tracer=None):
    """Run the pipeline once: (phase seconds, per-example audit seconds, outputs)."""
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    cold_start()
    phases = {}
    begin = _now()
    with span("data.classifier_train"):
        clf = data.train_quality_classifier(inputs.curated, inputs.web, hash_dim=HASH_DIM, seed=inputs.data_seed)
    phases["classifier"] = _now() - begin
    begin = _now()
    with span("data.filter"):
        kept, counts = data.filter_corpus(inputs.corpus, clf, seed=inputs.data_seed)
    phases["filter"] = _now() - begin
    begin = _now()
    with span("contamination.index_build.exact"):
        exact = contamination.build_ngram_index(inputs.corpus, n=N)
    phases["index_exact"] = _now() - begin
    begin = _now()
    with span("contamination.index_build.bloom"):
        bloom = contamination.build_ngram_index(inputs.corpus, n=N, bloom_bits=BLOOM_BITS)
    phases["index_bloom"] = _now() - begin
    latencies, dirty_exact, dirty_bloom = [], [], []
    for text in inputs.examples:
        begin = _now()
        with span("contamination.report.exact"):
            a = contamination.report([text], exact)
        with span("contamination.report.bloom"):
            b = contamination.report([text], bloom)
        latencies.append(_now() - begin)
        dirty_exact.append(a["dirty_count"] == 1)
        dirty_bloom.append(b["dirty_count"] == 1)
    phases["audit"] = sum(latencies)
    outputs = {
        "kept": dict(sorted(counts["kept"].items())),
        "n_kept": len(kept),
        "index_size": len(exact),
        "dirty_exact": dirty_exact,
        "dirty_bloom": dirty_bloom,
    }
    return phases, latencies, outputs


def run(inputs: Inputs, seconds: float, tracer=None, check=True) -> dict:
    ops_per_round = 2 * N_TRAIN_DOCS + 3 * len(inputs.corpus) + 2 * len(inputs.examples)
    totals: Counter = Counter()
    op_ms: list[float] = []
    first = None
    rounds = 0
    start = _now()
    while rounds == 0 or _now() - start < seconds:
        if tracer is not None:
            tracer.open_group("audit.round")
        try:
            phases, latencies, outputs = one_round(inputs, tracer)
        finally:
            if tracer is not None:
                tracer.close_group()
        totals.update(phases)
        op_ms += [t * 1000.0 for t in latencies]
        if first is None:
            first = outputs
        elif outputs != first:
            raise CheckFailed(f"{NAME}: round {rounds} gave different outputs from round 0")
        rounds += 1
    if check:
        _check(inputs, first)
    n_dirty = sum(first["dirty_exact"])
    return {
        "attempted": rounds * ops_per_round,
        "failed": 0,
        "ops_per_s": rounds * ops_per_round / sum(totals.values()),
        "op_ms": op_ms,
        "named": {
            "filter_docs_per_s": (rounds * len(inputs.corpus) / totals["filter"], "1/s"),
            "index_ngrams_per_s": (2 * rounds * inputs.grams / (totals["index_exact"] + totals["index_bloom"]), "1/s"),
            "audit_examples_per_s": (rounds * len(inputs.examples) / totals["audit"], "1/s"),
            "classifier_train_s": (totals["classifier"] / rounds, "s"),
            "audit_rounds": (rounds, "count"),
        },
        "traffic": {
            "repeat_word_share": inputs.repeat_word_share,
            "planted_dirty_share": sum(inputs.planted) / len(inputs.planted),
            "dirty_share_bloom": sum(first["dirty_bloom"]) / len(inputs.examples),
        },
        "counts": {
            "data.keep_share": first["n_kept"] / len(inputs.corpus),
            "contamination.ngrams_inserted.exact": first["index_size"],
            "contamination.dirty_share": n_dirty / len(inputs.examples),
        },
        "outputs": summary(first),
    }


def summary(outputs: dict) -> dict:
    """The per-seed golden: kept counts, index size and dirty counts."""
    dirty = {"dirty_exact": sum(outputs["dirty_exact"]), "dirty_bloom": sum(outputs["dirty_bloom"])}
    return {k: v for k, v in outputs.items() if k not in dirty} | dirty


def brute_force_dirty(text: str, corpus_lines: list[str]) -> bool:
    """Reference scan: does any n-gram of ``text`` occur inside one corpus document?"""
    tokens = contamination.normalize_tokens(text)
    grams = {" ".join(tokens[i : i + N]) for i in range(len(tokens) - N + 1)}
    return any(f" {gram} " in line for gram in grams for line in corpus_lines)


def _check(inputs: Inputs, outputs: dict) -> None:
    exact, bloom = outputs["dirty_exact"], outputs["dirty_bloom"]
    missed = [i for i, (p, d) in enumerate(zip(inputs.planted, exact)) if p and not d]
    if missed:
        raise CheckFailed(f"{NAME}: planted examples {missed[:5]} were not found dirty")
    if any(e and not b for e, b in zip(exact, bloom)):
        raise CheckFailed(f"{NAME}: Bloom mode missed an example that exact mode found dirty")
    lines = [" " + " ".join(contamination.normalize_tokens(d.text)) + " " for d in inputs.corpus]
    sample = np.random.default_rng([inputs.seed, 5]).choice(len(inputs.examples), BRUTE_FORCE_SAMPLE, replace=False)
    for i in sample:
        if brute_force_dirty(inputs.examples[i], lines) != exact[i]:
            raise CheckFailed(f"{NAME}: exact audit of example {i} disagrees with a brute-force scan")
    if outputs["index_size"] > inputs.grams:
        raise CheckFailed(f"{NAME}: exact index holds {outputs['index_size']} > {inputs.grams} n-grams")
    golden = json.loads((GOLDENS / f"{NAME}.json").read_text())["per_seed"].get(str(inputs.seed))
    if golden is not None and summary(outputs) != golden:
        raise CheckFailed(f"{NAME}: outputs {summary(outputs)} differ from golden {golden}")


# ---------------------------------------------------------------- tracing


def install(tracer) -> None:
    index_contains = contamination.NgramIndex.__contains__
    bloom_add = contamination.BloomFilter.add

    def probe(self, gram):
        tracer.counts["contamination.probes"] += 1
        return index_contains(self, gram)

    def insert(self, gram):
        tracer.counts["contamination.bloom_adds"] += 1
        return bloom_add(self, gram)

    tracer.patch_span(data, "score", "data.score")
    tracer.patch(contamination.NgramIndex, "__contains__", probe)
    tracer.patch(contamination.BloomFilter, "add", insert)


def layer_metrics(tracer, result: dict, inputs: Inputs) -> dict:
    calls = tracer.self_ms()
    rounds = result["named"]["audit_rounds"][0]
    out = dict(result["counts"])
    out.update(
        {
            "data.classifier_train_ms": median(calls.get("data.classifier_train")),
            "data.filter_self_ms": median(calls.get("data.filter")),
            "data.score_ms": median(calls.get("data.score")),
            "contamination.index_build_ms.exact": median(calls.get("contamination.index_build.exact")),
            "contamination.index_build_ms.bloom": median(calls.get("contamination.index_build.bloom")),
            "contamination.report_ms.exact": median(calls.get("contamination.report.exact")),
            "contamination.report_ms.bloom": median(calls.get("contamination.report.bloom")),
            "contamination.ngrams_inserted.bloom": tracer.counts["contamination.bloom_adds"] / rounds,
            "contamination.probes_per_example": tracer.counts["contamination.probes"]
            / (2 * rounds * len(inputs.examples)),
        }
    )
    return out
