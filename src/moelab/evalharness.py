"""Few-shot evaluation: prompts, option scoring, decoding, metrics, averages.

Multiple-choice tasks are ranked by log-likelihood of each option given the
context, divided by option token count when the task is length-normalized
(some tasks prefer the raw sum).  Generative tasks decode with width-4
length-normalized beam search and are scored SQuAD-style.  Per-task scores on
the 0-100 scale aggregate into macro averages over the generative (NLG) and
understanding (NLU) groups plus per-category means.

The 29-task registry carries each task's kind, normalization, metric, and
category.  The bundled stub examples are synthetic schema placeholders so the
harness runs end to end; they are not the benchmark datasets.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import BOS, EOS, detokenize, refuse_unencodable, require_byte_vocab, tokenize
from .model import TransformerLM
from .moe import ConfigError
from .tensor import log_softmax
from .util import read_jsonl, substream, substream_seed, write_jsonl

__all__ = [
    "Task",
    "TaskSpec",
    "TASK_REGISTRY",
    "SequenceScorer",
    "build_prompt",
    "score_option",
    "classify",
    "generate_beam",
    "normalize_answer",
    "generative_metrics",
    "evaluate_task",
    "aggregate",
    "stub_task",
    "write_stub_tasks",
    "load_task",
    "save_task",
]

KINDS = ("multiple_choice", "generative")
NORMALIZATIONS = ("length_normalized", "raw")
METRICS = ("accuracy_em", "f1")


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    normalization: str
    metric: str
    category: str


# kind / normalization / metric / category for the full benchmark list;
# choice tasks score per-token likelihood except the two raw-sum holdouts.
TASK_REGISTRY: dict[str, TaskSpec] = {
    "triviaqa": TaskSpec("generative", "raw", "accuracy_em", "open_domain_qa"),
    "nqs": TaskSpec("generative", "raw", "accuracy_em", "open_domain_qa"),
    "webqs": TaskSpec("generative", "raw", "accuracy_em", "open_domain_qa"),
    "lambada": TaskSpec("generative", "raw", "accuracy_em", "cloze_completion"),
    "hellaswag": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "cloze_completion"),
    "storycloze": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "cloze_completion"),
    "winograd": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "winograd_style"),
    "winogrande": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "winograd_style"),
    "piqa": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "commonsense"),
    "arc_easy": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "commonsense"),
    "arc_challenge": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "commonsense"),
    "openbookqa": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "commonsense"),
    "drop": TaskSpec("generative", "raw", "f1", "reading_comprehension"),
    "coqa": TaskSpec("generative", "raw", "f1", "reading_comprehension"),
    "quac": TaskSpec("generative", "raw", "f1", "reading_comprehension"),
    "squadv2": TaskSpec("generative", "raw", "f1", "reading_comprehension"),
    "race_h": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "reading_comprehension"),
    "race_m": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "reading_comprehension"),
    "boolq": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "superglue"),
    "cb": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "superglue"),
    "copa": TaskSpec("multiple_choice", "raw", "accuracy_em", "superglue"),
    "rte": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "superglue"),
    "wic": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "superglue"),
    "wsc": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "superglue"),
    "multirc": TaskSpec("multiple_choice", "length_normalized", "f1", "superglue"),
    "record": TaskSpec("multiple_choice", "raw", "accuracy_em", "superglue"),
    "anli_r1": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "nli"),
    "anli_r2": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "nli"),
    "anli_r3": TaskSpec("multiple_choice", "length_normalized", "accuracy_em", "nli"),
}


@dataclass
class Task:
    """One evaluation task: at least one eval example, plus a demonstration pool."""

    name: str
    kind: str
    examples: list[dict]
    train_examples: list[dict] = field(default_factory=list)
    normalization: str = "length_normalized"
    metric: str = "accuracy_em"
    shots: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"task name must be a non-empty string, got {self.name!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if isinstance(self.shots, bool) or not isinstance(self.shots, int) or self.shots < 0:
            raise ConfigError(f"shots must be a non-negative integer, got {self.shots!r}")
        if not self.examples:
            raise ConfigError(f"task {self.name} has no examples")
        refuse_unencodable(f"task name {self.name!r}", self.name)
        for ex in list(self.examples) + list(self.train_examples):
            if not isinstance(ex.get("context"), str):
                raise ConfigError(f"task {self.name}: every example needs a string context")
            if self.kind == "multiple_choice":
                options = ex.get("options")
                if not _str_list(options, min_len=2) or not all(options):
                    raise ConfigError(f"task {self.name}: choice examples need >= 2 non-empty options")
                answer = ex.get("answer_index")
                if type(answer) is not int or not 0 <= answer < len(options):
                    raise ConfigError(
                        f"task {self.name}: answer_index must be an option's index, got {answer!r}"
                    )
            elif not _str_list(ex.get("references"), min_len=1):
                raise ConfigError(f"task {self.name}: generative examples need >= 1 reference string")
            texts = ex["options"] if self.kind == "multiple_choice" else ex["references"]
            refuse_unencodable(f"task {self.name!r} example", ex["context"], *texts)


def _str_list(value, min_len: int) -> bool:
    return isinstance(value, list) and len(value) >= min_len and all(isinstance(v, str) for v in value)


class SequenceScorer:
    """Token-level log-likelihoods from a trained model, BOS-conditioned."""

    def __init__(self, model: TransformerLM):
        require_byte_vocab(model.config.vocab_size)
        self.model = model
        self.max_len = model.config.seq_len

    def _rows(self, feed: Sequence[int]) -> np.ndarray:
        logits, _, _ = self.model.forward(np.array([feed], dtype=np.int64))
        return log_softmax(logits.data[0], axis=-1).data

    def token_logprobs(self, ids: Sequence[int]) -> np.ndarray:
        """log P(ids[t] | BOS, ids[:t]) for every position; one forward pass, which
        refuses more than ``seq_len`` ids (the feed ``[BOS] + ids[:-1]`` is as long)."""
        ids = list(ids)
        if not ids:
            raise ConfigError("cannot score an empty sequence")
        rows = self._rows([BOS] + ids[:-1])
        return rows[np.arange(len(ids)), ids]

    def next_token_logprobs(self, ids: Sequence[int]) -> np.ndarray:
        """Distribution over the next token; long prefixes keep their tail."""
        feed = [BOS] + list(ids)
        if len(feed) > self.max_len:
            feed = feed[-self.max_len :]
        return self._rows(feed)[-1]


def build_prompt(demonstrations: Sequence[str], eval_context: str, shots: int, seed: int = 0) -> str:
    """Seed-drawn demonstrations, each followed by a blank line, then the context."""
    if shots > len(demonstrations):
        raise ConfigError(f"asked for {shots} shots but only {len(demonstrations)} demonstrations")
    order = substream(seed, "shots").permutation(len(demonstrations))[:shots]
    return "".join(demonstrations[i] + "\n\n" for i in order) + eval_context


def score_option(
    scorer: SequenceScorer,
    context_ids: Sequence[int],
    option_ids: Sequence[int],
    normalization: str = "length_normalized",
) -> float:
    """Log-likelihood of the option after the context, per-token if normalized."""
    if not option_ids:
        raise ConfigError("option must be non-empty")
    if normalization not in NORMALIZATIONS:
        raise ConfigError(f"unknown normalization {normalization!r}")
    logprobs = scorer.token_logprobs(list(context_ids) + list(option_ids))
    total = float(logprobs[len(context_ids) :].sum())
    return total / len(option_ids) if normalization == "length_normalized" else total


def format_demonstration(example: Mapping, kind: str) -> str:
    if kind == "multiple_choice":
        return example["context"] + example["options"][example["answer_index"]]
    return example["context"] + example["references"][0]


def classify(
    scorer: SequenceScorer,
    task: Task,
    example: Mapping,
    seed: int = 0,
) -> int:
    """Predicted option index: argmax option score, ties to the lowest index."""
    demos = [format_demonstration(e, task.kind) for e in task.train_examples]
    prompt = build_prompt(demos, example["context"], task.shots, seed)
    context_ids = tokenize(prompt)
    scores = [
        score_option(scorer, context_ids, tokenize(option), task.normalization)
        for option in example["options"]
    ]
    return int(np.argmax(scores))


def generate_beam(
    scorer,
    prompt_ids: Sequence[int],
    beam_width: int = 4,
    max_tokens: int = 16,
    eos_id: int = EOS,
) -> list[int]:
    """Length-normalized beam search; width 1 is greedy decoding."""
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if max_tokens < 1:
        raise ConfigError(f"max_tokens must be >= 1, got {max_tokens}")
    prompt_ids = list(prompt_ids)
    beams: list[tuple[tuple[int, ...], float, bool]] = [((), 0.0, False)]
    for _ in range(max_tokens):
        candidates = []
        for ids, total, finished in beams:
            if finished:
                candidates.append((ids, total, True))
                continue
            logprobs = scorer.next_token_logprobs(prompt_ids + list(ids))
            top = np.argsort(-logprobs, kind="stable")[:beam_width]
            for token in top:
                token = int(token)
                candidates.append((ids + (token,), total + float(logprobs[token]), token == eos_id))
        # rank by per-token score; the id tuple breaks exact ties deterministically
        candidates.sort(key=lambda c: (-(c[1] / max(1, len(c[0]))), c[0]))
        beams = candidates[:beam_width]
        if all(finished for _, _, finished in beams):
            break
    best = beams[0][0]
    return list(best[:-1]) if best and best[-1] == eos_id else list(best)


# ------------------------------------------------------------------ metrics

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    return " ".join(_ARTICLES.sub(" ", text).split())


def _f1(prediction_tokens: list[str], reference_tokens: list[str]) -> float:
    if not prediction_tokens or not reference_tokens:
        return float(prediction_tokens == reference_tokens)
    common = sum((Counter(prediction_tokens) & Counter(reference_tokens)).values())
    if common == 0:
        return 0.0
    precision = common / len(prediction_tokens)
    recall = common / len(reference_tokens)
    return 2 * precision * recall / (precision + recall)


def generative_metrics(prediction: str, references: Sequence[str]) -> dict:
    """Exact match and token F1 against the best-matching reference."""
    if not references:
        raise ConfigError("need at least one reference")
    pred = normalize_answer(prediction)
    em = max(float(pred == normalize_answer(r)) for r in references)
    f1 = max(_f1(pred.split(), normalize_answer(r).split()) for r in references)
    return {"em": em, "f1": f1}


# ---------------------------------------------------------------- task runs


def evaluate_task(
    scorer: SequenceScorer,
    task: Task,
    seed: int = 0,
    max_tokens: int = 16,
) -> dict:
    """Score every example; returns the 0-100 task score plus run metadata."""
    if max_tokens < 1:
        raise ConfigError(f"max_tokens must be >= 1, got {max_tokens}")
    values = []
    for i, example in enumerate(task.examples):
        example_seed = substream_seed(seed, f"{task.name}:{i}")
        if task.kind == "multiple_choice":
            predicted = classify(scorer, task, example, seed=example_seed)
            values.append(float(predicted == example["answer_index"]))
        else:
            demos = [format_demonstration(e, task.kind) for e in task.train_examples]
            prompt = build_prompt(demos, example["context"], task.shots, example_seed)
            ids = generate_beam(scorer, tokenize(prompt), beam_width=4, max_tokens=max_tokens)
            metrics = generative_metrics(detokenize(ids), example["references"])
            values.append(metrics["em"] if task.metric == "accuracy_em" else metrics["f1"])
    return {
        "task": task.name,
        "kind": task.kind,
        "score": 100.0 * float(np.mean(values)),
        "metric": task.metric,
        "normalization": task.normalization,
        "shots": task.shots,
        "n_examples": len(task.examples),
    }


def aggregate(results: Iterable[Mapping]) -> dict:
    """Macro averages: generative tasks form the NLG group, choice tasks NLU."""
    results = list(results)
    if not results:
        raise ConfigError("no task results to aggregate")
    nlg = [r["score"] for r in results if r["kind"] == "generative"]
    nlu = [r["score"] for r in results if r["kind"] == "multiple_choice"]
    categories: dict[str, list[float]] = {}
    for r in results:
        spec = TASK_REGISTRY.get(r["task"])
        category = spec.category if spec else "other"
        categories.setdefault(category, []).append(r["score"])
    return {
        "avg_nlg": float(np.mean(nlg)) if nlg else None,
        "avg_nlu": float(np.mean(nlu)) if nlu else None,
        "categories": {name: float(np.mean(vals)) for name, vals in sorted(categories.items())},
    }


# ------------------------------------------------------------------- stubs

_STUB_WORDS = ("river", "stone", "lamp", "cloud", "door", "grass", "wheel", "paper")


def _stub_examples(name: str, spec: TaskSpec, n: int, offset: int = 0) -> list[dict]:
    examples = []
    for i in range(n):
        word = _STUB_WORDS[(offset + i) % len(_STUB_WORDS)]
        other = _STUB_WORDS[(offset + i + 3) % len(_STUB_WORDS)]
        if spec.kind == "multiple_choice":
            examples.append(
                {
                    "context": f"{name} item {offset + i}: the {word} is next to the ",
                    "options": [word, other],
                    "answer_index": 0,
                }
            )
        else:
            examples.append(
                {
                    "context": f"{name} item {offset + i}: repeat the word {word}: ",
                    "references": [word],
                }
            )
    return examples


def stub_task(name: str, shots: int = 0, n_examples: int = 3) -> Task:
    """Synthetic schema-correct placeholder for a registry task."""
    spec = TASK_REGISTRY.get(name)
    if spec is None:
        raise ConfigError(f"unknown task {name!r}; registry has {len(TASK_REGISTRY)} tasks")
    return Task(
        name=name,
        kind=spec.kind,
        examples=_stub_examples(name, spec, n_examples),
        train_examples=_stub_examples(name, spec, n_examples, offset=n_examples),
        normalization=spec.normalization,
        metric=spec.metric,
        shots=shots,
    )


def save_task(task: Task, path: str | Path) -> None:
    header = {
        "record": "header",
        "name": task.name,
        "kind": task.kind,
        "normalization": task.normalization,
        "metric": task.metric,
        "shots": task.shots,
    }
    rows: list[dict] = [header]
    rows += [{"record": "example", "split": "train", **ex} for ex in task.train_examples]
    rows += [{"record": "example", "split": "eval", **ex} for ex in task.examples]
    write_jsonl(path, rows)


def load_task(path: str | Path) -> Task:
    rows = list(read_jsonl(path))
    if not all(isinstance(row, dict) for row in rows):
        raise ConfigError(f"{path}: every record must be a JSON object")
    if not rows or rows[0].get("record") != "header":
        raise ConfigError(f"{path}: first record must be a task header")
    header = rows[0]
    examples, train = [], []
    for row in rows[1:]:
        split = row.get("split", "eval")
        body = {k: v for k, v in row.items() if k not in ("record", "split")}
        (train if split == "train" else examples).append(body)
    return Task(
        name=header["name"],
        kind=header["kind"],
        examples=examples,
        train_examples=train,
        normalization=header.get("normalization", "length_normalized"),
        metric=header.get("metric", "accuracy_em"),
        shots=header.get("shots", 0),
    )


def write_stub_tasks(out_dir: str | Path, names: Sequence[str] | None = None) -> list[Path]:
    """Materialize stub task files for the registry (or a subset) as JSONL."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in names or sorted(TASK_REGISTRY):
        path = out_dir / f"{name}.jsonl"
        save_task(stub_task(name), path)
        paths.append(path)
    return paths
