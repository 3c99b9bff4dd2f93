"""train-moe32: ``trainer.train`` with checkpointing on a 32-expert model.

Geometry: 2 layers (the second is MoE), d_model 32, d_ff 64, 2 heads x 16,
E = 32, B = 8, S = 64.  Batches come from ``data.batches_from_documents`` over
a seeded Zipf word-salad corpus, as ``moelab train`` builds them.  The run
repeats one fixed-length training run (fresh model, same seeds) until the
time is up, so every repetition must reproduce the same losses exactly.

Why: the mask-based MoE combine runs all 32 experts over every token, and the
tape backward and Adafactor update 64 expert matrices, so this workload loads
dispatch, backward and the optimizer, and it writes checkpoints between steps.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import GOLDENS, OUT, CheckFailed, quantile
from tracer import install_model_layers, median, model_layer_metrics

from moelab import data, model, moe, tensor, trainer
from moelab.checkpoint import load_checkpoint
from moelab.model import ModelConfig

NAME = "train-moe32"
TAG = "train"
CONFIG = dict(n_layers=2, d_model=32, d_ff=64, n_heads=2, d_head=16, n_experts=32, seq_len=64, batch_size=8)
STEPS_PER_RUN = 40
CHECKPOINT_INTERVAL = 10
LOSS_WINDOW = 10  # train_loss_final is the mean loss of this many final steps
N_DOCS = 300
VOCAB_WORDS = 1500
ZIPF_EXPONENT = 1.1
# The MoE-in-E curve: moe_forward forward+backward alone on T tokens.
CURVE_EXPERTS = (4, 16, 64)
CURVE_TOKENS = 512
CURVE_REPEATS = 5

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_now = time.perf_counter


@dataclass
class Inputs:
    seed: int
    config: ModelConfig
    source: object
    model_seed: int


def zipf_words(rng: np.random.Generator, n_words: int) -> tuple[list[str], np.ndarray]:
    """A seeded random vocabulary and Zipf weights over it."""
    vocab = ["".join(rng.choice(_LETTERS, size=k)) for k in rng.integers(2, 10, size=n_words)]
    weights = 1.0 / np.arange(1, n_words + 1) ** ZIPF_EXPONENT
    return vocab, weights / weights.sum()


def prepare(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    vocab, weights = zipf_words(rng, VOCAB_WORDS)
    docs = []
    for i in range(N_DOCS):
        picks = rng.choice(VOCAB_WORDS, size=int(rng.integers(20, 100)), p=weights)
        docs.append(data.Document(f"doc-{i}", "books", " ".join(vocab[j] for j in picks)))
    config = ModelConfig(**CONFIG)
    source = data.batches_from_documents(docs, config.seq_len, config.batch_size)
    return Inputs(seed, config, source, model_seed=int(rng.integers(2**62)))


def _one_run(inputs: Inputs, workdir: Path, tracer):
    """One ``trainer.train`` call: (entries, per-step seconds, model, manager).

    A step lasts from the loop's request for its batch to the next request,
    so it includes the checkpoint written after it; the last step ends when
    ``train`` returns, after the final checkpoint.
    """
    marks: list[float] = []

    def timed_source(data_seed):
        batches = inputs.source(data_seed)
        while True:
            marks.append(_now())
            if tracer is None:
                yield next(batches)
                continue
            tracer.open_group("trainer.step")
            with tracer.span("trainer.data_wait"):
                batch = next(batches)
            yield batch

    net = model.build(inputs.config, inputs.model_seed)
    manager = trainer.CheckpointManager(workdir, interval=CHECKPOINT_INTERVAL)
    try:
        entries = trainer.train(
            net, timed_source, STEPS_PER_RUN, seed=inputs.seed, manager=manager, log_path=workdir / "train_log.jsonl"
        )
    finally:
        if tracer is not None:
            tracer.close_group()
    steps = [b - a for a, b in zip(marks, marks[1:] + [_now()])]
    return entries, steps, net, manager


def _final_loss(entries, net, manager) -> float:
    """Check one run's losses and checkpoint; return its train_loss_final."""
    bad = [e.step for e in entries if not math.isfinite(e.loss)]
    if bad:
        raise CheckFailed(f"{NAME}: non-finite loss at steps {bad[:5]}")
    snap = load_checkpoint(manager.last_path)
    live = net.params()
    if set(snap.params) != set(live):
        raise CheckFailed(f"{NAME}: checkpoint parameter names differ from the live model")
    for name, arr in snap.params.items():
        if arr.shape != live[name].shape or arr.tobytes() != live[name].data.tobytes():
            raise CheckFailed(f"{NAME}: reloaded {name} is not bit-equal to the live model")
    kept = [e.loss for e in entries if not e.skipped]
    return float(np.mean(kept[-LOSS_WINDOW:]))


def check_reference(seed: int, loss: float) -> None:
    golden = json.loads((GOLDENS / f"{NAME}.json").read_text())
    ref, rtol = golden["reference_loss"], golden["reference_rtol"]
    if abs(loss - ref) > rtol * ref:
        raise CheckFailed(f"{NAME}: train_loss_final {loss:.6f} is outside {ref:.4f} +- {rtol:.0%}")
    exact = golden["per_seed"].get(str(seed))
    if exact is not None and abs(loss - exact) > 1e-9 * abs(exact):
        raise CheckFailed(f"{NAME}: train_loss_final {loss!r} != golden {exact!r} for seed {seed}")


def run(inputs: Inputs, seconds: float, tracer=None, check=True) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="train-", dir=OUT))
    step_s: list[float] = []  # completed steps only
    busy = 0.0
    attempted = failed = rollbacks = skipped = 0
    finals: list[float] = []
    loads: list[float] = []
    start = _now()
    try:
        while not finals or _now() - start < seconds:
            entries, steps, net, manager = _one_run(inputs, workdir, tracer)
            busy += sum(steps)
            step_s += [s for s, e in zip(steps, entries) if not (e.skipped or e.rollback)]
            attempted += len(entries)
            failed += sum(e.skipped or e.rollback for e in entries)
            skipped += sum(e.skipped for e in entries)
            rollbacks += manager.rollbacks
            finals.append(_final_loss(entries, net, manager))
            loads += [max(max(layer) for layer in e.expert_load) for e in entries if e.expert_load]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(set(finals)) != 1:
        raise CheckFailed(f"{NAME}: repeated runs disagree on train_loss_final: {sorted(set(finals))}")
    if check:
        check_reference(inputs.seed, finals[0])
    tokens = inputs.config.batch_size * inputs.config.seq_len
    rate = (attempted - failed) / busy
    step_ms = [s * 1000.0 for s in step_s]
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": rate,
        "op_ms": step_ms,
        "named": {
            "train_tokens_per_s": (rate * tokens, "tokens/s"),
            "train_step_ms_p50": (quantile(step_ms, 0.5), "ms"),
            "train_step_ms_p95": (quantile(step_ms, 0.95), "ms"),
            "train_loss_final": (finals[0], "nats"),
            "train_runs": (len(finals), "count"),
        },
        "traffic": {
            "max_expert_load_fraction": max(loads),
            "median_step_max_expert_load_fraction": statistics.median(loads),
            "tokens_per_step": tokens,
        },
        "counts": {"trainer.rollbacks": rollbacks, "trainer.skipped_steps": skipped},
    }


# ---------------------------------------------------------------- tracing


def install(tracer) -> None:
    """Spans around every layer a training step passes through."""

    def saved(result, args):
        tracer.counts["checkpoint.bytes_written"] += Path(args[0]).stat().st_size
        tracer.counts["checkpoint.saves"] += 1

    install_model_layers(tracer)
    tracer.patch_span(trainer, "train_step", "trainer.train_step")
    tracer.patch_span(trainer, "adafactor_step", "trainer.adafactor")
    tracer.patch_span(tensor.Tensor, "backward", "tensor.backward")
    tracer.patch_span(data, "pack_examples", "data.pack")
    tracer.patch_span(trainer, "save_checkpoint", "checkpoint.save", after=saved)
    tracer.patch_span(trainer, "load_checkpoint", "checkpoint.load")


def layer_metrics(tracer, result: dict, inputs: Inputs) -> dict:
    calls = tracer.self_ms()
    steps = [(s[2] - s[1]) * 1000.0 for s in tracer.spans if s[0] == "trainer.step"]
    out = model_layer_metrics(tracer, TAG)
    out.update(
        {
            "tensor.backward_ms": median(calls.get("tensor.backward")),
            "trainer.adafactor_ms": median(calls.get("trainer.adafactor")),
            "trainer.train_step_self_ms": median(calls.get("trainer.train_step")),
            "trainer.data_wait_ms": median(calls.get("trainer.data_wait")),
            "trainer.step_ms": median(steps),
            "trainer.step_unattributed_share": tracer.unattributed_share("trainer.step"),
            "trainer.skipped_steps": result["counts"]["trainer.skipped_steps"],
            "trainer.rollbacks": result["counts"]["trainer.rollbacks"],
            "data.pack_ms": median(calls.get("data.pack")),
            "checkpoint.save_ms": median(calls.get("checkpoint.save")),
            "checkpoint.bytes_written": tracer.counts["checkpoint.bytes_written"]
            / max(tracer.counts["checkpoint.saves"], 1.0),
        }
    )
    return out


def moe_curve() -> dict:
    """Median ms of one moe_forward forward+backward on T tokens, per expert count."""
    rng = np.random.default_rng(0)
    d_model, d_ff = CONFIG["d_model"], CONFIG["d_ff"]
    out = {}
    for n_experts in CURVE_EXPERTS:
        experts = [
            moe.ExpertFFN(
                tensor.Tensor(rng.normal(0, d_model**-0.5, (d_model, d_ff)), requires_grad=True),
                tensor.Tensor(rng.normal(0, d_ff**-0.5, (d_ff, d_model)), requires_grad=True),
            )
            for _ in range(n_experts)
        ]
        gate = tensor.Tensor(rng.normal(0, d_model**-0.5, (d_model, n_experts)), requires_grad=True)
        tokens = rng.normal(size=(CURVE_TOKENS, d_model))
        probe = rng.normal(size=(CURVE_TOKENS, d_model))
        times = []
        for _ in range(CURVE_REPEATS + 1):  # the first repeat warms up
            x = tensor.Tensor(tokens, requires_grad=True)
            begin = _now()
            routed, _ = moe.moe_forward(x, experts, gate)
            (routed * probe).sum().backward()
            times.append((_now() - begin) * 1000.0)
        out[f"moe.layer_ms.e{n_experts}"] = statistics.median(times[1:])
    return out
