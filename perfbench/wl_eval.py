"""eval-fewshot: the stub tasks of the full 29-task registry at 0, 1 and 2 shots.

The model (2 layers, d_model 32, d_ff 64, E = 2, seq_len 128) is saved with
``checkpoint.save_checkpoint`` and loaded back as ``moelab eval`` loads it.
A block sends every (task, shot count) pair once, in seeded order and with
seeded demonstrations; multiple-choice examples go through ``classify`` and
generative ones through ``generate_beam`` (width 4, 16 tokens).  Whole
cycles of three blocks repeat until the time is up.  Every prompt the traffic
can produce has a committed golden output, keyed by a hash of task and prompt.

Why: forward-only traffic that re-runs the whole prefix for every beam at
every token, and in which the MoE layer is a small share.  2-shot
multiple-choice prompts exceed seq_len 128 and raise ``ConfigError``; they
are real traffic and count as failed operations.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import GOLDENS, OUT, CheckFailed, quantile
from tracer import install_model_layers, model_layer_metrics

from moelab import checkpoint, evalharness, model
from moelab.data import tokenize
from moelab.model import ModelConfig

NAME = "eval-fewshot"
TAG = "eval"
CONFIG = dict(n_layers=2, d_model=32, d_ff=64, n_heads=2, d_head=16, n_experts=2, seq_len=128, batch_size=1)
MODEL_SEED = 20211213  # fixed: the goldens belong to this model
SHOTS = (0, 1, 2)
EXAMPLES_PER_TASK = 3
BEAM_WIDTH = 4
MAX_TOKENS = 16
# Two option scores closer than this are a tie that rounding may flip.
TIE_TOLERANCE = 1e-9

_now = time.perf_counter


@dataclass
class Inputs:
    seed: int
    scorer: evalharness.SequenceScorer
    tasks: dict
    load_ms: float


def golden_key(task_name: str, prompt: str) -> str:
    return hashlib.sha256(f"{task_name}\n{prompt}".encode()).hexdigest()[:20]


def load_model(workdir) -> tuple[model.TransformerLM, float]:
    """Save the fixed model, then load it back the way ``moelab eval`` does."""
    config = ModelConfig(**CONFIG)
    path = workdir / "model.ckpt"
    checkpoint.save_checkpoint(path, config, model.build(config, MODEL_SEED).params())
    start = _now()
    snap = checkpoint.load_checkpoint(path)
    net = model.build(snap.config, seed=0)
    live = net.params()
    for name, arr in snap.params.items():
        live[name].data = arr.copy()
    return net, (_now() - start) * 1000.0


def stub_tasks() -> dict:
    return {
        (name, shots): evalharness.stub_task(name, shots=shots, n_examples=EXAMPLES_PER_TASK)
        for name in sorted(evalharness.TASK_REGISTRY)
        for shots in SHOTS
    }


def prepare(seed: int) -> Inputs:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="eval-", dir=OUT)
    try:
        net, load_ms = load_model(Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Inputs(seed, evalharness.SequenceScorer(net), stub_tasks(), load_ms)


def block(seed: int, tasks: dict, index: int) -> list[tuple]:
    """The ``index``-th block of traffic: every (task, shots) pair once.

    Pair j (in sorted order) sends example (j + index) % 3, so every block has
    the same mix and 3 blocks send every (task, shots, example) once.  The
    seed orders the requests and draws each request's demonstrations (its
    example seed).  A request is (task, example, prompt, example seed).
    """
    rng = np.random.default_rng([seed, 3, index])
    pairs = sorted(tasks)
    requests = []
    for j in rng.permutation(len(pairs)):
        task = tasks[pairs[j]]
        example = task.examples[(j + index) % len(task.examples)]
        example_seed = int(rng.integers(2**62))
        demos = [evalharness.format_demonstration(e, task.kind) for e in task.train_examples]
        prompt = evalharness.build_prompt(demos, example["context"], task.shots, example_seed)
        requests.append((task, example, prompt, example_seed))
    return requests


class DecodeStamps:
    """Times at which ``generate_beam`` asks the scorer for a next-token distribution.

    Installed on the scorer instance, it forwards every call to the real
    ``SequenceScorer.next_token_logprobs`` (or to the tracer's patch of it), so
    the program does the same work; it only notes each prefix length and time.
    """

    def __init__(self, scorer):
        self.scorer = scorer
        self.calls: list[tuple[int, float]] = []

    def __call__(self, ids):
        self.calls.append((len(ids), _now()))
        return type(self.scorer).next_token_logprobs(self.scorer, ids)

    def __enter__(self):
        self.scorer.next_token_logprobs = self
        return self

    def __exit__(self, *exc):
        del self.scorer.next_token_logprobs


def _decode_steps(calls, end: float) -> list[float]:
    """Duration of each decode position: from its first forward to the next position's."""
    firsts: dict[int, float] = {}
    for position, t in calls:
        firsts.setdefault(position, t)
    starts = [firsts[p] for p in sorted(firsts)]
    return [b - a for a, b in zip(starts, starts[1:] + [end])]


class Tally:
    """What the eval traffic measures and checks, request by request.

    Forwards and the positions they feed are counted only in a traced run, by
    the tracer's wrapper around ``TransformerLM.forward``.
    """

    def __init__(self, inputs: Inputs, tracer, check: bool, stamps: DecodeStamps):
        self.inputs = inputs
        self.tracer = tracer
        self.stamps = stamps
        self.goldens = json.loads((GOLDENS / f"{NAME}.json").read_text())["outputs"] if check else None
        self.mc_ms, self.gen_ms, self.op_ms, self.step_ms = [], [], [], []
        self.prompt_lens: list[int] = []
        self.failures: Counter = Counter()
        self.first_error: dict[str, str] = {}
        self.problems: list[str] = []
        self.counts: Counter = Counter()

    def _forwards(self) -> tuple[float, float]:
        counts = self.tracer.counts if self.tracer is not None else {}
        return counts.get("model.forwards", 0.0), counts.get("model.positions", 0.0)

    def send(self, task, example, prompt: str, example_seed: int) -> float:
        """Serve one request; returns the seconds it took."""
        prompt_ids = tokenize(prompt)
        self._traffic(task, example, prompt_ids)
        scorer = self.inputs.scorer
        mc = task.kind == "multiple_choice"
        self.stamps.calls.clear()
        forwards, positions = self._forwards()
        if self.tracer is not None:
            self.tracer.open_group("evalharness.example")
        begin = _now()
        try:
            if mc:
                output = evalharness.classify(scorer, task, example, seed=example_seed)
            else:
                output = evalharness.generate_beam(scorer, prompt_ids, BEAM_WIDTH, MAX_TOKENS)
        except Exception as exc:  # any failure is a failed op, counted by type
            kind = type(exc).__name__
            self.failures[kind] += 1
            self.first_error.setdefault(kind, f"{task.name} {task.shots}-shot: {exc}")
            output = exc
        finally:
            end = _now()
            if self.tracer is not None:
                self.tracer.close_group()
        if self.goldens is not None:
            problem = _compare(self.goldens, task, prompt, output, self.counts)
            if problem:
                self.problems.append(problem)
        if isinstance(output, Exception):
            return end - begin
        took = (end - begin) * 1000.0
        forwards_after, positions_after = self._forwards()
        self.op_ms.append(took)
        if mc:
            self.mc_ms.append(took)
            self.counts["mc_forwards"] += forwards_after - forwards
        else:
            self.gen_ms.append(took)
            steps = _decode_steps(self.stamps.calls, end)
            self.step_ms += [s * 1000.0 for s in steps]
            self.counts["positions"] += len(steps)
            self.counts["decode_forwards"] += forwards_after - forwards
            self.counts["fed_tokens"] += positions_after - positions
            longest = max((n for n, _ in self.stamps.calls), default=0)
            self.counts["truncated_prompts"] += longest + 1 > scorer.max_len
        return end - begin

    def _traffic(self, task, example, prompt_ids: list[int]) -> None:
        self.prompt_lens.append(len(prompt_ids))
        limit = self.inputs.scorer.max_len
        if task.kind == "multiple_choice":
            options = [tokenize(o) for o in example["options"]]
            self.counts["over_seq_len"] += len(prompt_ids) + max(map(len, options)) > limit
            self.counts["context_tokens"] += len(prompt_ids) * len(options)
            self.counts["scored_tokens"] += sum(len(prompt_ids) + len(o) for o in options)
        else:
            self.counts["over_seq_len"] += len(prompt_ids) + 1 > limit


def run(inputs: Inputs, seconds: float, tracer=None, check=True) -> dict:
    """Serve whole cycles of blocks, as many as come nearest to ``seconds``.

    A cycle of EXAMPLES_PER_TASK blocks sends every (task, shots, example)
    once, so every run serves the same mix of prompts whatever its speed.
    At least one cycle runs; the run stops once the time spent plus half a
    mean cycle reaches ``seconds``.
    """
    blocks = cycles = 0
    busy = 0.0
    start = _now()
    with DecodeStamps(inputs.scorer) as stamps:
        tally = Tally(inputs, tracer, check, stamps)
        while True:
            for _ in range(EXAMPLES_PER_TASK):
                for request in block(inputs.seed, inputs.tasks, blocks):
                    busy += tally.send(*request)
                blocks += 1
            cycles += 1
            elapsed = _now() - start
            if elapsed + elapsed / cycles / 2 >= seconds:
                break
    if tally.problems:
        raise CheckFailed(f"{NAME}: {len(tally.problems)} outputs differ from goldens; first: {tally.problems[0]}")
    attempted = len(tally.prompt_lens)
    failed = sum(tally.failures.values())
    rate = (attempted - failed) / busy
    counts = tally.counts
    positions = max(counts["positions"], 1)
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": rate,
        "op_ms": tally.op_ms,
        "named": {
            "eval_examples_per_s": (rate, "1/s"),
            "mc_example_ms_p50": (quantile(tally.mc_ms, 0.5), "ms"),
            "mc_example_ms_p95": (quantile(tally.mc_ms, 0.95), "ms"),
            "decode_token_ms_p50": (quantile(tally.step_ms, 0.5), "ms"),
            "decode_token_ms_p95": (quantile(tally.step_ms, 0.95), "ms"),
            "generative_example_ms_p50": (quantile(tally.gen_ms, 0.5), "ms"),
            "eval_cycles": (cycles, "count"),
        },
        "traffic": {
            "prompt_tokens_q1": quantile(tally.prompt_lens, 0.25),
            "prompt_tokens_q2": quantile(tally.prompt_lens, 0.5),
            "prompt_tokens_q3": quantile(tally.prompt_lens, 0.75),
            "over_seq_len_share": counts["over_seq_len"] / attempted,
            "mc_shared_context_token_share": counts["context_tokens"] / counts["scored_tokens"],
            "failed_by_type": dict(tally.failures),
            "first_error_by_type": tally.first_error,
            "golden_checked": counts["golden_checked"],
            "golden_ties_accepted": counts["golden_ties"],
        },
        "counts": {
            "evalharness.forwards_per_token": counts["decode_forwards"] / positions,
            "evalharness.positions_per_token": counts["fed_tokens"] / positions,
            "evalharness.truncated_prompts": counts["truncated_prompts"] / cycles,
            "evalharness.forwards_per_mc_example": counts["mc_forwards"] / max(len(tally.mc_ms), 1),
            "evalharness.failed_examples": failed / cycles,
            "evalharness.failed_examples.ConfigError": tally.failures["ConfigError"] / cycles,
            "evalharness.failed_examples.other": (failed - tally.failures["ConfigError"]) / cycles,
        },
    }


def _compare(goldens: dict, task, prompt: str, output, counts: Counter) -> str | None:
    """Why ``output`` does not match the golden for this prompt, or None."""
    golden = goldens.get(golden_key(task.name, prompt))
    where = f"{task.name} {task.shots}-shot"
    if golden is None:
        return f"{where}: no golden for prompt {prompt!r}"
    counts["golden_checked"] += 1
    if "error" in golden:
        if not isinstance(output, Exception):
            return (
                f"{where}: golden raised {golden['error']} but the prompt now succeeds; "
                "if that is meant, re-run perfbench/make_goldens.py so its output is checked"
            )
        kind = type(output).__name__
        return None if kind == golden["error"] else f"{where}: raised {kind}, golden raised {golden['error']}"
    if isinstance(output, Exception):
        return f"{where}: raised {type(output).__name__}: {output}"
    if "ids" in golden:
        return None if list(output) == golden["ids"] else f"{where}: decoded {output}, golden {golden['ids']}"
    if output == golden["prediction"]:
        return None
    scores = golden["scores"]
    if abs(scores[output] - scores[golden["prediction"]]) <= TIE_TOLERANCE:
        counts["golden_ties"] += 1
        return None
    return f"{where}: predicted option {output}, golden {golden['prediction']} (scores {scores})"


# ---------------------------------------------------------------- tracing


def install(tracer) -> None:
    install_model_layers(tracer)
    tracer.patch_span(evalharness, "score_option", "evalharness.score_option")
    tracer.patch_span(evalharness.SequenceScorer, "token_logprobs", "evalharness.token_logprobs")
    tracer.patch_span(evalharness.SequenceScorer, "next_token_logprobs", "evalharness.next_token_logprobs")


def layer_metrics(tracer, result: dict, inputs: Inputs) -> dict:
    out = model_layer_metrics(tracer, TAG)
    out.update(result["counts"])
    out["checkpoint.load_ms"] = inputs.load_ms
    return out
