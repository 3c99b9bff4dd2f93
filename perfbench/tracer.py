"""In-memory span recorder and the patches that put it around moelab's layers.

A span is ``[name, start, end, parent, group]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or -1), and
``group`` the id shared by every span of one train step, eval example or audit
round.  Spans are appended to a list and written out only when the run ends.
Layers are wrapped from outside: each public name is replaced where its
caller looks it up (``model.moe_forward``, not ``moe.moe_forward``, because
``model`` binds it at import), and every patch is undone by ``unpatch``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter

# Forwards whose tape is walked to count nodes; the walk is not free.
TAPE_SAMPLES = 8


class Tracer:
    """Nested spans, named counters and samples, grouped by step/example/round."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._group_span: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), None, parent, self.group])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def open_group(self, name: str) -> None:
        """Close the current group's root span and open the next one."""
        self.close_group()
        self.group += 1
        self._group_span = self.begin(name)

    def close_group(self) -> None:
        if self._group_span is not None:
            self.end(self._group_span)
            self._group_span = None

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` runs once the span closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    # ---- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, after=None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span (s)."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def self_ms(self) -> dict[str, list[float]]:
        """Self time in ms of every span, listed by span name."""
        calls: dict[str, list[float]] = defaultdict(list)
        for s, own in zip(self.spans, self.self_times()):
            calls[s[0]].append(own * 1000.0)
        return calls

    def unattributed_share(self, root: str) -> float:
        """Share of the time of ``root`` spans that no child span accounts for."""
        total = own = 0.0
        for s, t in zip(self.spans, self.self_times()):
            if s[0] == root:
                total += s[2] - s[1]
                own += t
        return own / total if total else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i] + span) + "\n")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------- model-level layers


def install_model_layers(tracer: Tracer) -> None:
    """Spans on forward, attention, GEGLU and MoE; counters on experts and the tape."""
    from moelab import model, moe

    def forwarded(result, args):
        tracer.counts["model.forwards"] += 1
        tracer.counts["model.positions"] += args[1].shape[1]
        if len(tracer.samples["tape_nodes"]) < TAPE_SAMPLES:
            tracer.samples["tape_nodes"].append(tape_nodes(result[0]))

    def routed(result, args):
        stats = result[1]
        tracer.counts["moe.tokens"] += stats.total_tokens
        tracer.counts["moe.dropped"] += stats.dropped_tokens

    expert_call = moe.ExpertFFN.__call__

    def counted_expert(self, x):
        tracer.counts["moe.expert_rows"] += x.shape[0]
        return expert_call(self, x)

    tracer.patch_span(model.TransformerLM, "forward", "model.forward", after=forwarded)
    tracer.patch_span(model, "attention_with_relative_bias", "model.attention")
    tracer.patch_span(model, "geglu_ffn", "model.geglu")
    tracer.patch_span(model, "moe_forward", "moe.forward", after=routed)
    tracer.patch(moe.ExpertFFN, "__call__", counted_expert)


def model_layer_metrics(tracer: Tracer, tag: str) -> dict:
    calls = tracer.self_ms()
    tokens = max(tracer.counts["moe.tokens"], 1.0)
    return {
        f"model.forward_ms.{tag}": median(calls.get("model.forward")),
        f"model.attention_ms.{tag}": median(calls.get("model.attention")),
        f"model.geglu_ms.{tag}": median(calls.get("model.geglu")),
        f"moe.forward_ms.{tag}": median(calls.get("moe.forward")),
        f"moe.expert_rows_per_token.{tag}": tracer.counts["moe.expert_rows"] / tokens,
        f"moe.dropped_token_share.{tag}": tracer.counts["moe.dropped"] / tokens,
        f"tensor.tape_nodes_per_forward.{tag}": median(tracer.samples["tape_nodes"]),
    }


def tape_nodes(output) -> int:
    """Recorded operations reachable from ``output`` on the autodiff tape."""
    seen: set[int] = set()
    stack = [output]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        parents = getattr(node, "_parents", ())
        if parents:
            count += 1
            stack.extend(parent for parent, _ in parents)
    return count
