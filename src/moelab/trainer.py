"""Adafactor training loop with skip-on-NaN and checkpoint rollback.

The optimizer follows the memory-frugal recipe: no first moment, a running
second moment whose decay is beta2_hat(t) = 1 - t**-0.8 (so the very first
step uses the raw squared gradient), factored row/column accumulators for
matrices, update RMS-clipped at 1.0, and an inverse-sqrt learning-rate
schedule that holds its peak through warmup.

Stability policy: a non-finite gradient skips the step without touching any
state; a diverged loss (NaN, or more than ``divergence_threshold`` times the
trailing median) restores the last checkpoint and reshuffles the data order
under a fresh seed.
"""

from __future__ import annotations

import ctypes
import json
import math
import platform
import statistics
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .model import TransformerLM
from .moe import ConfigError
from .tensor import Tensor
from .util import substream_seed

__all__ = [
    "AdafactorState",
    "TrainLogEntry",
    "CheckpointManager",
    "beta2_hat",
    "lr_schedule",
    "adafactor_step",
    "train_step",
    "train",
]

_EPS_ACCUM = 1e-30  # keeps zero gradients from dividing zero by zero
_CLIP_THRESHOLD = 1.0  # update RMS above this is scaled back down to it
_HISTORY_WINDOW = 50  # trailing losses whose median judges divergence
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its own dynamic mmap threshold on 64-bit


def beta2_hat(t: int) -> float:
    """Second-moment decay at step t >= 1: 1 - t**-0.8 (0 at t=1)."""
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    return 1.0 - t**-0.8


def lr_schedule(t: int, warmup_steps: int = 10_000, peak: float = 0.01) -> float:
    """Peak learning rate through warmup, then peak * sqrt(warmup / t)."""
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    if warmup_steps < 1:
        raise ConfigError(f"warmup_steps must be >= 1, got {warmup_steps}")
    if t <= warmup_steps:
        return peak
    return peak * math.sqrt(warmup_steps / t)


@dataclass
class AdafactorState:
    """Per-parameter second-moment accumulators plus the shared step count.

    ``accum`` holds checkpoint keys: an array of two or more axes has
    factored ``name@row`` (mean over the last axis) and ``name@col`` (mean
    over the second-to-last) accumulators, one pair per trailing matrix
    slice; a vector or scalar has a full ``name@full`` accumulator.
    """

    step: int = 0
    accum: dict[str, np.ndarray] = field(default_factory=dict)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"step": np.array([self.step], dtype=np.int64), **self.accum}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]):
        return cls(int(arrays["step"][0]), {k: a.astype(np.float64) for k, a in arrays.items() if k != "step"})


def _mean(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.mean(axis=axis)`` bit for bit (the same sum, then one true division),
    without numpy's Python-level wrapper, which dominates on small arrays."""
    return np.add.reduce(x, axis=axis) / x.shape[axis]


def adafactor_step(
    state: AdafactorState,
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    lr: float,
) -> dict[str, Tensor]:
    """Apply one update in place; increments the shared step counter.

    A stacked [..., R, C] parameter is updated as its trailing [R, C] slices
    would be one by one: factored accumulators and the RMS clip are per slice.
    """
    state.step += 1
    b2, accum = beta2_hat(state.step), state.accum
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        sq = g * g + _EPS_ACCUM
        if g.ndim >= 2:
            row, col = accum.get(f"{name}@row"), accum.get(f"{name}@col")
            row_mean, col_mean = _mean(sq, -1), _mean(sq, -2)
            new_row = row_mean if row is None else b2 * row + (1 - b2) * row_mean
            new_col = col_mean if col is None else b2 * col + (1 - b2) * col_mean
            accum[f"{name}@row"], accum[f"{name}@col"] = new_row, new_col
            # v_ij = row_i * col_j / mean(row) per matrix slice, exact for rank-one squared
            # gradients; built in sq's spent buffer so a stacked tensor adds few temporaries
            vhat = np.multiply(new_row[..., :, None], new_col[..., None, :], out=sq)
            vhat /= _mean(new_row, -1)[..., None, None]
        else:
            full = accum.get(f"{name}@full")
            new_full = sq if full is None else b2 * full + (1 - b2) * sq
            accum[f"{name}@full"] = new_full
            vhat = new_full.copy()
        update = np.divide(g, np.sqrt(vhat, out=vhat), out=vhat)
        lead = g.shape[:-2]  # one RMS clip per trailing matrix slice, or one for a vector
        rms = np.sqrt(_mean((update * update).reshape(lead + (-1,)), -1))
        update /= np.maximum(1.0, rms / _CLIP_THRESHOLD).reshape(lead + (1,) * (g.ndim - len(lead)))
        update *= lr
        p.data = p.data - update
    return params


@dataclass
class TrainLogEntry:
    step: int
    loss: float
    aux_loss: float
    lr: float
    skipped: bool = False
    rollback: bool = False
    expert_load: list[list[float]] = field(default_factory=list)
    dropped_tokens: int = 0

    def to_json(self) -> str:
        """One RFC 8259 JSON line; a non-finite loss, as a rolled-back step has, is null."""
        fields = dict(self.__dict__)
        for key in ("loss", "aux_loss"):
            if not math.isfinite(fields[key]):
                fields[key] = None
        return json.dumps(fields, sort_keys=True, allow_nan=False)


def train_step(
    model: TransformerLM,
    batch: np.ndarray,
    state: AdafactorState,
    lr: float,
    aux_coeff: float = 0.01,
) -> TrainLogEntry:
    """One forward/backward/update on a [B, S] batch of token ids.

    The loss is next-token cross-entropy over the shifted batch plus
    ``aux_coeff`` times the mean load-balancing loss.  A non-finite gradient
    anywhere skips the update entirely: no parameter, accumulator, or step
    counter changes.
    """
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] < 2:
        raise ConfigError(f"batch must be [B, S>=2] token ids, got shape {batch.shape}")
    logits, aux, stats = model.forward(batch[:, :-1])
    ce = T.cross_entropy(logits, batch[:, 1:])
    loss = ce + aux_coeff * aux if stats else ce

    model.zero_grad()
    loss.backward()
    params = model.params()
    grads: dict[str, np.ndarray] = {}
    finite = True
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            finite = False
            break
        grads[name] = g

    entry = TrainLogEntry(
        step=state.step + 1,
        loss=float(loss.data),
        aux_loss=float(aux.data),
        lr=lr,
        expert_load=[s.load_fractions.tolist() for s in stats],
        dropped_tokens=sum(s.dropped_tokens for s in stats),
    )
    if not finite:
        entry.skipped = True
        entry.step = state.step  # nothing advanced
        return entry
    # stats.mean_gate_prob alone would hold the graph up to the MoE layer; free it all
    # before the update's temporaries are allocated
    del logits, aux, ce, loss, stats
    adafactor_step(state, params, grads, lr)
    return entry


class CheckpointManager:
    """Periodic checkpointing plus divergence detection and rollback."""

    def __init__(
        self,
        out_dir: str | Path,
        interval: int = 50,
        divergence_threshold: float = 3.0,
    ):
        if interval < 1:
            raise ConfigError(f"checkpoint interval must be >= 1, got {interval}")
        if not divergence_threshold > 1.0:
            raise ConfigError(f"divergence threshold must exceed 1, got {divergence_threshold}")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.interval = interval
        self.divergence_threshold = divergence_threshold
        self.history: deque[float] = deque(maxlen=_HISTORY_WINDOW)
        self.last_path: Path | None = None
        self.rollbacks = 0

    def save(self, model: TransformerLM, state: AdafactorState, data_seed: int) -> Path:
        path = self.out_dir / "checkpoint_last.ckpt"
        save_checkpoint(
            path,
            model.config,
            model.params(),
            opt_arrays=state.arrays(),
            meta={"step": state.step, "data_seed": data_seed},
        )
        self.last_path = path
        return path

    def observe(self, loss: float) -> bool:
        """Record a loss; True means the run has diverged and needs rollback."""
        if not math.isfinite(loss):
            return self.last_path is not None
        diverged = False
        if self.history:
            diverged = loss > self.divergence_threshold * statistics.median(self.history)
        if not diverged:
            self.history.append(loss)
        return diverged and self.last_path is not None

    def rollback(self, model: TransformerLM, state: AdafactorState) -> int:
        """Restore the last checkpoint into ``model`` and ``state``; returns its data seed."""
        if self.last_path is None:
            raise ConfigError("no checkpoint available to roll back to")
        snap = load_checkpoint(self.last_path)
        restore_params(model.params(), snap.params, self.last_path)
        restored = AdafactorState.from_arrays(snap.opt_arrays)
        state.step = restored.step
        state.accum = restored.accum
        self.rollbacks += 1
        self.history.clear()
        return int(snap.meta["data_seed"])


BatchSource = Callable[[int], Iterator[np.ndarray]]


def _keep_freed_heap() -> None:
    """Make glibc keep freed arrays in the heap for the next train step to reuse.

    By default glibc maps each array above 128 KiB on its own and returns the
    heap top to the kernel once 128 KiB sit free there, so every step's freed
    graph is unmapped and the next step faults the same pages back in.  This
    raises the mmap threshold to glibc's own 64-bit ceiling and the trim
    threshold to twice that, glibc's own ratio.  Only where arrays live moves;
    no arithmetic does.  The setting lasts for the rest of the process.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def train(
    model: TransformerLM,
    batch_source: BatchSource,
    steps: int,
    *,
    seed: int = 0,
    aux_coeff: float = 0.01,
    peak_lr: float = 0.01,
    warmup_steps: int | None = None,
    manager: CheckpointManager | None = None,
    log_path: str | Path | None = None,
) -> list[TrainLogEntry]:
    """Run ``steps`` updates drawing batches from ``batch_source(data_seed)``.

    ``batch_source`` must return a fresh infinite iterator for a given seed;
    a rollback re-creates it with a new derived seed so the replayed steps see
    a different batch order.  Default warmup is 1% of the run, at least 10.
    A ``manager`` writes a checkpoint before the first update, after every
    ``interval``-th and after the last.  If ``10 * steps + 100`` tries (skips
    and rollbacks count) leave updates undone, ConfigError is raised.

    On glibc, ``train`` first sets malloc's mmap threshold to 32 MiB and its
    trim threshold to 64 MiB for the rest of the process, so each step reuses
    the heap the previous step freed instead of faulting it back in; results
    do not change.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if not peak_lr > 0:
        raise ConfigError(f"peak_lr must be > 0, got {peak_lr}")
    if not aux_coeff >= 0:
        raise ConfigError(f"aux_coeff must be >= 0, got {aux_coeff}")
    warmup = warmup_steps if warmup_steps is not None else max(10, steps // 100)
    if warmup < 1:
        raise ConfigError(f"warmup_steps must be >= 1, got {warmup}")
    _keep_freed_heap()
    state = AdafactorState()
    data_seed = substream_seed(seed, "data")
    batches = batch_source(data_seed)
    entries: list[TrainLogEntry] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    tries = 10 * steps + 100  # a run that diverges or skips forever must still end
    try:
        if manager is not None:
            manager.save(model, state, data_seed)
        while state.step < steps:
            if len(entries) == tries:
                raise ConfigError(f"gave up after {tries} tries: {state.step} of {steps} updates done")
            batch = next(batches)
            lr = lr_schedule(state.step + 1, warmup, peak_lr)
            entry = train_step(model, batch, state, lr, aux_coeff)
            if manager is not None and manager.observe(entry.loss):
                old_seed = manager.rollback(model, state)
                data_seed = substream_seed(old_seed, f"reshuffle{manager.rollbacks}")
                batches = batch_source(data_seed)
                entry.rollback = True
                entry.skipped = True
            entries.append(entry)
            if log_fh:
                log_fh.write(entry.to_json() + "\n")
            if manager is not None and not entry.skipped:
                if state.step % manager.interval == 0 or state.step == steps:
                    manager.save(model, state, data_seed)
    finally:
        if log_fh:
            log_fh.close()
    return entries
