"""Optimizer hand traces, checkpoint round trips, divergence rollback."""

import dataclasses
import errno
import gc
import hashlib
import json
import math
import multiprocessing
import platform
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _memory import traced_peak
from moelab import trainer
from moelab.checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from moelab.costs import co2_estimate, energy_estimate
from moelab.data import keep_mask
from moelab.model import ModelConfig, build
from moelab.moe import ConfigError, expert_capacity
from moelab.tensor import Tensor
from moelab.trainer import (
    AdafactorState,
    CheckpointManager,
    adafactor_step,
    beta2_hat,
    lr_schedule,
    train,
    train_step,
)
from moelab.util import params_checksum


def tiny_config(**overrides):
    base = dict(
        n_layers=2,
        d_model=16,
        d_ff=32,
        n_heads=2,
        d_head=8,
        n_experts=2,
        vocab_size=16,
        seq_len=16,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_batch(rng, b=4, s=9, vocab=16):
    return rng.integers(0, vocab, size=(b, s))


# ---------------------------------------------------------------- schedule


def test_lr_holds_peak_through_warmup_then_decays():
    assert lr_schedule(1, 10_000) == 0.01
    assert lr_schedule(5_000, 10_000) == 0.01
    assert lr_schedule(10_000, 10_000) == 0.01
    assert lr_schedule(40_000, 10_000) == pytest.approx(0.005, abs=1e-15)
    assert lr_schedule(90_000, 10_000) == pytest.approx(0.01 / 3.0, abs=1e-15)


def test_lr_rejects_nonpositive_step():
    with pytest.raises(ConfigError):
        lr_schedule(0, 100)
    with pytest.raises(ConfigError):
        lr_schedule(10, 0)


def test_beta2_starts_at_zero_and_rises():
    assert beta2_hat(1) == 0.0
    assert beta2_hat(2) == pytest.approx(1.0 - 2.0**-0.8, abs=1e-15)
    values = [beta2_hat(t) for t in (1, 2, 5, 100, 10_000)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


# ---------------------------------------------------------------- adafactor


def test_first_step_on_scalar_moves_by_lr():
    # t=1 decay is 0, so vhat = g*g and the update is g/|g| = 1, rms 1.
    p = Tensor(np.array([2.0]), requires_grad=True)
    state = AdafactorState()
    adafactor_step(state, {"w": p}, {"w": np.array([1.0])}, lr=0.1)
    assert state.step == 1
    assert p.data[0] == pytest.approx(2.0 - 0.1, abs=1e-9)


def test_zero_gradient_leaves_params_bitwise_unchanged():
    p = Tensor(np.array([1.5, -0.25, 3.0]), requires_grad=True)
    before = p.data.copy()
    state = AdafactorState()
    for _ in range(3):
        adafactor_step(state, {"w": p}, {"w": np.zeros(3)}, lr=0.5)
    assert np.array_equal(p.data, before)
    assert state.step == 3


def test_uniform_matrix_gradient_gives_unit_update():
    # g = c everywhere makes vhat = c^2 everywhere, so the raw update is 1.
    p = Tensor(np.zeros((3, 4)), requires_grad=True)
    state = AdafactorState()
    adafactor_step(state, {"w": p}, {"w": np.full((3, 4), 0.5)}, lr=0.01)
    assert np.allclose(p.data, -0.01, atol=1e-9)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 6),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(3, 5),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_stacked_update_equals_the_per_matrix_rule_on_each_slice(n_experts, rows, cols, steps, scale, seed):
    rng = np.random.default_rng(seed)
    init = rng.normal(size=(n_experts, rows, cols))
    stacked = {"w": Tensor(init.copy(), requires_grad=True)}
    slices = {f"w{e}": Tensor(init[e].copy(), requires_grad=True) for e in range(n_experts)}
    state_stacked, state_slices = AdafactorState(), AdafactorState()
    for _ in range(steps):
        g = scale * rng.normal(size=init.shape) * rng.uniform(0.0, 3.0, size=(n_experts, 1, 1))
        adafactor_step(state_stacked, stacked, {"w": g}, lr=0.05)
        adafactor_step(state_slices, slices, {f"w{e}": g[e] for e in range(n_experts)}, lr=0.05)
        for e in range(n_experts):
            assert stacked["w"].data[e].tobytes() == slices[f"w{e}"].data.tobytes()
            for kind in ("row", "col"):
                want = state_slices.accum[f"w{e}@{kind}"]
                assert state_stacked.accum[f"w@{kind}"][e].tobytes() == want.tobytes()


def test_factored_estimate_is_exact_for_rank_one():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 2.0, size=6)
    b = rng.uniform(0.5, 2.0, size=5)
    g = np.outer(a, b)
    p = Tensor(np.zeros((6, 5)), requires_grad=True)
    state = AdafactorState()
    adafactor_step(state, {"w": p}, {"w": g}, lr=1.0)
    # vhat reconstructs g^2 exactly, so every update entry is sign(g) = 1
    assert np.allclose(p.data, -1.0, atol=1e-6)


def test_update_rms_is_clipped_to_one():
    p = Tensor(np.zeros(2), requires_grad=True)
    state = AdafactorState()
    adafactor_step(state, {"w": p}, {"w": np.array([1.0, 1.0])}, lr=1.0)
    start = p.data.copy()
    # accumulator remembers small gradients; a 10x spike would exceed rms 1
    adafactor_step(state, {"w": p}, {"w": np.array([10.0, 10.0])}, lr=1.0)
    delta = p.data - start
    rms = math.sqrt(float((delta * delta).mean()))
    assert rms == pytest.approx(1.0, abs=1e-9)


def test_second_step_uses_decayed_accumulator():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdafactorState()
    adafactor_step(state, {"w": p}, {"w": np.array([2.0])}, lr=1.0)
    # v1 = 4; b2(2) = 1 - 2^-0.8; v2 = b2*4 + (1-b2)*1
    b2 = 1.0 - 2.0**-0.8
    v2 = b2 * 4.0 + (1.0 - b2) * 1.0
    expected = min(1.0, 1.0 / math.sqrt(v2))
    before = p.data.copy()
    adafactor_step(state, {"w": p}, {"w": np.array([1.0])}, lr=1.0)
    assert (before - p.data)[0] == pytest.approx(expected, rel=1e-9)


def test_gradient_shape_mismatch_is_rejected():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ConfigError):
        adafactor_step(AdafactorState(), {"w": p}, {"w": np.zeros(3)}, lr=0.1)


def test_state_arrays_round_trip():
    p = Tensor(np.zeros((3, 4)), requires_grad=True)
    q = Tensor(np.zeros(5), requires_grad=True)
    state = AdafactorState()
    rng = np.random.default_rng(0)
    for _ in range(4):
        adafactor_step(
            state,
            {"m": p, "v": q},
            {"m": rng.normal(size=(3, 4)), "v": rng.normal(size=5)},
            lr=0.01,
        )
    back = AdafactorState.from_arrays(state.arrays())
    assert back.step == state.step
    assert set(back.accum) == {"m@row", "m@col", "v@full"}
    for key, arr in state.accum.items():
        assert np.array_equal(back.accum[key], arr)


def _former_adafactor_step(state, params, grads, lr):
    """The update rule as it was with ``ndarray.mean``, kept as the reference."""
    state.step += 1
    b2 = beta2_hat(state.step)
    for name, p in params.items():
        g = grads[name]
        sq = g * g + 1e-30
        accum = state.accum
        if g.ndim >= 2:
            row = accum.get(f"{name}@row")
            col = accum.get(f"{name}@col")
            new_row = sq.mean(axis=-1) if row is None else b2 * row + (1 - b2) * sq.mean(axis=-1)
            new_col = sq.mean(axis=-2) if col is None else b2 * col + (1 - b2) * sq.mean(axis=-2)
            accum[f"{name}@row"], accum[f"{name}@col"] = new_row, new_col
            vhat = np.multiply(new_row[..., :, None], new_col[..., None, :], out=sq)
            vhat /= new_row.mean(axis=-1)[..., None, None]
        else:
            full = accum.get(f"{name}@full")
            new_full = sq if full is None else b2 * full + (1 - b2) * sq
            accum[f"{name}@full"] = new_full
            vhat = new_full.copy()
        update = np.divide(g, np.sqrt(vhat, out=vhat), out=vhat)
        lead = g.shape[:-2]
        rms = np.sqrt((update * update).reshape(lead + (-1,)).mean(axis=-1))
        update /= np.maximum(1.0, rms).reshape(lead + (1,) * (g.ndim - len(lead)))
        update *= lr
        p.data = p.data - update
    return params


@pytest.mark.parametrize("shape", [(7,), (5, 9), (4, 6, 11)], ids=["vector", "matrix", "stacked"])
def test_update_is_bit_equal_to_the_former_mean_rule(shape):
    rng = np.random.default_rng(len(shape))
    init = rng.normal(size=shape)
    new, old = Tensor(init.copy(), requires_grad=True), Tensor(init.copy(), requires_grad=True)
    state_new, state_old = AdafactorState(), AdafactorState()
    for _ in range(4):
        g = rng.normal(size=shape) * rng.uniform(0.01, 100.0)
        adafactor_step(state_new, {"w": new}, {"w": g}, lr=0.05)
        _former_adafactor_step(state_old, {"w": old}, {"w": g.copy()}, lr=0.05)
        assert new.data.tobytes() == old.data.tobytes()
        assert state_new.accum.keys() == state_old.accum.keys()
        for key, arr in state_old.accum.items():
            assert state_new.accum[key].tobytes() == arr.tobytes()


# ---------------------------------------------------------------- train_step


def test_train_step_reduces_loss_on_repeated_batch():
    model = build(tiny_config(), seed=3)
    rng = np.random.default_rng(5)
    batch = tiny_batch(rng)
    state = AdafactorState()
    first = train_step(model, batch, state, lr=0.01)
    for _ in range(29):
        last = train_step(model, batch, state, lr=0.01)
    assert last.loss < first.loss
    assert state.step == 30
    assert not last.skipped
    assert len(last.expert_load) == 1  # one routed layer in a 2-layer stack
    assert len(last.expert_load[0]) == 2


def test_train_step_skips_on_nonfinite_gradient():
    model = build(tiny_config(), seed=3)
    model.params()["embed"].data[0, 0] = np.nan
    checksum = params_checksum(model.params())
    state = AdafactorState()
    rng = np.random.default_rng(5)
    entry = train_step(model, tiny_batch(rng), state, lr=0.01)
    assert entry.skipped
    assert entry.step == 0
    assert state.step == 0
    assert state.accum == {}
    assert params_checksum(model.params()) == checksum


def test_train_step_frees_the_graph_before_the_update(monkeypatch):
    # a graph still alive during the update would add its arrays to the optimizer's temporaries
    update = trainer.adafactor_step
    alive = []

    def watched_update(*args):
        alive.append(sum(isinstance(obj, Tensor) and bool(obj._parents) for obj in gc.get_objects()))
        return update(*args)

    monkeypatch.setattr(trainer, "adafactor_step", watched_update)
    model = build(tiny_config(), seed=3)
    gc.collect()
    train_step(model, tiny_batch(np.random.default_rng(5)), AdafactorState(), lr=0.01)
    assert alive == [0]


def test_a_steady_train_moe32_step_peaks_at_eleven_megabytes_or_less():
    # 13.7 MB while the GELU backward chained its temporaries and the loss kept its exponentials
    config = ModelConfig(
        n_layers=2, d_model=32, d_ff=64, n_heads=2, d_head=16, n_experts=32, seq_len=64, batch_size=8
    )
    batches = np.random.default_rng(0).integers(0, config.vocab_size, size=(4, 8, 65))

    def three_steps():
        model, state = build(config, seed=0), AdafactorState()
        for batch in batches[:3]:
            train_step(model, batch, state, lr=0.01)
        return model, state

    _, peak = traced_peak(lambda ready: train_step(ready[0], batches[3], ready[1], lr=0.01), three_steps)
    assert peak <= 11e6, peak


def test_train_step_rejects_short_batch():
    model = build(tiny_config(), seed=3)
    with pytest.raises(ConfigError):
        train_step(model, np.array([[1]]), AdafactorState(), lr=0.01)


def test_log_entry_serializes_to_json():
    model = build(tiny_config(), seed=3)
    rng = np.random.default_rng(5)
    entry = train_step(model, tiny_batch(rng), AdafactorState(), lr=0.01)
    decoded = json.loads(entry.to_json())
    for key in ("step", "loss", "aux_loss", "lr", "skipped", "rollback"):
        assert key in decoded


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    config = tiny_config()
    model = build(config, seed=11)
    state = AdafactorState()
    rng = np.random.default_rng(1)
    for _ in range(2):
        train_step(model, tiny_batch(rng), state, lr=0.01)
    path = tmp_path / "snap.ckpt"
    save_checkpoint(
        path,
        config,
        model.params(),
        opt_arrays=state.arrays(),
        meta={"step": 2, "data_seed": 99},
    )
    snap = load_checkpoint(path)
    assert dataclasses.asdict(snap.config) == dataclasses.asdict(config)
    assert snap.meta == {"step": 2, "data_seed": 99}
    params = model.params()
    assert set(snap.params) == set(params)
    for name, arr in snap.params.items():
        assert np.array_equal(arr, params[name].data), name
    for key, arr in state.arrays().items():
        assert np.array_equal(snap.opt_arrays[key], arr), key


def test_checkpoint_bytes_are_deterministic(tmp_path):
    config = tiny_config()
    model = build(config, seed=11)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, config, model.params(), meta={"step": 0})
    save_checkpoint(b, config, model.params(), meta={"step": 0})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bytes_equal_the_copying_writer(tmp_path):
    # the sha256 of the file that writing each array's tobytes() copy produced for these inputs
    config = tiny_config()
    opt_arrays = {"step": np.array([3]), "embed@row": np.arange(6.0).reshape(2, 3).T}  # a strided view
    path = tmp_path / "snap.ckpt"
    save_checkpoint(path, config, build(config, seed=11).params(), opt_arrays=opt_arrays, meta={"step": 3})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "a0d766f0c6147a2ae8f6bc02a53771e2c88ab3865080a3daf2f7d0192ee61854"


def test_manager_checkpoint_bytes_after_three_steps_are_pinned(tmp_path):
    # the optimizer state goes through AdafactorState.arrays on save and from_arrays on rollback;
    # the digest is the file's when the state was kept nested by parameter and kind
    model = build(tiny_config(), seed=12)
    state = AdafactorState()
    rng = np.random.default_rng(13)
    for _ in range(3):
        train_step(model, tiny_batch(rng), state, lr=0.01)
    manager = CheckpointManager(tmp_path)
    path = manager.save(model, state, data_seed=14)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e377337ebb455c3e13529ed19aebd6ce956923cd2f99c017a24d4213ad9b7726"  # as with nested state
    train_step(model, tiny_batch(rng), state, lr=0.01)
    assert manager.rollback(model, state) == 14
    assert hashlib.sha256(manager.save(model, state, data_seed=14).read_bytes()).hexdigest() == digest


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    config = tiny_config()
    model = build(config, seed=11)
    path = tmp_path / "snap.ckpt"
    save_checkpoint(path, config, model.params())
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_a_flipped_payload_byte(tmp_path):
    config = tiny_config()
    path = tmp_path / "snap.ckpt"
    save_checkpoint(path, config, build(config, seed=11).params())
    data = bytearray(path.read_bytes())
    data[-100] ^= 0x01  # a mantissa bit of the last array; the file still parses
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="sha256"):
        load_checkpoint(path)


def test_checkpoint_of_format_version_1_is_refused_by_name(tmp_path):
    config = tiny_config()
    path = tmp_path / "snap.ckpt"
    save_checkpoint(path, config, build(config, seed=11).params())
    data = bytearray(path.read_bytes())
    data[8:12] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="version 1 .*version 2"):
        load_checkpoint(path)


def test_failed_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    config = tiny_config()
    model = build(config, seed=12)
    path = tmp_path / "checkpoint_last.ckpt"
    save_checkpoint(path, config, model.params(), meta={"step": 5})
    before = path.read_bytes()
    real_open = open
    writes = []

    class FullDisk:
        """A file whose fourth write (the first array) finds the disk full."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, data):
            writes.append(len(data))
            if len(writes) == 4:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(
        "moelab.checkpoint.open", lambda *a, **k: FullDisk(real_open(*a, **k)), raising=False
    )
    model.params()["embed"].data += 1.0
    with pytest.raises(OSError):
        save_checkpoint(path, config, model.params(), meta={"step": 10})
    monkeypatch.undo()
    assert len(writes) == 4
    assert path.read_bytes() == before
    assert load_checkpoint(path).meta == {"step": 5}
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint_last.ckpt"]


# ------------------------------------------------------- divergence policy


def test_observe_flags_loss_above_three_times_median(tmp_path):
    manager = CheckpointManager(tmp_path, interval=10)
    model = build(tiny_config(), seed=0)
    manager.save(model, AdafactorState(), data_seed=7)
    assert not manager.observe(2.0)
    assert not manager.observe(2.0)
    assert not manager.observe(2.0)
    assert not manager.observe(5.9)  # below 3 * median(2, 2, 2)
    assert manager.observe(7.0)


def test_observe_flags_nan_and_inf(tmp_path):
    manager = CheckpointManager(tmp_path, interval=10)
    model = build(tiny_config(), seed=0)
    manager.save(model, AdafactorState(), data_seed=7)
    assert manager.observe(float("nan"))
    assert manager.observe(float("inf"))


def test_observe_never_fires_without_a_checkpoint(tmp_path):
    manager = CheckpointManager(tmp_path, interval=10)
    assert not manager.observe(float("nan"))


def test_rollback_restores_params_and_state_bitwise(tmp_path):
    config = tiny_config()
    model = build(config, seed=4)
    state = AdafactorState()
    rng = np.random.default_rng(2)
    for _ in range(3):
        train_step(model, tiny_batch(rng), state, lr=0.01)
    manager = CheckpointManager(tmp_path, interval=10)
    manager.save(model, state, data_seed=123)
    saved_checksum = params_checksum(model.params())
    saved_arrays = {k: v.copy() for k, v in state.arrays().items()}

    for _ in range(4):
        train_step(model, tiny_batch(rng), state, lr=0.05)
    assert params_checksum(model.params()) != saved_checksum

    seed = manager.rollback(model, state)
    assert seed == 123
    assert manager.rollbacks == 1
    assert params_checksum(model.params()) == saved_checksum
    assert state.step == 3
    for key, arr in state.arrays().items():
        assert np.array_equal(arr, saved_arrays[key]), key


def test_rollback_without_checkpoint_raises(tmp_path):
    manager = CheckpointManager(tmp_path, interval=10)
    with pytest.raises(ConfigError):
        manager.rollback(build(tiny_config(), seed=0), AdafactorState())


# ------------------------------------------------------------- train loop


def _repeat_source(vocab=16, b=4, s=9):
    def source(seed):
        rng = np.random.default_rng(seed)
        while True:
            yield rng.integers(0, vocab, size=(b, s))

    return source


def test_train_runs_and_logs(tmp_path):
    model = build(tiny_config(), seed=8)
    log = tmp_path / "train.jsonl"
    entries = train(
        model,
        _repeat_source(),
        steps=12,
        seed=1,
        warmup_steps=5,
        log_path=log,
    )
    assert len(entries) == 12
    assert all(not e.skipped for e in entries)
    assert entries[0].lr == 0.01
    assert entries[-1].lr == pytest.approx(0.01 * math.sqrt(5 / 12), abs=1e-12)
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 12
    assert json.loads(lines[-1])["step"] == 12


def test_train_is_bit_reproducible(tmp_path):
    checksums = []
    for _ in range(2):
        model = build(tiny_config(), seed=8)
        train(model, _repeat_source(), steps=25, seed=1, warmup_steps=5)
        checksums.append(params_checksum(model.params()))
    assert checksums[0] == checksums[1]


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_train_recovers_from_injected_nan(tmp_path):
    model = build(tiny_config(), seed=8)
    manager = CheckpointManager(tmp_path, interval=5)
    poisoned = {"done": False}
    inner = _repeat_source()

    def source(seed):
        for i, batch in enumerate(inner(seed)):
            if i == 5 and not poisoned["done"]:
                poisoned["done"] = True
                model.params()["embed"].data[0, 0] = np.nan
            yield batch

    log = tmp_path / "train_log.jsonl"
    entries = train(model, source, steps=10, seed=1, warmup_steps=5, manager=manager, log_path=log)
    assert manager.rollbacks == 1
    assert sum(e.rollback for e in entries) == 1
    assert sum(not e.skipped for e in entries) >= 10
    for arr in (p.data for p in model.params().values()):
        assert np.isfinite(arr).all()
    # the rolled-back entry reset progress to the step-0 checkpoint
    final = load_checkpoint(manager.last_path)
    assert final.meta["step"] == 10
    # the log stays strict JSON: the rolled-back step's NaN loss is written as null
    logged = [json.loads(line, parse_constant=_refuse_constant) for line in log.read_text().splitlines()]
    assert len(logged) == len(entries)
    assert [e["loss"] for e in logged if e["rollback"]] == [None]


@pytest.mark.parametrize("steps, written", [(10, [0, 5, 10]), (12, [0, 5, 10, 12])])
def test_train_writes_each_checkpoint_once(tmp_path, monkeypatch, steps, written):
    seen = []

    def counting_save(path, config, params, opt_arrays=None, meta=None):
        seen.append(meta["step"])
        save_checkpoint(path, config, params, opt_arrays=opt_arrays, meta=meta)

    monkeypatch.setattr(trainer, "save_checkpoint", counting_save)
    manager = CheckpointManager(tmp_path, interval=5)
    train(build(tiny_config(), seed=8), _repeat_source(), steps=steps, seed=1, warmup_steps=5, manager=manager)
    assert manager.rollbacks == 0
    assert seen == written


def test_train_raises_when_its_tries_run_out(tmp_path):
    # at this learning rate every update diverges and is rolled back to step 0
    manager = CheckpointManager(tmp_path, interval=5)
    with pytest.raises(ConfigError, match="0 of 20 updates"):
        train(build(tiny_config(), seed=8), _repeat_source(), steps=20, seed=1, peak_lr=100, manager=manager)
    assert manager.rollbacks == 150
    assert load_checkpoint(manager.last_path).meta["step"] == 0


# train-moe32 geometry: its arrays are larger than glibc's default 128 KiB mmap threshold
_MOE32 = dict(n_layers=2, d_model=32, d_ff=64, n_heads=2, d_head=16, n_experts=32, seq_len=64, batch_size=8)


def _moe32_checksum(steps, on_request=lambda: None):
    model = build(ModelConfig(**_MOE32), seed=4)

    def source(seed):
        rng = np.random.default_rng(seed)
        while True:
            on_request()
            yield rng.integers(0, model.config.vocab_size, size=(_MOE32["batch_size"], _MOE32["seq_len"] + 1))

    train(model, source, steps=steps, seed=2)
    return params_checksum(model.params())


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds train sets are glibc's")
def test_steady_train_steps_reuse_their_freed_heap():
    import resource

    faults = []

    def read():
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    _moe32_checksum(30, on_request=read)
    read()  # the end of step 30
    per_step = (faults[30] - faults[10]) / 20
    assert per_step < 50, f"{per_step:.0f} minor page faults per steady-state step"


def test_train_at_heap_scale_gives_the_same_params_in_a_fresh_process():
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        fresh = pool.submit(_moe32_checksum, 10).result(timeout=600)
    assert _moe32_checksum(10) == fresh


def test_train_rejects_bad_step_count():
    with pytest.raises(ConfigError):
        train(build(tiny_config(), seed=0), _repeat_source(), steps=0)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: keep_mask(np.array([0.5]), NAN, np.random.default_rng(0)),
        lambda tmp: keep_mask(np.array([0.5, NAN]), 2.0, np.random.default_rng(0)),
        lambda tmp: expert_capacity(10, 4, NAN),
        lambda tmp: CheckpointManager(tmp, divergence_threshold=NAN),
        lambda tmp: energy_estimate(8, 300.0, 10.0, pue=NAN),
        lambda tmp: energy_estimate(8, NAN, 10.0, pue=1.1),
        lambda tmp: co2_estimate(NAN),
    ],
    ids=["keep-alpha", "keep-score", "capacity-factor", "divergence-threshold", "pue", "watts", "co2-mwh"],
)
def test_nan_library_setting_is_config_error(tmp_path, call):
    with pytest.raises(ConfigError):
        call(tmp_path)
