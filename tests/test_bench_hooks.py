"""The traced benchmark's hooks still fit the program.

``perfbench/run.py --trace 1`` wraps moelab's layers from outside: it replaces
module globals such as ``trainer.save_checkpoint`` and ``trainer.train_step``,
patches ``moe.ExpertFFN.__call__``, and times ``moe_forward`` on a list of
``ExpertFFN``.  These tests install and undo those patches, run a short
training under them, and run the MoE-in-E curve once, so a change that would
break a traced benchmark run fails here.  perfbench/ is only read.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import wl_audit
    import wl_eval
    import wl_train
    from tracer import Tracer
finally:
    sys.path.remove(str(PERFBENCH))

from moelab import trainer  # noqa: E402
from moelab.model import ModelConfig, build  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("workload", [wl_train, wl_eval, wl_audit], ids=lambda m: m.NAME)
def test_hooks_install_and_undo(workload):
    tracer = Tracer()
    workload.install(tracer)
    patched = list(tracer._undo)
    tracer.unpatch()
    assert patched
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, f"{owner}.{attr} was not restored"


def test_traced_training_and_moe_curve_reach_every_hook(tmp_path):
    config = ModelConfig(
        n_layers=2, d_model=16, d_ff=32, n_heads=2, d_head=8, n_experts=4, vocab_size=16, seq_len=16
    )

    def source(seed):
        rng = np.random.default_rng(seed)
        while True:
            yield rng.integers(0, 16, size=(4, 9))

    tracer = Tracer()
    wl_train.install(tracer)
    try:
        manager = trainer.CheckpointManager(tmp_path, interval=1)
        trainer.train(build(config, seed=0), source, steps=2, manager=manager)
        curve = wl_train.moe_curve()
    finally:
        tracer.unpatch()
    names = {span[0] for span in tracer.spans}
    for name in (
        "model.forward",
        "model.attention",
        "model.geglu",
        "moe.forward",
        "tensor.backward",
        "trainer.train_step",
        "trainer.adafactor",
        "checkpoint.save",
    ):
        assert name in names, name
    assert tracer.counts["checkpoint.saves"] == 3  # before step 1, after steps 1 and 2
    assert tracer.counts["moe.expert_rows"] > 0
    assert set(curve) == {f"moe.layer_ms.e{e}" for e in (4, 16, 64)}
    assert all(ms > 0 for ms in curve.values())
