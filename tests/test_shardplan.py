"""Partition property, memory/traffic accounting, sharded-vs-reference layer."""

import math

import numpy as np
import pytest

from moelab.model import ModelConfig
from moelab.moe import ConfigError, ExpertFFN, moe_forward
from moelab.shardplan import (
    Mesh,
    PlanningError,
    comm_volume,
    expert_home_column,
    per_device_memory,
    plan,
    simulate_sharded,
    validate,
)
from moelab.tensor import Tensor


def config_for(E, M, H, B, S):
    # n_layers/head fields are irrelevant to planning but must validate
    return ModelConfig(
        n_layers=2,
        d_model=M,
        d_ff=H,
        n_heads=1,
        d_head=M,
        n_experts=E,
        vocab_size=32,
        seq_len=S,
        batch_size=B,
    )


def test_single_device_mesh_owns_everything():
    cfg = config_for(E=4, M=8, H=16, B=2, S=4)
    p = plan(cfg, Mesh(1, 1))
    assert validate(p) == []
    assert p.boxes["expert_weights"][0] == ((0, 4), (0, 8), (0, 16))
    assert p.boxes["activations"][0] == ((0, 2), (0, 4), (0, 8))
    memory = per_device_memory(p)
    assert list(memory) == [0]
    assert memory[0] == (4 * 8 * 16 + 2 * 4 * 8) * 8


def test_two_by_two_mesh_element_assignment():
    cfg = config_for(E=4, M=2, H=8, B=4, S=1)
    mesh = Mesh(2, 2)
    p = plan(cfg, mesh)
    assert validate(p) == []
    for ix in range(2):
        for iy in range(2):
            box = p.boxes["expert_weights"][mesh.device(ix, iy)]
            assert box == ((2 * ix, 2 * ix + 2), (0, 2), (4 * iy, 4 * iy + 4))
    # exhaustive oracle: each of the 64 weight elements exactly once
    counts = np.zeros((4, 2, 8), dtype=int)
    for box in p.boxes["expert_weights"].values():
        counts[tuple(slice(s, e) for s, e in box)] += 1
    assert counts.sum() == 64
    assert (counts == 1).all()
    # 16 weight elements per device
    memory = per_device_memory(p, bytes_per_element=1)
    for dev in range(4):
        e_box = p.boxes["expert_weights"][dev]
        assert math.prod(e - s for s, e in e_box) == 16


def test_large_expert_grid_counts():
    cfg = config_for(E=64, M=8, H=8, B=8, S=2)
    mesh = Mesh(8, 8)
    p = plan(cfg, mesh)
    assert validate(p) == []
    # 8 experts per mesh column, every device holds E*M*H/64 weight elements
    for e in range(64):
        assert expert_home_column(64, 8, e) == e // 8
    expected = 64 * 8 * 8 // 64
    for dev, box in p.boxes["expert_weights"].items():
        assert math.prod(stop - start for start, stop in box) == expected


def test_indivisible_dimensions_name_the_pair():
    with pytest.raises(PlanningError, match="E=3.*X=2"):
        plan(config_for(E=3, M=8, H=8, B=2, S=4), Mesh(2, 1))
    with pytest.raises(PlanningError, match="H=8.*Y=3"):
        plan(config_for(E=4, M=8, H=8, B=2, S=4), Mesh(1, 3))
    with pytest.raises(PlanningError, match="M=10.*Y=3"):
        plan(config_for(E=4, M=10, H=6, B=2, S=4), Mesh(1, 3))


def test_token_level_split_when_batch_does_not_divide():
    cfg = config_for(E=4, M=8, H=8, B=3, S=4)  # B=3, X=2: falls back to 12 tokens
    p = plan(cfg, Mesh(2, 1))
    assert validate(p) == []
    assert p.shapes["activations"] == (12, 8)
    with pytest.raises(PlanningError, match="B\\*S=9"):
        plan(config_for(E=4, M=8, H=8, B=3, S=3), Mesh(2, 1))


def test_tampered_plans_are_caught():
    cfg = config_for(E=4, M=8, H=16, B=4, S=2)
    mesh = Mesh(2, 2)
    p = plan(cfg, mesh)
    duplicated = plan(cfg, mesh)
    duplicated.boxes["expert_weights"][1] = duplicated.boxes["expert_weights"][0]
    assert any("overlap" in v for v in validate(duplicated))
    gapped = plan(cfg, mesh)
    del gapped.boxes["activations"][3]
    assert any("gap" in v for v in validate(gapped))
    assert validate(p) == []


def test_box_arithmetic_path_for_large_tensors():
    cfg = config_for(E=8, M=128, H=2048, B=8, S=128)  # > 1e6 weight elements
    p = plan(cfg, Mesh(4, 2))
    assert validate(p) == []
    broken = plan(cfg, Mesh(4, 2))
    broken.boxes["expert_weights"][0] = broken.boxes["expert_weights"][1]
    assert any("overlap" in v or "tile" in v for v in validate(broken))


def test_out_of_range_box_is_caught_on_large_tensors():
    cfg = config_for(E=8, M=128, H=2048, B=8, S=128)  # > 1e6 weight elements
    broken = plan(cfg, Mesh(4, 2))
    (start, stop), m_span, h_span = broken.boxes["expert_weights"][0]
    # same volume, disjoint from every other box, but past the last expert
    broken.boxes["expert_weights"][0] = ((start + 8, stop + 8), m_span, h_span)
    problems = validate(broken)
    assert any("outside" in v for v in problems)
    assert any("gap" in v for v in problems)


def test_memory_is_balanced_and_conserved():
    cfg = config_for(E=8, M=16, H=32, B=4, S=8)
    p = plan(cfg, Mesh(4, 2))
    memory = per_device_memory(p)
    assert len(set(memory.values())) == 1
    total_elements = 8 * 16 * 32 + 4 * 8 * 16
    assert sum(memory.values()) == total_elements * 8


def test_comm_volume_closed_form():
    cfg = config_for(E=4, M=8, H=8, B=8, S=8)  # 64 tokens
    assert comm_volume(plan(cfg, Mesh(1, 1)), cfg)["dispatch_elements"] == 0.0
    volume = comm_volume(plan(cfg, Mesh(2, 2)), cfg)
    assert volume["dispatch_elements"] == 512.0
    assert volume["combine_elements"] == 512.0


def test_comm_volume_grows_with_mesh_columns():
    cfg = config_for(E=8, M=8, H=8, B=8, S=8)
    volumes = [
        comm_volume(plan(cfg, Mesh(x, 1)), cfg)["dispatch_elements"] for x in (1, 2, 4, 8)
    ]
    assert all(a < b for a, b in zip(volumes, volumes[1:]))


def test_comm_volume_matches_monte_carlo():
    cfg = config_for(E=8, M=8, H=8, B=8, S=8)
    mesh = Mesh(4, 1)
    expected = comm_volume(plan(cfg, mesh), cfg)["dispatch_elements"]
    tokens = cfg.batch_size * cfg.seq_len
    per_column = tokens // mesh.x
    rng = np.random.default_rng(0)
    n_trials = 2000
    crossings = np.empty(n_trials)
    for t in range(n_trials):
        count = 0
        for token in range(tokens):
            token_col = token // per_column
            for _ in range(2):  # two dispatch sends per token
                expert = int(rng.integers(0, cfg.n_experts))
                if expert_home_column(cfg.n_experts, mesh.x, expert) != token_col:
                    count += cfg.d_model
        crossings[t] = count
    sigma = crossings.std(ddof=1) / math.sqrt(n_trials)
    assert abs(crossings.mean() - expected) < 3 * sigma + 1e-9


def _random_layer(rng, E, M, H):
    """A gate and stacked [E, M, H] / [E, H, M] expert weights, drawn expert by expert."""
    gate = rng.normal(scale=0.5, size=(M, E))
    experts_np = [
        (rng.normal(scale=0.5, size=(M, H)), rng.normal(scale=0.5, size=(H, M)))
        for _ in range(E)
    ]
    w_in, w_out = (np.stack(ws) for ws in zip(*experts_np))
    return gate, w_in, w_out


def test_sharded_layer_matches_reference():
    rng = np.random.default_rng(1)
    cases = [
        (1, Mesh(1, 1), 8, 8),
        (2, Mesh(2, 2), 8, 8),
        (4, Mesh(2, 2), 8, 16),
        (4, Mesh(4, 1), 8, 8),
        (4, Mesh(1, 4), 8, 8),
    ]
    for E, mesh, M, H in cases:
        for _ in range(3):
            tokens = rng.normal(size=(16, M))
            gate, w_in, w_out = _random_layer(rng, E, M, H)
            reference, _ = moe_forward(Tensor(tokens), [ExpertFFN(Tensor(w_in), Tensor(w_out))], Tensor(gate))
            sharded = simulate_sharded(tokens, gate, w_in, w_out, mesh)
            assert np.max(np.abs(sharded - reference.data)) < 1e-10, (E, mesh)


def test_divisible_sweep_partition_property():
    for E in (2, 4, 8):
        for M in (8, 16):
            for H in (16, 32):
                for mesh in (Mesh(1, 1), Mesh(2, 2), Mesh(2, 4), Mesh(E, 1)):
                    cfg = config_for(E=E, M=M, H=H, B=4, S=8)
                    assert validate(plan(cfg, mesh)) == [], (E, M, H, mesh)


def test_plan_serializes_to_json():
    cfg = config_for(E=2, M=8, H=8, B=2, S=4)
    blob = plan(cfg, Mesh(2, 1)).to_json()
    assert blob["mesh"] == {"x": 2, "y": 1}
    assert blob["tensors"]["expert_weights"]["shape"] == [2, 8, 8]
    assert blob["tensors"]["expert_weights"]["devices"]["0"] == [[0, 1], [0, 8], [0, 8]]


def test_mesh_validation():
    with pytest.raises(ConfigError):
        Mesh(0, 1)
    assert Mesh(3, 2).n_devices == 6


def test_simulator_refuses_what_the_mesh_cannot_split():
    rng = np.random.default_rng(2)
    gate, w_in, w_out = _random_layer(rng, 4, 8, 6)
    tokens = rng.normal(size=(16, 8))
    with pytest.raises(PlanningError, match="E=4"):
        simulate_sharded(tokens, gate, w_in, w_out, Mesh(3, 1))
    with pytest.raises(PlanningError, match="H=6"):
        simulate_sharded(tokens, gate, w_in, w_out, Mesh(1, 4))
