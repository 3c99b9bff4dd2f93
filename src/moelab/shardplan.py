"""2D mesh partition planner: expert weights over (E, H), activations over (B, M).

The planner assigns contiguous index boxes to an X-by-Y device mesh with no
element stored twice: expert weights [E, M, H] split E across mesh columns
and H across mesh rows, activations [B, S, M] split B across columns and M
across rows (falling back to a flat token split when B alone does not
divide).  Expert e lives in mesh column e // (E // X) in every routed layer.
The communication model prices the dispatch/combine all-to-all under uniform
routing, and a sequential simulator checks that per-device partial products
reproduce the unsharded layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .model import ModelConfig
from .moe import ConfigError, ExpertFFN, moe_forward
from .tensor import Tensor

__all__ = [
    "Mesh",
    "ShardPlan",
    "PlanningError",
    "plan",
    "validate",
    "comm_volume",
    "per_device_memory",
    "expert_home_column",
    "simulate_sharded",
]

Box = tuple[tuple[int, int], ...]  # per-axis [start, stop)


class PlanningError(ConfigError):
    """Raised when a tensor dimension cannot be split across the mesh."""


@dataclass(frozen=True)
class Mesh:
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x < 1 or self.y < 1:
            raise ConfigError(f"mesh axes must be >= 1, got ({self.x}, {self.y})")

    @property
    def n_devices(self) -> int:
        return self.x * self.y

    def device(self, ix: int, iy: int) -> int:
        return ix * self.y + iy

    def coords(self, device: int) -> tuple[int, int]:
        return divmod(device, self.y)


@dataclass
class ShardPlan:
    mesh: Mesh
    shapes: dict[str, tuple[int, ...]]
    boxes: dict[str, dict[int, Box]]

    def to_json(self) -> dict:
        return {
            "mesh": {"x": self.mesh.x, "y": self.mesh.y},
            "tensors": {
                name: {
                    "shape": list(self.shapes[name]),
                    "devices": {
                        str(dev): [list(span) for span in box]
                        for dev, box in sorted(self.boxes[name].items())
                    },
                }
                for name in sorted(self.shapes)
            },
        }


def _split(extent: int, parts: int, index: int) -> tuple[int, int]:
    size = extent // parts
    return (index * size, (index + 1) * size)


def expert_home_column(n_experts: int, mesh_x: int, expert: int) -> int:
    """Mesh column owning this expert index, identical in every routed layer."""
    return expert // (n_experts // mesh_x)


def plan(config: ModelConfig, mesh: Mesh) -> ShardPlan:
    """Deterministic contiguous assignment, lowest index to lowest coordinate."""
    E, M, H = config.n_experts, config.d_model, config.d_ff
    B, S = config.batch_size, config.seq_len
    if E % mesh.x:
        raise PlanningError(f"experts E={E} not divisible by mesh X={mesh.x}")
    if H % mesh.y:
        raise PlanningError(f"hidden H={H} not divisible by mesh Y={mesh.y}")
    if M % mesh.y:
        raise PlanningError(f"model dim M={M} not divisible by mesh Y={mesh.y}")

    shapes: dict[str, tuple[int, ...]] = {"expert_weights": (E, M, H)}
    boxes: dict[str, dict[int, Box]] = {"expert_weights": {}}
    if B % mesh.x == 0:
        shapes["activations"] = (B, S, M)
        token_axis = ("batch", B)
    elif (B * S) % mesh.x == 0:
        # batch alone does not divide; fall back to splitting the flat tokens
        shapes["activations"] = (B * S, M)
        token_axis = ("token", B * S)
    else:
        raise PlanningError(f"tokens B*S={B * S} not divisible by mesh X={mesh.x}")
    boxes["activations"] = {}

    for ix in range(mesh.x):
        for iy in range(mesh.y):
            dev = mesh.device(ix, iy)
            boxes["expert_weights"][dev] = (
                _split(E, mesh.x, ix),
                (0, M),
                _split(H, mesh.y, iy),
            )
            if token_axis[0] == "batch":
                boxes["activations"][dev] = (
                    _split(B, mesh.x, ix),
                    (0, S),
                    _split(M, mesh.y, iy),
                )
            else:
                boxes["activations"][dev] = (
                    _split(B * S, mesh.x, ix),
                    _split(M, mesh.y, iy),
                )
    return ShardPlan(mesh=mesh, shapes=shapes, boxes=boxes)


def _box_volume(box: Box) -> int:
    return math.prod(stop - start for start, stop in box)


def _boxes_overlap(a: Box, b: Box) -> bool:
    return all(sa < eb and sb < ea for (sa, ea), (sb, eb) in zip(a, b))


def validate(plan_: ShardPlan) -> list[str]:
    """Partition-property check; empty list means every tensor tiles exactly."""
    violations: list[str] = []
    for name, shape in plan_.shapes.items():
        device_boxes = plan_.boxes.get(name, {})
        total = math.prod(shape)
        if total <= 1_000_000:
            counts = np.zeros(shape, dtype=np.int32)
            for box in device_boxes.values():
                counts[tuple(slice(s, e) for s, e in box)] += 1
            if (counts > 1).any():
                where = tuple(int(i) for i in np.argwhere(counts > 1)[0])
                violations.append(f"{name}: overlap at index {where}")
            if (counts == 0).any():
                where = tuple(int(i) for i in np.argwhere(counts == 0)[0])
                violations.append(f"{name}: gap at index {where}")
        else:
            boxes = list(device_boxes.values())
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    if _boxes_overlap(boxes[i], boxes[j]):
                        violations.append(f"{name}: overlapping boxes {boxes[i]} and {boxes[j]}")
            if sum(_box_volume(b) for b in boxes) != total:
                violations.append(f"{name}: box volumes do not tile the {shape} index space")
    return violations


def comm_volume(plan_: ShardPlan, config: ModelConfig) -> dict:
    """Expected all-to-all element counts under uniform routing.

    Each token ships its M-vector to two expert home columns and receives M
    back; a transfer is free when the expert column matches the token's.
    """
    tokens = config.batch_size * config.seq_len
    M = config.d_model
    dispatch = 2.0 * tokens * M * (1.0 - 1.0 / plan_.mesh.x)
    return {"dispatch_elements": dispatch, "combine_elements": dispatch}


def per_device_memory(plan_: ShardPlan, bytes_per_element: int = 8) -> dict[int, int]:
    out: dict[int, int] = {dev: 0 for dev in range(plan_.mesh.n_devices)}
    for name in plan_.shapes:
        for dev, box in plan_.boxes[name].items():
            out[dev] = out.get(dev, 0) + _box_volume(box) * bytes_per_element
    return out


# ------------------------------------------------------------- simulation


def simulate_sharded(
    tokens: np.ndarray,
    gate_weights: np.ndarray,
    expert_weights: Sequence[tuple[np.ndarray, np.ndarray]],
    mesh: Mesh,
    capacity_factor: float = 1.25,
) -> np.ndarray:
    """Run one MoE layer with H split across mesh rows, summing partials.

    Routing is ``moe_forward``'s own; only the expert matmuls are sharded,
    each expert summing the outputs of its H slices over the mesh rows.
    Output should match the unsharded layer to ~1e-10.
    """
    E = len(expert_weights)
    H = expert_weights[0][0].shape[1]
    if E % mesh.x:
        raise PlanningError(f"experts E={E} not divisible by mesh X={mesh.x}")
    if H % mesh.y:
        raise PlanningError(f"hidden H={H} not divisible by mesh Y={mesh.y}")

    def row_sharded(w_in: np.ndarray, w_out: np.ndarray):
        spans = [_split(H, mesh.y, iy) for iy in range(mesh.y)]
        shards = [ExpertFFN(Tensor(w_in[:, lo:hi]), Tensor(w_out[lo:hi])) for lo, hi in spans]
        return lambda x: sum((shard(x) for shard in shards[1:]), shards[0](x))

    experts = [row_sharded(w_in, w_out) for w_in, w_out in expert_weights]
    out, _ = moe_forward(Tensor(tokens), experts, Tensor(gate_weights), capacity_factor)
    return out.data
