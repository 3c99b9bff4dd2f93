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
from dataclasses import dataclass

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


def expert_home_column(n_experts: int, mesh_x: int, expert: int) -> int:
    """Mesh column owning this expert index, identical in every routed layer."""
    return expert // (n_experts // mesh_x)


def _partition(shape: tuple[int, ...], mesh: Mesh, col_name: str, row_name: str) -> dict[int, Box]:
    """Each device's box: axis 0 split over mesh columns, the last axis over rows.

    The one divisibility rule: an axis the mesh does not divide raises ``PlanningError``.
    """
    splits = ((0, mesh.x, "X", col_name), (-1, mesh.y, "Y", row_name))
    for axis, parts, mesh_axis, name in splits:
        if shape[axis] % parts:
            raise PlanningError(f"{name}={shape[axis]} not divisible by mesh {mesh_axis}={parts}")
    boxes: dict[int, Box] = {}
    for ix in range(mesh.x):
        for iy in range(mesh.y):
            box = [(0, extent) for extent in shape]
            for (axis, parts, _, _), index in zip(splits, (ix, iy)):
                step = shape[axis] // parts
                box[axis] = (index * step, (index + 1) * step)
            boxes[mesh.device(ix, iy)] = tuple(box)
    return boxes


def plan(config: ModelConfig, mesh: Mesh) -> ShardPlan:
    """Deterministic contiguous assignment, lowest index to lowest coordinate."""
    E, M, H = config.n_experts, config.d_model, config.d_ff
    B, S = config.batch_size, config.seq_len
    # experts or tokens split over mesh columns, H or M (the last axis) over rows;
    # when the batch alone does not divide, the flat tokens are split instead
    activations, tokens = ((B, S, M), "batch B") if B % mesh.x == 0 else ((B * S, M), "tokens B*S")
    shapes = {"expert_weights": (E, M, H), "activations": activations}
    names = {"expert_weights": ("experts E", "hidden H"), "activations": (tokens, "model dim M")}
    boxes = {name: _partition(shape, mesh, *names[name]) for name, shape in shapes.items()}
    return ShardPlan(mesh=mesh, shapes=shapes, boxes=boxes)


def _box_volume(box: Box) -> int:
    return math.prod(stop - start for start, stop in box)


def validate(plan_: ShardPlan) -> list[str]:
    """Partition-property check; empty list means every tensor tiles exactly.

    Every box must lie inside its tensor, no two boxes may share an element,
    and the boxes inside must add up to the tensor's size.  Together these
    say that each element has exactly one owning device.
    """
    violations: list[str] = []
    for name, shape in plan_.shapes.items():
        inside: list[Box] = []
        for box in plan_.boxes.get(name, {}).values():
            if len(box) == len(shape) and all(0 <= s <= e <= n for (s, e), n in zip(box, shape)):
                inside.append(box)
            else:
                violations.append(f"{name}: box {box} lies outside the {shape} index space")
        spans = np.array(inside, dtype=np.int64).reshape(len(inside), len(shape), 2)
        starts, stops = spans[..., 0], spans[..., 1]
        for i in range(len(inside) - 1):
            hits = np.all((starts[i] < stops[i + 1 :]) & (starts[i + 1 :] < stops[i]), axis=1)
            for j in np.flatnonzero(hits):
                violations.append(f"{name}: overlapping boxes {inside[i]} and {inside[i + 1 + j]}")
        covered = sum(_box_volume(box) for box in inside)
        if covered < math.prod(shape):
            violations.append(f"{name}: gap: boxes cover {covered} of {math.prod(shape)} elements")
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
    w_in: np.ndarray,
    w_out: np.ndarray,
    mesh: Mesh,
    capacity_factor: float = 1.25,
) -> np.ndarray:
    """Run one MoE layer over stacked [E, M, H] / [E, H, M] experts, H split across mesh rows.

    Routing is ``moe_forward``'s own.  Its one expert callable sums, over
    the mesh rows, one stacked ``ExpertFFN`` on each row's H slice.
    Output should match the unsharded layer to ~1e-10.
    """
    spans = sorted({h for _, _, h in _partition(w_in.shape, mesh, "experts E", "hidden H").values()})
    rows = [ExpertFFN(Tensor(w_in[..., lo:hi]), Tensor(w_out[:, lo:hi])) for lo, hi in spans]

    def summed(x: Tensor) -> Tensor:
        return sum((row(x) for row in rows[1:]), rows[0](x))

    out, _ = moe_forward(Tensor(tokens), [summed], Tensor(gate_weights), capacity_factor)
    return out.data
