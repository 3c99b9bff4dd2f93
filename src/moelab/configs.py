"""Reference model-size presets.

The grid mirrors a published family of dense and mixture-of-experts decoder
models from 0.1B to trillion-parameter scale.  Presets exist for parameter
and FLOPs accounting and for shard planning; none of them is buildable on a
desk (use small custom configs for that).
"""

from __future__ import annotations

from .model import ModelConfig
from .moe import ConfigError

__all__ = ["PRESETS", "preset"]


def _cfg(n_layers, d_model, d_ff, n_heads, d_head, n_experts) -> ModelConfig:
    return ModelConfig(
        n_layers=n_layers,
        d_model=d_model,
        d_ff=d_ff,
        n_heads=n_heads,
        d_head=d_head,
        n_experts=n_experts,
        vocab_size=262_144,
        seq_len=1024,
        batch_size=256,
    )


PRESETS: dict[str, ModelConfig] = {
    "0.1b": _cfg(12, 768, 3072, 12, 64, 1),
    "0.1b-64e": _cfg(12, 768, 3072, 12, 64, 64),
    "1.7b": _cfg(24, 2048, 8192, 16, 128, 1),
    "1.7b-32e": _cfg(24, 2048, 8192, 16, 128, 32),
    "1.7b-64e": _cfg(24, 2048, 8192, 16, 128, 64),
    "1.7b-128e": _cfg(24, 2048, 8192, 16, 128, 128),
    "1.7b-256e": _cfg(24, 2048, 8192, 16, 128, 256),
    "8b": _cfg(32, 4096, 16384, 32, 128, 1),
    "8b-64e": _cfg(32, 4096, 16384, 32, 128, 64),
    "137b": _cfg(64, 8192, 65536, 128, 128, 1),
    "64b-64e": _cfg(64, 8192, 32768, 128, 128, 64),
    # Dense comparison point whose activated parameter count lands at ~175B
    # under this package's accounting (GEGLU feed-forward, no biases).
    "dense-175b": _cfg(96, 12288, 32768, 96, 128, 1),
}


def preset(name: str) -> ModelConfig:
    if not isinstance(name, str) or name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}")
    return PRESETS[name]
