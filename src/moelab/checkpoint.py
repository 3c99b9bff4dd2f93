"""Versioned binary checkpoint container.

Layout (format 2): an 8-byte magic, a uint32 format version, a uint64
length-prefixed UTF-8 JSON header (model config, metadata, array directory
and the sha256 of the array payload), then each array's raw bytes in
directory order.  Floats are little-endian float64 and the array bytes are
written verbatim, so a save/load round trip is bit-exact; a load whose
payload does not hash to the header's digest, whose directory names an array
twice, or whose file goes on past the last array is refused.
No timestamps or other ambient state are recorded: identical inputs produce
identical files.  A save writes ``<path>.partial``, syncs it to disk and then
renames it over ``path``, so a failed or interrupted save leaves the previous
file as it was.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .model import ModelConfig
from .moe import ConfigError
from .tensor import Tensor

__all__ = [
    "Checkpoint",
    "CheckpointFormatError",
    "save_checkpoint",
    "load_checkpoint",
    "restore_params",
]

_MAGIC = b"MOELABCK"
_VERSION = 2  # 2: stacked expert weights and a payload digest
_FIXED = struct.Struct("<IQ")  # format version, header length
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


class CheckpointFormatError(ValueError):
    """Raised when a file is not a readable checkpoint."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    opt_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _as_array(value) -> np.ndarray:
    data = value.data if isinstance(value, Tensor) else value
    arr = np.asarray(data)
    if arr.dtype.kind == "f":
        return np.ascontiguousarray(arr, dtype="<f8")
    if arr.dtype.kind in "iu":
        return np.ascontiguousarray(arr, dtype="<i8")
    raise CheckpointFormatError(f"unsupported array dtype {arr.dtype}")


def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    params: Mapping[str, "Tensor | np.ndarray"],
    opt_arrays: Mapping[str, np.ndarray] | None = None,
    meta: Mapping | None = None,
) -> None:
    arrays: list[tuple[str, np.ndarray]] = []
    for name in sorted(params):
        arrays.append((f"param/{name}", _as_array(params[name])))
    for name in sorted(opt_arrays or {}):
        arrays.append((f"opt/{name}", _as_array((opt_arrays or {})[name])))

    digest = hashlib.sha256()
    for _, arr in arrays:
        digest.update(arr)
    header = {
        "config": asdict(config),
        "meta": dict(meta or {}),
        "arrays": [
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
            for name, arr in arrays
        ],
        "payload_sha256": digest.hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_FIXED.pack(_VERSION, len(blob)))
            fh.write(blob)
            for _, arr in arrays:
                fh.write(arr)  # the contiguous buffer itself; tobytes() would copy it
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _check_header(header) -> None:
    """An object with ``config`` and ``meta`` objects, an ``arrays`` directory and a digest."""
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"checkpoint header must be an object, got {type(header).__name__}")
    if not isinstance(header.get("payload_sha256"), str):
        raise CheckpointFormatError("checkpoint header needs a 'payload_sha256' string")
    for key in ("config", "meta"):
        if not isinstance(header.get(key), dict):
            raise CheckpointFormatError(f"checkpoint header needs a {key!r} object")
    arrays = header.get("arrays")
    if not isinstance(arrays, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("dtype"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in entry["shape"])
        for entry in arrays
    ):
        raise CheckpointFormatError("checkpoint header needs an 'arrays' list of {name, shape, dtype}")
    if len({entry["name"] for entry in arrays}) != len(arrays):
        raise CheckpointFormatError("checkpoint header names an array twice")


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}; not a checkpoint file")
        fixed = fh.read(_FIXED.size)
        if len(fixed) != _FIXED.size:
            raise CheckpointFormatError("truncated checkpoint header")
        version, header_len = _FIXED.unpack(fixed)
        if version != _VERSION:
            raise CheckpointFormatError(
                f"checkpoint format version {version} is not supported; this build reads version {_VERSION}"
            )
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise CheckpointFormatError(f"checkpoint header is not JSON: {exc}") from exc
        _check_header(header)
        params: dict[str, np.ndarray] = {}
        opt_arrays: dict[str, np.ndarray] = {}
        digest = hashlib.sha256()
        for entry in header["arrays"]:
            dtype = _DTYPES.get(entry["dtype"])
            if dtype is None:
                raise CheckpointFormatError(f"unsupported dtype {entry['dtype']}")
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise CheckpointFormatError(f"truncated array {entry['name']}")
            digest.update(raw)
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            name = entry["name"]
            if name.startswith("param/"):
                params[name[len("param/") :]] = arr
            elif name.startswith("opt/"):
                opt_arrays[name[len("opt/") :]] = arr
            else:
                raise CheckpointFormatError(f"unknown array namespace in {name!r}")
        if fh.read(1):
            raise CheckpointFormatError(f"{path}: bytes follow the last array")
    if digest.hexdigest() != header["payload_sha256"]:
        raise CheckpointFormatError(f"{path}: array payload does not match the header's sha256")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ConfigError) as exc:
        raise CheckpointFormatError(f"checkpoint header holds no valid model config: {exc}") from exc
    return Checkpoint(config=config, params=params, opt_arrays=opt_arrays, meta=header["meta"])


def restore_params(
    live: Mapping[str, Tensor], saved: Mapping[str, np.ndarray], source: str | Path
) -> None:
    """Bind a copy of each saved array to the model's parameter of that name.

    Nothing is copied unless the names and every shape match the live model;
    otherwise CheckpointFormatError names ``source`` and the first mismatch.
    """
    if set(live) != set(saved):
        differing = sorted(set(live) ^ set(saved))
        raise CheckpointFormatError(
            f"{source}: parameter names do not match the architecture: {differing}"
        )
    for name in sorted(live):
        if saved[name].shape != live[name].shape:
            raise CheckpointFormatError(
                f"{source}: array {name!r} has shape {saved[name].shape}, "
                f"the architecture needs {live[name].shape}"
            )
    for name, arr in saved.items():
        live[name].data = arr.copy()
