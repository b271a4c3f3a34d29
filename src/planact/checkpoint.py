"""Checkpoint serialisation: a JSON manifest plus one little-endian float64 blob.

The manifest lists every tensor as ``{name, shape, dtype, byte_offset}`` in blob
order, alongside free-form metadata.  Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .tensor import Tensor


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_checkpoint(prefix: Path, tensors: dict[str, Tensor], meta: dict | None = None) -> None:
    """Write ``<prefix>.json`` and ``<prefix>.bin``; tensor order follows the dict."""
    prefix = Path(prefix)
    entries = []
    chunks = []
    offset = 0
    for name, t in tensors.items():
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        entries.append(
            {"name": name, "shape": list(t.shape), "dtype": "f64", "byte_offset": offset}
        )
        chunks.append(raw)
        offset += len(raw)
    manifest = {"tensors": entries, "meta": meta or {}}
    atomic_write_text(prefix.with_suffix(".json"), json.dumps(manifest, indent=1))
    atomic_write_bytes(prefix.with_suffix(".bin"), b"".join(chunks))


def load_checkpoint(prefix: Path) -> tuple[dict[str, np.ndarray], dict]:
    prefix = Path(prefix)
    manifest_path = prefix.with_suffix(".json")
    blob_path = prefix.with_suffix(".bin")
    if not manifest_path.exists() or not blob_path.exists():
        raise ValidationError(f"checkpoint not found at {prefix}")
    manifest = json.loads(manifest_path.read_text())
    blob = blob_path.read_bytes()
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["byte_offset"]
        if start < 0 or start + 8 * count > len(blob):
            raise ValidationError(
                f"{blob_path}: tensor {entry['name']} at byte {start} needs {8 * count} bytes "
                f"but the blob holds {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)
    return arrays, manifest.get("meta", {})


def restore_into(tensors: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into an existing parameter set; names and shapes must match."""
    missing = set(tensors) - set(arrays)
    extra = set(arrays) - set(tensors)
    if missing or extra:
        raise ValidationError(
            f"parameter names disagree with checkpoint (missing={sorted(missing)[:3]}, "
            f"extra={sorted(extra)[:3]})"
        )
    for name, t in tensors.items():
        arr = arrays[name]
        if tuple(arr.shape) != t.shape:
            raise ValidationError(
                f"checkpoint tensor {name} has shape {arr.shape}, expected {t.shape}"
            )
        t.data[...] = arr
