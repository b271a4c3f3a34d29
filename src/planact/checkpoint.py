"""Checkpoint serialisation, plus the atomic writers and JSON-lines reader shared by all files.

A checkpoint is a JSON manifest plus one little-endian float64 blob.  The
manifest lists every tensor as ``{name, shape, dtype, byte_offset}`` in blob
order, alongside free-form metadata.  Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import IngestError, ValidationError
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


def read_jsonl(path: Path, required: dict[str, type]) -> list[tuple[int, dict]]:
    """``(line number, row)`` of every non-blank line; each row must be an object
    holding the ``required`` keys with values of the given types."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}:{lineno}: malformed JSON line ({exc.msg})") from None
        if not isinstance(row, dict):
            raise IngestError(f"{path}:{lineno}: expected a JSON object, got {type(row)}")
        for key, typ in required.items():
            if key not in row:
                raise IngestError(f"{path}:{lineno}: missing key {key!r}")
            if not isinstance(row[key], typ):
                raise IngestError(
                    f"{path}:{lineno}: key {key!r} expected {typ}, got {type(row[key])}"
                )
        rows.append((lineno, row))
    return rows


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
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise IngestError(f"{manifest_path}: malformed JSON manifest ({exc.msg})") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise IngestError(f"{manifest_path}: manifest has no list of tensors")
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
