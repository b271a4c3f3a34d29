"""Checkpoint serialisation, plus atomic file writers and a JSON-lines reader.

``build_dataset`` writes its outputs through ``atomic_write_text`` and ``ingest``
reads its inputs through ``read_jsonl``.  A checkpoint is a JSON manifest plus one
little-endian float64 blob.  The manifest lists every tensor as ``{name, shape,
dtype, byte_offset}`` in blob order, alongside free-form metadata.  Round-trips
are bit-exact.
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
    holding the ``required`` keys with values of the given types.  A JSON boolean
    passes only where ``bool`` is asked for, not as the ``int`` it subclasses.
    Each line is decoded as UTF-8 on its own; a file that cannot be read, or a
    line that does not decode, raises ``IngestError`` naming the file (and line)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc.strerror or exc})") from None
    rows = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
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
            value, allowed = row[key], typ if isinstance(typ, tuple) else (typ,)
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise IngestError(
                    f"{path}:{lineno}: key {key!r} expected {typ}, got {type(value)}"
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


def _check_entry(manifest_path: Path, i: int, entry) -> None:
    """An entry is ``{name: str, shape: [int >= 0, ...], dtype: "f64", byte_offset: int}``."""
    if not isinstance(entry, dict):
        problem = f"is {type(entry)}, not an object"
    elif not isinstance(entry.get("name"), str):
        problem = "has no string name"
    elif not (
        isinstance(entry.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in entry["shape"])
    ):
        problem = f"shape {entry.get('shape')!r} is not a list of non-negative ints"
    elif type(entry.get("byte_offset")) is not int:
        problem = f"byte_offset {entry.get('byte_offset')!r} is not an int"
    elif entry.get("dtype") != "f64":
        problem = f"dtype {entry.get('dtype')!r} is not 'f64'"
    else:
        return
    raise IngestError(f"{manifest_path}: tensor entry {i} {problem}")


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
    for i, entry in enumerate(manifest["tensors"]):
        _check_entry(manifest_path, i, entry)
        if entry["name"] in arrays:
            raise ValidationError(f"{manifest_path}: entry {i} repeats tensor {entry['name']}")
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
