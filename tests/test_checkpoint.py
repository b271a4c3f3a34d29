import json

import numpy as np
import pytest

from planact.checkpoint import load_checkpoint, restore_into, save_checkpoint
from planact.errors import ValidationError
from planact.tensor import Tensor


def test_roundtrip_bitwise(tmp_path, rng):
    tensors = {
        "a.w": Tensor(rng.standard_normal((3, 4))),
        "a.b": Tensor(rng.standard_normal(4)),
        "scalar": Tensor(np.pi),
    }
    save_checkpoint(tmp_path / "ckpt", tensors, meta={"stage": 1, "config_hash": "abc"})
    arrays, meta = load_checkpoint(tmp_path / "ckpt")
    assert meta == {"stage": 1, "config_hash": "abc"}
    for name, t in tensors.items():
        assert arrays[name].tobytes() == t.data.tobytes()


def test_manifest_layout(tmp_path, rng):
    tensors = {"x": Tensor(rng.standard_normal((2, 2))), "y": Tensor(np.zeros(3))}
    save_checkpoint(tmp_path / "ckpt", tensors)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    entries = manifest["tensors"]
    assert entries[0] == {"name": "x", "shape": [2, 2], "dtype": "f64", "byte_offset": 0}
    assert entries[1]["byte_offset"] == 4 * 8
    blob = (tmp_path / "ckpt.bin").read_bytes()
    assert len(blob) == (4 + 3) * 8


def test_restore_into_existing_model(tmp_path, rng):
    src = {"w": Tensor(rng.standard_normal((2, 3)))}
    save_checkpoint(tmp_path / "ckpt", src)
    arrays, _ = load_checkpoint(tmp_path / "ckpt")
    dst = {"w": Tensor(np.zeros((2, 3)))}
    restore_into(dst, arrays)
    assert dst["w"].data.tobytes() == src["w"].data.tobytes()


def test_restore_rejects_name_mismatch(tmp_path, rng):
    save_checkpoint(tmp_path / "ckpt", {"w": Tensor(np.zeros(2))})
    arrays, _ = load_checkpoint(tmp_path / "ckpt")
    with pytest.raises(ValidationError):
        restore_into({"other": Tensor(np.zeros(2))}, arrays)


def test_restore_rejects_shape_mismatch(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": Tensor(np.zeros(2))})
    arrays, _ = load_checkpoint(tmp_path / "ckpt")
    with pytest.raises(ValidationError):
        restore_into({"w": Tensor(np.zeros(3))}, arrays)


def test_missing_checkpoint(tmp_path):
    with pytest.raises(ValidationError):
        load_checkpoint(tmp_path / "nothing")


def test_truncated_blob_names_file_and_tensor(tmp_path, rng):
    tensors = {"a": Tensor(rng.standard_normal(4)), "b.w": Tensor(rng.standard_normal((2, 3)))}
    save_checkpoint(tmp_path / "ckpt", tensors)
    blob = tmp_path / "ckpt.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValidationError, match=r"ckpt\.bin.*tensor b\.w"):
        load_checkpoint(tmp_path / "ckpt")
