import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from planact.checkpoint import load_checkpoint, restore_into, save_checkpoint
from planact.errors import IngestError, ValidationError
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


@pytest.mark.parametrize("manifest", ['{"tensors": [', '[1, 2]', '{"meta": {}}'])
def test_malformed_manifest_names_file(tmp_path, manifest):
    save_checkpoint(tmp_path / "ckpt", {"w": Tensor(np.zeros(2))})
    (tmp_path / "ckpt.json").write_text(manifest)
    with pytest.raises(IngestError, match=r"ckpt\.json: "):
        load_checkpoint(tmp_path / "ckpt")


def _corrupt(entry):
    return {"name": "w", "shape": [2], "dtype": "f64", "byte_offset": 0, **entry}


def _without(key):
    entry = _corrupt({})
    del entry[key]
    return entry


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(["w", [2]], id="not-an-object"),
        pytest.param(_without("name"), id="missing-name"),
        pytest.param(_corrupt({"name": 3}), id="name-not-text"),
        pytest.param(_corrupt({"shape": "2"}), id="shape-not-a-list"),
        pytest.param(_corrupt({"shape": [-1]}), id="negative-extent"),
        pytest.param(_corrupt({"shape": [2.0]}), id="float-extent"),
        pytest.param(_without("byte_offset"), id="missing-offset"),
        pytest.param(_corrupt({"byte_offset": 0.5}), id="float-offset"),
        pytest.param(_corrupt({"dtype": "f32"}), id="dtype-not-f64"),
    ],
)
def test_malformed_entry_names_manifest_and_index(tmp_path, entry):
    save_checkpoint(tmp_path / "ckpt", {"v": Tensor(np.zeros(2)), "w": Tensor(np.zeros(2))})
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    manifest["tensors"][1] = entry
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(IngestError, match=r"ckpt\.json: tensor entry 1 "):
        load_checkpoint(tmp_path / "ckpt")


def test_repeated_name_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": Tensor(np.zeros(2)), "v": Tensor(np.ones(2))})
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    manifest["tensors"][1]["name"] = "w"
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match=r"ckpt\.json: entry 1 repeats tensor w"):
        load_checkpoint(tmp_path / "ckpt")


def test_truncated_blob_names_file_and_tensor(tmp_path, rng):
    tensors = {"a": Tensor(rng.standard_normal(4)), "b.w": Tensor(rng.standard_normal((2, 3)))}
    save_checkpoint(tmp_path / "ckpt", tensors)
    blob = tmp_path / "ckpt.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValidationError, match=r"ckpt\.bin.*tensor b\.w"):
        load_checkpoint(tmp_path / "ckpt")


@given(
    st.lists(st.lists(st.integers(0, 3), max_size=3).map(tuple), min_size=1, max_size=4),
    st.data(),
)
def test_any_truncated_blob_rejected(shapes, data):
    tensors = {f"t{i}": Tensor(np.ones(shape)) for i, shape in enumerate(shapes)}
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "ckpt"
        save_checkpoint(prefix, tensors)
        blob = prefix.with_suffix(".bin")
        full = blob.read_bytes()
        assume(full)
        blob.write_bytes(full[: data.draw(st.integers(0, len(full) - 1), label="kept bytes")])
        with pytest.raises(ValidationError, match=r"ckpt\.bin"):
            load_checkpoint(prefix)
