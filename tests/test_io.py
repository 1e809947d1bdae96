"""Persistence layer: manifest + raw float64 arrays with CRC32 integrity."""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from derivop.io import FORMAT_VERSION, LoadError, load_arrays, save_arrays


@pytest.fixture
def arrays():
    rng = np.random.default_rng(42)
    return {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "c": rng.standard_normal((2, 3, 5)),
    }


def test_round_trip_bit_exact(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={"object": "blob"})
    loaded, manifest = load_arrays(tmp_path / "d")
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.float64
        np.testing.assert_array_equal(loaded[name], arrays[name])
    assert manifest["format_version"] == FORMAT_VERSION
    assert manifest["object"] == "blob"


def test_save_is_deterministic(tmp_path, arrays):
    save_arrays(tmp_path / "one", arrays, meta={"object": "blob"})
    save_arrays(tmp_path / "two", arrays, meta={"object": "blob"})
    for f in sorted((tmp_path / "one").iterdir()):
        assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()


def test_corrupted_byte_rejected(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={})
    target = tmp_path / "d" / "b.bin"
    raw = bytearray(target.read_bytes())
    raw[5] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


def test_truncated_file_rejected(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={})
    target = tmp_path / "d" / "a.bin"
    target.write_bytes(target.read_bytes()[:-8])
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


def test_version_mismatch_rejected(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={})
    manifest_path = tmp_path / "d" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


def _edit_manifest(dirpath, edit):
    manifest_path = dirpath / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))


def test_half_written_manifest_rejected(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={})
    manifest_path = tmp_path / "d" / "manifest.json"
    text = manifest_path.read_text()
    manifest_path.write_text(text[:len(text) // 2])
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


def test_manifest_without_arrays_rejected(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={})
    _edit_manifest(tmp_path / "d", lambda m: m.pop("arrays"))
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


@pytest.mark.parametrize("edit", [
    lambda entry: entry.pop("crc32"),
    lambda entry: entry.update(shape=["seven"]),
    # these two hold 7 values, as many as the 56-byte file
    lambda entry: entry.update(shape=[-1, -7]),
    lambda entry: entry.update(shape="7"),
], ids=["no-crc32", "text-shape", "negative-shape", "string-shape"])
def test_malformed_entry_rejected(tmp_path, arrays, edit):
    save_arrays(tmp_path / "d", arrays, meta={})
    _edit_manifest(tmp_path / "d", lambda m: edit(m["arrays"]["b"]))
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


@pytest.mark.parametrize("name", ["b", "../outside"])
def test_file_outside_directory_rejected(tmp_path, arrays, name):
    # a valid array file with a matching checksum next to the directory:
    # only the file name check keeps the loader from reading it
    save_arrays(tmp_path / "d", arrays, meta={})
    raw = np.ones(7, dtype="<f8").tobytes()
    (tmp_path / "outside.bin").write_bytes(raw)

    def point_outside(manifest):
        entry = manifest["arrays"].pop("b")
        entry.update(file="../outside.bin", crc32=zlib.crc32(raw))
        manifest["arrays"][name] = entry

    _edit_manifest(tmp_path / "d", point_outside)
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


def test_missing_file_rejected(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={})
    (tmp_path / "d" / "c.bin").unlink()
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "d")


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(LoadError):
        load_arrays(tmp_path / "nope")


def test_arrays_stored_little_endian_row_major(tmp_path):
    a = np.arange(6, dtype=float).reshape(2, 3)
    save_arrays(tmp_path / "d", {"a": a}, meta={})
    raw = (Path(tmp_path) / "d" / "a.bin").read_bytes()
    assert raw == a.astype("<f8").tobytes(order="C")


def test_overwrite_leaves_no_stale_files(tmp_path, arrays):
    save_arrays(tmp_path / "d", arrays, meta={"object": "blob"})
    save_arrays(tmp_path / "d", {"a": arrays["a"]}, meta={"object": "blob"})
    assert sorted(f.name for f in (tmp_path / "d").iterdir()) \
        == ["a.bin", "manifest.json"]
    loaded, _ = load_arrays(tmp_path / "d")
    assert set(loaded) == {"a"}
    assert [f.name for f in tmp_path.iterdir()] == ["d"]


def test_interrupted_save_keeps_old_copy(tmp_path, arrays, monkeypatch):
    save_arrays(tmp_path / "d", arrays, meta={"object": "old"})
    writes = []
    real_write = Path.write_bytes

    def failing_write(self, data):
        writes.append(self.name)
        if len(writes) == 2:
            raise OSError("disk full")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_arrays(tmp_path / "d", {k: 2 * v for k, v in arrays.items()},
                    meta={"object": "new"})
    monkeypatch.undo()
    loaded, manifest = load_arrays(tmp_path / "d")
    assert manifest["object"] == "old"
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
    assert [f.name for f in tmp_path.iterdir()] == ["d"]
