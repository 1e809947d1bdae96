"""Directory-based persistence: manifest.json plus raw float64 binary arrays.

Every persisted object (dataset, basis pair, network weights) uses the same
convention: a directory containing ``manifest.json`` and one ``<name>.bin``
file per array.  Arrays are little-endian 64-bit floats in row-major order;
each file's CRC32 is recorded in the manifest so silent corruption turns
into a load error.  A save writes a temporary sibling directory and swaps
it into place: the directory never mixes old and new files, and a save that
fails while writing leaves the old object as it was.
"""

import json
import os
import shutil
import uuid
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class LoadError(RuntimeError):
    """Raised when a persisted directory fails validation on load."""


def save_arrays(dirpath, arrays, meta=None):
    """Write ``arrays`` (name -> ndarray) plus metadata to ``dirpath``,
    replacing whatever the directory held before."""
    dirpath = Path(dirpath)
    dirpath.parent.mkdir(parents=True, exist_ok=True)
    tmp = dirpath.with_name(f".{dirpath.name}.{uuid.uuid4().hex}.tmp")
    tmp.mkdir()
    try:
        entries = {}
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            raw = arr.tobytes()
            (tmp / f"{name}.bin").write_bytes(raw)
            entries[name] = {
                "file": f"{name}.bin",
                "shape": list(arr.shape),
                "dtype": "<f8",
                "crc32": zlib.crc32(raw),
            }
        manifest = {"format_version": FORMAT_VERSION, "arrays": entries}
        if meta:
            manifest.update(meta)
        with open(tmp / "manifest.json", "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, default=_json_default)
            f.write("\n")
        old = tmp.with_suffix(".old")
        if dirpath.exists():
            os.replace(dirpath, old)
        os.replace(tmp, dirpath)
        shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_arrays(dirpath):
    """Load a directory written by :func:`save_arrays`.

    Returns ``(arrays, manifest)``.  Raises :class:`LoadError` on an
    unreadable or incomplete manifest, a version mismatch, an array file
    other than ``<name>.bin`` in the directory itself, a shape, size or
    checksum mismatch, or a NaN or infinite value.
    """
    dirpath = Path(dirpath)
    manifest_path = dirpath / "manifest.json"
    if not manifest_path.exists():
        raise LoadError(f"no manifest.json in {dirpath}")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        version = manifest.get("format_version")
        entries = manifest["arrays"].items()
    except (ValueError, AttributeError, KeyError) as exc:
        raise LoadError(f"{manifest_path}: malformed manifest ({exc!r})") \
            from exc
    if version != FORMAT_VERSION:
        raise LoadError(f"format_version {version!r} != {FORMAT_VERSION}")
    arrays = {}
    for name, entry in entries:
        try:
            file, crc, shape = entry["file"], entry["crc32"], entry["shape"]
        except (KeyError, TypeError) as exc:
            raise LoadError(f"{manifest_path}: array {name!r} entry is "
                            f"malformed ({exc!r})") from exc
        if not isinstance(shape, list) \
                or not all(type(s) is int and s >= 0 for s in shape):
            raise LoadError(f"{manifest_path}: array {name!r} shape {shape!r}"
                            " is not a list of non-negative ints")
        if file != f"{name}.bin" or Path(file).name != file:
            raise LoadError(f"{manifest_path}: array {name!r} names file "
                            f"{file!r}, not {name}.bin in {dirpath}")
        try:
            raw = (dirpath / file).read_bytes()
        except OSError as exc:
            raise LoadError(f"{file}: {exc}") from exc
        expected = int(np.prod(shape)) * 8
        if len(raw) != expected:
            raise LoadError(f"{file}: {len(raw)} bytes, expected {expected}")
        if zlib.crc32(raw) != crc:
            raise LoadError(f"{file}: checksum mismatch")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if not np.all(np.isfinite(arrays[name])):
            raise LoadError(f"{dirpath}: array {name!r} is not finite")
    return arrays, manifest


@contextmanager
def loading(dirpath, tag):
    """``(arrays, manifest)`` of a ``tag`` object; a wrong tag, and a
    KeyError, ValueError or TypeError raised while building it, raise
    :class:`LoadError`."""
    arrays, manifest = load_arrays(dirpath)
    if manifest.get("object") != tag:
        raise LoadError(f"{dirpath} does not hold a {tag} object")
    try:
        yield arrays, manifest
    except (KeyError, ValueError, TypeError) as exc:
        raise LoadError(f"{dirpath}: malformed {tag} ({exc!r})") from exc


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
