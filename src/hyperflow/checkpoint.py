"""Self-describing binary checkpoints: config JSON plus named float64 tensors.

Layout (all integers little-endian): magic, u32 version, u64 config length,
config JSON, u32 tensor count, then per tensor a u64-length-prefixed name,
u32 ndim, u64 dims, and the raw float64 bytes.  Raw bytes round-trip bit
for bit, which the reproducibility checks rely on.

`atomic_open` writes every file the package writes: a crash or an error
halfway through leaves the previous file at the target path untouched.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"HFCP"
VERSION = 1


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file next to `path` and move it onto `path` on a clean exit.

    The temporary file sits in the target's directory, so `os.replace` is a
    rename within one file system.  It is opened with plain `open`, so its
    mode follows the umask like any other file the program writes.  If the
    body raises, the temporary file is removed and `path` keeps its old
    contents (or stays absent).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # absent after a successful replace


def save_checkpoint(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<Q", len(blob)))
    parts.append(blob)
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<Q", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        parts.append(arr.tobytes())
    with atomic_open(path, "wb") as fh:
        fh.writelines(parts)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    buf = Path(path).read_bytes()
    view = memoryview(buf)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"{path}: truncated checkpoint")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", take(8))
    config = json.loads(bytes(take(cfg_len)).decode("utf-8"))
    (count,) = struct.unpack("<I", take(4))
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<Q", take(8))
        name = bytes(take(name_len)).decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
        n_items = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(8 * n_items), dtype="<f8").reshape(shape)
        tensors[name] = arr.astype(np.float64)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes")
    return config, tensors
