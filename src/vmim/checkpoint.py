"""Versioned named-tensor checkpoint files (magic "VMIM1").

Layout: 6-byte magic, 8-byte little-endian header length, UTF-8 JSON
header (config echo plus a tensor index), then the concatenated raw
little-endian float64 payloads. Serialization is canonical (sorted keys),
so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .autodiff import Tensor

MAGIC = b"VMIM1\n"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, params: dict[str, Tensor], config: dict) -> None:
    """Write atomically: a temporary file in the same directory replaces
    ``path`` only once it is complete, so a failed write leaves the previous
    checkpoint intact."""
    names = sorted(params)
    index = []
    offset = 0
    for name in names:
        shape = list(params[name].shape)
        size = int(params[name].size)
        index.append({"name": name, "shape": shape, "offset": offset})
        offset += size * 8
    header = json.dumps(
        {"version": 1, "config": config, "tensors": index},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for name in names:
                # A copy only where float64 is not little-endian.
                fh.write(np.ascontiguousarray(params[name].data, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_header(fh, path: str) -> tuple[dict, list[tuple[str, tuple[int, ...], int]]]:
    """The config echo and the tensor index (name, shape, payload offset)
    from the header of the open file ``fh``, which is left at the payload."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    header_len = int.from_bytes(fh.read(8), "little")
    if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"{path}: header length {header_len} exceeds the file")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CheckpointError(f"{path}: malformed header: {exc}") from None
    try:
        config = header["config"]
        index = [(e["name"], tuple(int(n) for n in e["shape"]), int(e["offset"]))
                 for e in header["tensors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed tensor index: {exc!r}") from None
    return config, index


def load_checkpoint_config(path: str) -> dict:
    """The config echo alone, from the header: the payload is not read. A
    corrupt header raises CheckpointError."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def load_checkpoint(path: str) -> tuple[dict[str, Tensor], dict]:
    """Named tensors and config echo; a corrupt file, or a tensor with a
    non-finite entry, raises CheckpointError."""
    with open(path, "rb") as fh:
        config, index = _read_header(fh, path)
        payload = fh.read()
    params: dict[str, Tensor] = {}
    for name, shape, start in index:
        size = math.prod(shape)
        if min(shape, default=0) < 0 or start < 0 or start + size * 8 > len(payload):
            raise CheckpointError(f"{path}: tensor {name} runs past the payload")
        raw = np.frombuffer(payload, dtype="<f8", count=size, offset=start)
        if not np.isfinite(raw).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
        params[name] = Tensor(raw.reshape(shape), requires_grad=True)
    return params, config
