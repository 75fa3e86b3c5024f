"""The ``A1`` binary record format: versioned, CRC-checksummed, mmap-able.

``A1`` is the only on-disk form of a user's adapter, and the form of the
cached pretrained base model (:mod:`repro.llm.base_cache`).  It is a structured
binary record in the image-compiler idiom — fixed header, shape table, raw
buffers — so a load can be validated field by field, damage can be localized
(and the file quarantined with a precise reason), and the float buffers can
be mapped read-only straight out of the page cache with zero copies.

Byte layout (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       2     magic ``b"A1"``
    2       1     format version (currently 1)
    3       1     flags (reserved, must be 0)
    4       2     u16   user id byte length U
    6       2     u16   tensor count T
    8       4     u32   fine-tune round fence
    12      4     u32   table_nbytes (length of the shape-table region)
    16      4     u32   CRC-32 of the shape-table region
    20      4     u32   CRC-32 of the payload region
    24      8     u64   payload_nbytes (length of the payload region)
    32      ...   shape table: U bytes of UTF-8 record name (an adapter's
                  user id, a base model's cache key), then exactly T
                  entries of [u16 key length, UTF-8 key bytes, u8 dtype code
                  (0=float32, 1=uint8), u8 ndim, ndim x u32 dims, u64 payload
                  offset, u64 nbytes] and nothing after them
    ...     ...   zero padding to the next 64-byte boundary
    ...     ...   payload: raw little-endian buffers, each starting on a
                  64-byte boundary relative to the payload start

The two CRCs cover the shape table and the payload; the header is covered
by the structural checks instead (magic, version, zero flags, a shape table
consumed exactly).  The round fence (bytes 8-11) is covered by neither — see
the ``A1`` section of ``docs/scaling.md``.

Packing is deterministic (tensors in dict order, zero-filled alignment gaps),
so identical state dicts produce byte-identical records — the property the
store's bit-identical reload tests lean on.  :func:`open_adapter_record` maps
the file and hands out read-only :mod:`numpy` views into the mapping; the
views keep the mapping alive, and
:class:`~repro.serve.adapter_store.LoRAAdapterStore` copies them at its
``get`` boundary, so callers never observe the page cache mutating.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

import numpy as np

#: First bytes of every record; also the name of the format.
ADAPTER_MAGIC = b"A1"

#: Current format version (header byte 2).
ADAPTER_BINARY_VERSION = 1

#: Every buffer (and the payload region itself) starts on this alignment, so
#: mapped views are cache-line aligned and SIMD-friendly.
ADAPTER_ALIGNMENT = 64

#: dtype codes appearing in the shape table.  uint8 buffers carry opaque
#: bytes (the base-model cache stores its RNG streams that way); every other
#: array is packed as float32.
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("u1")}
_CODE_OF = {dtype: code for code, dtype in _DTYPE_CODES.items()}

_HEADER = struct.Struct("<2sBBHHIIIIQ")

#: Fixed header size in bytes (32).
ADAPTER_HEADER_NBYTES = _HEADER.size


class AdapterFormatError(ValueError):
    """A byte string / file is not a usable ``A1`` adapter record.

    ``reason`` is a short, stable phrase ("truncated header", "payload CRC
    mismatch", ...) that the store records in its quarantine health event.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _align(offset: int) -> int:
    return (offset + ADAPTER_ALIGNMENT - 1) & ~(ADAPTER_ALIGNMENT - 1)


def _decode_name(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise AdapterFormatError(f"{what} is not valid UTF-8") from error


def pack_adapter_record(user_id: str, state: Dict[str, np.ndarray], round: int = 0) -> bytes:
    """Serialize an adapter state dict into one ``A1`` record.

    Tensors are written in dict order as contiguous little-endian float32
    buffers (uint8 arrays stay uint8); the result is deterministic for a
    given ``(user_id, state, round)`` triple.
    """
    user_bytes = user_id.encode("utf-8")
    if len(user_bytes) > 0xFFFF:
        raise AdapterFormatError(f"user id too long ({len(user_bytes)} bytes)")
    if len(state) > 0xFFFF:
        raise AdapterFormatError(f"too many tensors ({len(state)})")
    table = bytearray(user_bytes)
    buffers = []
    offset = 0
    for key, value in state.items():
        value = np.asarray(value)
        array = np.ascontiguousarray(value, dtype="u1" if value.dtype == np.uint8 else "<f4")
        key_bytes = key.encode("utf-8")
        if len(key_bytes) > 0xFFFF:
            raise AdapterFormatError(f"tensor key too long: {key!r}")
        table += struct.pack("<H", len(key_bytes)) + key_bytes
        table += struct.pack("<BB", _CODE_OF[array.dtype], array.ndim)
        table += struct.pack(f"<{array.ndim}I", *array.shape)
        table += struct.pack("<QQ", offset, array.nbytes)
        buffers.append((offset, array.tobytes()))
        offset = _align(offset + array.nbytes)
    payload_nbytes = (
        max(start + len(data) for start, data in buffers) if buffers else 0
    )
    payload = bytearray(payload_nbytes)
    for start, data in buffers:
        payload[start : start + len(data)] = data
    table_bytes = bytes(table)
    payload_bytes = bytes(payload)
    header = _HEADER.pack(
        ADAPTER_MAGIC,
        ADAPTER_BINARY_VERSION,
        0,
        len(user_bytes),
        len(state),
        int(round),
        len(table_bytes),
        zlib.crc32(table_bytes),
        zlib.crc32(payload_bytes),
        payload_nbytes,
    )
    padding = b"\0" * (_align(len(header) + len(table_bytes)) - len(header) - len(table_bytes))
    return header + table_bytes + padding + payload_bytes


@dataclass
class AdapterRecord:
    """One decoded ``A1`` record: metadata plus (possibly mapped) tensors.

    ``state`` maps tensor keys to **read-only** arrays.  For a
    mapped record they are zero-copy views into the file's pages; each view
    holds a reference to the mapping, so the record (and its arrays) stay
    valid for as long as anyone keeps them.  Copy before mutating.
    """

    user_id: str
    round: int
    state: Dict[str, np.ndarray]
    nbytes: int


def unpack_adapter_record(data: Union[bytes, bytearray, memoryview, mmap.mmap]) -> AdapterRecord:
    """Decode an ``A1`` record, verifying structure and both CRCs.

    Raises :class:`AdapterFormatError` — and never any other exception —
    with a precise reason for every damage class: truncated header, bad
    magic, unsupported version, nonzero flags, truncated/corrupt shape table,
    non-UTF-8 names, duplicate keys, trailing shape-table bytes, unusable or
    mismatched shapes, truncated payload and payload CRC mismatch.
    """
    view = memoryview(data)
    if len(view) < ADAPTER_HEADER_NBYTES:
        raise AdapterFormatError("truncated header")
    (
        magic,
        version,
        flags,
        user_len,
        num_tensors,
        round,
        table_nbytes,
        table_crc,
        payload_crc,
        payload_nbytes,
    ) = _HEADER.unpack_from(view, 0)
    if magic != ADAPTER_MAGIC:
        raise AdapterFormatError(f"bad magic {bytes(magic)!r}")
    if version != ADAPTER_BINARY_VERSION:
        raise AdapterFormatError(
            f"unsupported format version {version} (expected {ADAPTER_BINARY_VERSION})"
        )
    if flags != 0:
        raise AdapterFormatError(f"unknown flags {flags:#04x}")
    table_end = ADAPTER_HEADER_NBYTES + table_nbytes
    if len(view) < table_end:
        raise AdapterFormatError("truncated shape table")
    table = bytes(view[ADAPTER_HEADER_NBYTES:table_end])
    if zlib.crc32(table) != table_crc:
        raise AdapterFormatError("shape table CRC mismatch")
    payload_start = _align(table_end)
    if len(view) < payload_start + payload_nbytes:
        raise AdapterFormatError("truncated payload")
    if zlib.crc32(view[payload_start : payload_start + payload_nbytes]) != payload_crc:
        raise AdapterFormatError("payload CRC mismatch")

    if user_len > len(table):
        raise AdapterFormatError("truncated shape table")
    user_id = _decode_name(table[:user_len], "user id")
    position = user_len
    state: Dict[str, np.ndarray] = {}
    total_nbytes = 0
    for _ in range(num_tensors):
        try:
            (key_len,) = struct.unpack_from("<H", table, position)
            position += 2
            key_bytes = table[position : position + key_len]
            if len(key_bytes) != key_len:
                raise AdapterFormatError("truncated shape table")
            key = _decode_name(key_bytes, "tensor key")
            position += key_len
            dtype_code, ndim = struct.unpack_from("<BB", table, position)
            position += 2
            dims = struct.unpack_from(f"<{ndim}I", table, position)
            position += 4 * ndim
            buffer_offset, buffer_nbytes = struct.unpack_from("<QQ", table, position)
            position += 16
        except struct.error as error:
            raise AdapterFormatError("truncated shape table") from error
        if key in state:
            raise AdapterFormatError(f"duplicate tensor key {key!r}")
        dtype = _DTYPE_CODES.get(dtype_code)
        if dtype is None:
            raise AdapterFormatError(f"unknown dtype code {dtype_code}")
        count = 1
        for dim in dims:
            count *= dim
        if count * dtype.itemsize != buffer_nbytes:
            raise AdapterFormatError(
                f"shape table/buffer length mismatch for {key!r}: shape "
                f"{tuple(dims)} needs {count * dtype.itemsize} bytes, table says {buffer_nbytes}"
            )
        if buffer_offset + buffer_nbytes > payload_nbytes:
            raise AdapterFormatError(
                f"shape table/buffer length mismatch for {key!r}: buffer ends past the payload"
            )
        array = np.frombuffer(view, dtype=dtype, count=count, offset=payload_start + buffer_offset)
        try:
            array = array.reshape(dims)
        except ValueError as error:  # more dimensions than numpy supports
            raise AdapterFormatError(f"unusable shape for {key!r}: {ndim} dimensions") from error
        array.flags.writeable = False
        state[key] = array
        total_nbytes += buffer_nbytes
    if position != len(table):
        raise AdapterFormatError(
            f"{len(table) - position} trailing bytes after {num_tensors} shape-table entries"
        )
    return AdapterRecord(user_id=user_id, round=int(round), state=state, nbytes=total_nbytes)


def open_adapter_record(path: Union[str, Path]) -> AdapterRecord:
    """Map an ``A1`` file and decode it with full verification.

    The returned record's arrays are zero-copy views into the mapping (the
    mapping is kept alive by the views themselves); an empty file and every
    damage class raise :class:`AdapterFormatError`.
    """
    path = Path(path)
    with path.open("rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:  # cannot mmap an empty file
            raise AdapterFormatError("truncated header") from error
    return unpack_adapter_record(mapped)
