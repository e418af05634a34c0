"""Shared helpers for the codec layer: Arrow binary-array ↔ numpy
conversion and a picklable lazy zstd codec holder.

Lives in its own module so fsst ↔ bytescodecs need no import cycle and
no function does a runtime `import tokcodec...` (worker processes that
received the code by value — see __ray_entry__ — can't import the
package by name)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_PA_TYPES = {
    "string": pa.string(),
    "binary": pa.binary(),
    "large_string": pa.large_string(),
    "large_binary": pa.large_binary(),
}


class _LazyCodec:
    """pa.Codec holder that pickles as a reset instance — pa.Codec itself
    is an unpicklable C++ wrapper and module globals must stay picklable
    for cloudpickle by-value shipping."""

    def __init__(self):
        self._c = None

    def get(self):
        if self._c is None:
            self._c = pa.Codec("zstd")
        return self._c

    def __reduce__(self):
        return (_LazyCodec, ())


zstd_lazy = _LazyCodec()


def dispatch(decoders: dict, enc: dict):
    """Decode ``enc`` with its codec's entry in ``decoders``: a name the
    table lacks (a corrupt header, or a codec this reader does not have)
    is a ValueError, not a KeyError or a wrong decoder."""
    fn = decoders.get(enc["c"])
    if fn is None:
        raise ValueError(f"unknown codec {enc['c']!r}")
    return fn(enc)


def arr_to_np(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(lengths int64[n], data uint8[total]) for a null-free binary-ish array."""
    if arr.null_count:
        raise ValueError("bytes codecs expect null-free input")
    t = arr.type
    if t in (pa.large_string(), pa.large_binary()):
        off_dt = np.int64
    else:
        off_dt = np.int32
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=off_dt)[arr.offset : arr.offset + len(arr) + 1]
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)[off[0] : off[-1]]
        if len(off)
        else np.empty(0, np.uint8)
    )
    lengths = np.diff(off).astype(np.int64)
    return lengths, data


def np_to_arr(lengths: np.ndarray, data: np.ndarray, pa_name: str) -> pa.Array:
    t = _PA_TYPES[pa_name]
    large = pa_name.startswith("large")
    off_dt = np.int64 if large else np.int32
    offsets = np.empty(len(lengths) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    return pa.Array.from_buffers(
        t,
        len(lengths),
        [None, pa.py_buffer(offsets.astype(off_dt, copy=False)), pa.py_buffer(data)],
    )


def type_name(t: pa.DataType) -> str:
    for name, typ in _PA_TYPES.items():
        if t == typ:
            return name
    raise ValueError(f"unsupported bytes type {t}")
