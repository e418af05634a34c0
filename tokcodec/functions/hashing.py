"""Every deterministic hash in tokcodec, and the Arrow string → byte-span
view they run on.

Python's builtin hash() is salted per process — useless for distributed
dedup — so strings hash with FNV-1a and ints with the splitmix64
finalizer.  Bloom bits are stored in block headers and the dedup,
sample and sketch stages key off these values, so each hash is defined
here once; `tests/test_hash_pins.py` pins their outputs.

`hash_str` is the scalar reference; the span kernels are the vectorized
forms used on hot paths: one numpy Horner pass over the flat byte
buffer, spans sorted by length so each position touches only
still-active spans, and the last few long spans finished one by one —
total work O(total bytes), with per-span Python only on that tail.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_GOLDEN = 0x9E3779B97F4A7C15
#: second, independent 64-bit basis (golden-ratio-mixed offset) — the
#: high half of the 128-bit fingerprint and bloom's second lane
_FNV_OFFSET2 = _FNV_OFFSET ^ _GOLDEN
_FNV_BASES = (_FNV_OFFSET, _FNV_OFFSET2)
_PRIME = np.uint64(_FNV_PRIME)


def hash_str(s: str | bytes, basis: int = _FNV_OFFSET) -> int:
    """Deterministic 64-bit FNV-1a (scalar reference implementation)."""
    h = basis
    for c in s.encode() if isinstance(s, str) else bytes(s):
        h = ((h ^ c) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def splitmix64(u: np.ndarray, seed: int = _GOLDEN) -> np.ndarray:
    """splitmix64 finalizer of ``u + seed`` over uint64 values → a new
    uint64 array.  FNV over short keys is stable but not threshold-
    uniform; this avalanche pass makes the high bits unbiased."""
    with np.errstate(over="ignore"):
        z = u + np.uint64(seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def flat_utf8(
    texts: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat byte view of a string/binary array: (byte buffer, per-doc
    offsets, n_docs), nulls as empty spans, rebased to THIS slice's byte
    window (sliced arrays share the parent buffer — scanning outside the
    window yields phantom content).  Zero-copy over the data buffer."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    b = texts.cast(pa.large_binary())
    if b.null_count:
        b = pc.fill_null(b, b"")
    bufs = b.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int64)[b.offset : b.offset + len(b) + 1]
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, np.uint8)
    )
    if len(off):
        base = int(off[0])
        data = data[base : int(off[-1])]
        if base:
            off = off - base
    else:
        off = np.zeros(1, dtype=np.int64)
    return data, off, n


_MASK = (1 << 64) - 1
# Once at most this many spans are still active, each is finished on its
# own (``finish``): a vectorized position costs a few numpy calls (~5 us)
# whatever the number of spans, so one long span left alone in a batch
# cost ~7 us per byte, 7 s for a 1 MB doc.
_TAIL_SPANS = 16


def _fnv_step(h: np.ndarray, row: np.ndarray) -> None:
    np.bitwise_xor(h, row, out=h)
    np.multiply(h, _PRIME, out=h)


def _fnv_finish(h: np.ndarray, seg: np.ndarray) -> None:
    """``_fnv_step`` over the elements of ``seg`` in turn, for the lanes
    ``h`` of one span: xor and multiply do not commute, so a scalar loop."""
    vals = seg.tolist()
    for j in range(len(h)):
        x = int(h[j])
        for c in vals:
            x = ((x ^ c) * _FNV_PRIME) & _MASK
        h[j] = x


def _poly_step(h: np.ndarray, row: np.ndarray) -> None:
    np.multiply(h, _PRIME, out=h)
    np.add(h, row, out=h)


def _poly_finish(h: np.ndarray, seg: np.ndarray) -> None:
    """``_poly_step`` over all of ``seg`` (L elements) at once, in closed
    form: h * P^L + sum(seg[i] * P^(L-1-i)) mod 2^64, the powers from a
    wrapping uint64 cumulative product."""
    pw = np.full(len(seg), _PRIME, dtype=np.uint64)
    pw[0] = 1
    with np.errstate(over="ignore"):
        np.multiply.accumulate(pw, out=pw)  # pw[k] = P^k
        tail = int(np.multiply(seg.astype(np.uint64), pw[::-1]).sum(dtype=np.uint64))
    scale = int(pw[-1]) * _FNV_PRIME
    for j in range(len(h)):
        h[j] = (int(h[j]) * scale + tail) & _MASK


def _horner(data, starts, lengths, init, step, finish) -> np.ndarray:
    """The shared active-suffix loop: uint64[len(init), n], lane j of
    span i folded from ``init[j]`` over ``data[starts[i]:starts[i] +
    lengths[i]]`` with ``step(h, row)``, where h holds every lane of the
    still-active spans and row their elements at one position.

    Spans are sorted by length, so position i touches only the suffix
    ``ls > i``, which stays the same up to the next span length; the
    element gather is shared by all lanes and done in place
    (preallocated buffers, int32 indices when they fit).  Once at most
    ``_TAIL_SPANS`` spans are left, ``finish(h_span, rest)`` folds each
    one's remaining elements into its lanes, giving the same values."""
    n = len(starts)
    h = np.empty((len(init), n), dtype=np.uint64)
    h[:] = np.array(init, dtype=np.uint64)[:, None]
    if n == 0 or len(data) == 0:
        return h
    order = np.argsort(lengths, kind="stable")
    ls = lengths[order]
    idx = starts[order].astype(np.int32 if len(data) < (1 << 31) - 1 else np.int64)
    row = np.empty(n, dtype=data.dtype)
    pos = 0
    j0 = int(np.searchsorted(ls, 0, side="right"))
    with np.errstate(over="ignore"):
        while j0 < n:
            if n - j0 <= _TAIL_SPANS:
                for j in range(j0, n):
                    s0 = int(idx[j])
                    finish(h[:, j], data[s0:s0 + int(ls[j]) - pos])
                break
            end = int(ls[j0])  # the suffix from j0 stays active up to here
            hs, rs, ids = h[:, j0:], row[j0:], idx[j0:]
            for _ in range(end - pos):
                np.take(data, ids, out=rs)
                step(hs, rs)
                ids += 1
            pos = end
            j0 = int(np.searchsorted(ls, pos, side="right"))
    out = np.empty_like(h)
    out[:, order] = h
    return out


def fnv1a_spans(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, lanes: int = 1
) -> np.ndarray:
    """FNV-1a of n byte spans (``data[starts[i] : starts[i]+lengths[i]]``)
    → uint64[lanes, n].  Lane 0 is value-identical to ``hash_str`` per
    span; lane 1 (``lanes=2``) is the independent `_FNV_OFFSET2` family,
    sharing the byte gather, so two lanes cost ~1.5× one, not 2×."""
    return _horner(data, starts, lengths, _FNV_BASES[:lanes], _fnv_step, _fnv_finish)


def fnv1a_words2(data: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Two-lane WORD-AT-A-TIME FNV-style hash of contiguous spans
    (``data[off[i]:off[i+1]]``) → uint64[2, n] (lo, hi).

    h = ((h ^ u64_word) * P) per zero-padded little-endian 8-byte word,
    then h = ((h ^ byte_len) * P) so zero padding can't collide.  NOT
    byte-FNV-compatible — it's the throughput form for content
    fingerprints, where only determinism and collision resistance
    matter.  One packing scatter builds an 8-byte-aligned buffer, then
    the active-suffix Horner runs over uint64 words: 8× fewer numpy
    passes and ~4× less gather traffic than the byte loop, which is what
    lets the vectorized fingerprint beat a C md5 loop on LONG docs too
    (see tools/bench_fingerprint.py)."""
    lengths = np.diff(off)
    nwords = (lengths + 7) >> 3
    wo = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(nwords, out=wo[1:])
    packed = np.zeros(int(wo[-1]) * 8, dtype=np.uint8)
    total_b = int(lengths.sum())
    if total_b:
        base = int(off[0])
        tgt = np.arange(total_b, dtype=np.int64)
        tgt += np.repeat(wo[:-1] * 8 - (off[:-1] - base), lengths)
        packed[tgt] = data[base : int(off[-1])]
    h = _horner(packed.view(np.uint64), wo[:-1], nwords, _FNV_BASES, _fnv_step, _fnv_finish)
    with np.errstate(over="ignore"):
        _fnv_step(h, lengths.astype(np.uint64))
    return h


def poly_spans(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """64-bit polynomial (Horner) hash of n byte spans: ``h = h*P + byte``
    from h=0, P the FNV prime → uint64[n].  The active-suffix loop keeps
    it O(total bytes) regardless of length skew — one 1 MB outlier doc
    in a batch costs its own bytes, not n_docs × max_len full-batch
    passes."""
    return _horner(data, starts, lengths, (0,), _poly_step, _poly_finish)[0]


def fnv1a_batch(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """FNV-1a of every string/binary in `arr` → uint64[n], value-identical
    to ``hash_str`` per element (nulls hash like the empty string)."""
    data, off, _ = flat_utf8(arr)
    return fnv1a_spans(data, off[:-1], np.diff(off))[0]
