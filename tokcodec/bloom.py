"""Per-block Bloom filters for equality predicates — the Parquet
bloom-filter idea (PARQUET-41) on TOKB blocks.

Zone-map min/max prunes range predicates on sorted layouts, but a point
lookup on a high-cardinality UNSORTED column (`doc_id == "x"` over
100 TB) skips nothing: every block's [min, max] straddles every id.  A
small per-block bloom (default ~10 bits/key ≈ 1% false-positive with
k=6) lets `col == lit` and `col.isin(...)` skip blocks at the header
read — the payload is never touched.

Opt-in per column (`bloom_cols=` on encode_table / TokbDatasink /
encode_dataset): the filter costs ~n×10 bits in the block header, which
only pays for columns you actually point-look-up.

Hashing (all from `functions/hashing.py`): strings/binary use the
FNV-1a span kernel of the dedup stages (two independent bases), ints
splitmix64 (two seeds); probes are the scalar forms of the same hashes.
Bit positions follow Kirsch–Mitzenmacher double hashing:
idx_i = (h1 + i·h2) mod m, m a power of two.
"""

from __future__ import annotations

import base64

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.functions.hashing import (
    _FNV_BASES,
    _GOLDEN,
    flat_utf8,
    fnv1a_spans,
    hash_str,
    splitmix64,
)

_K = 6  # hash count; ~optimal for 10 bits/key, FP ≈ 1%
_BITS_PER_KEY = 10
_MIN_BITS = 64
_SM_SEEDS = (_GOLDEN, 0xBF58476D1CE4E5B9)


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1)).bit_length()


def _string_hash_pair(arr: pa.Array) -> np.ndarray:
    if arr.null_count:
        arr = arr.drop_null()
    # both lanes in ONE shared byte-gather pass (~1.5x, not 2x)
    data, off, _ = flat_utf8(arr)
    return fnv1a_spans(data, off[:-1], np.diff(off), lanes=2)


def _int_hash_pair(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    if arr.null_count:
        arr = arr.drop_null()
    # astype, NOT a checked Arrow cast: uint64 values above int64 max
    # must reinterpret (two's-complement domain), never raise; smaller
    # signed widths sign-extend, matching the scalar probe's domains
    vals = arr.to_numpy(zero_copy_only=False).astype(np.uint64)
    return splitmix64(vals, _SM_SEEDS[0]), splitmix64(vals, _SM_SEEDS[1])


def _scalar_hash_pair(value, is_string: bool) -> tuple[int, int] | None:
    if is_string:
        return hash_str(value, _FNV_BASES[0]), hash_str(value, _FNV_BASES[1])
    iv = int(value)
    if not -(2**63) <= iv < 2**64:
        return None  # outside any 64-bit column's domain: no claim
    v = np.array([iv % 2**64], dtype=np.uint64)
    return int(splitmix64(v, _SM_SEEDS[0])[0]), int(splitmix64(v, _SM_SEEDS[1])[0])


def _supported(t: pa.DataType) -> str | None:
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "str"
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_dictionary(t):
        return _supported(t.value_type)
    return None


def build_bloom(arr: pa.Array) -> dict | None:
    """Bloom (`_BITS_PER_KEY` bits per key) over the non-null values of
    a string/binary/int column → {"m", "k", "t", "b64"} for the block
    header, or None when the column type is unsupported or all-null."""
    t = arr.type
    kind = _supported(t)
    if kind is None:
        return None
    if pa.types.is_dictionary(t):
        arr = pc.cast(arr, t.value_type)
    n = len(arr) - arr.null_count
    if n == 0:
        return None
    if kind == "str":
        h1, h2 = _string_hash_pair(arr)
    else:
        h1, h2 = _int_hash_pair(arr)
    m = _next_pow2(max(_MIN_BITS, n * _BITS_PER_KEY))
    mask = np.uint64(m - 1)
    bits = np.zeros(m, dtype=bool)
    with np.errstate(over="ignore"):
        for i in range(_K):
            bits[(h1 + np.uint64(i) * h2) & mask] = True
    packed = np.packbits(bits, bitorder="little")
    return {
        "m": m,
        "k": _K,
        "t": kind,
        "b64": base64.b64encode(packed.tobytes()).decode(),
    }


def _bitmap(bloom: dict) -> np.ndarray:
    """The filter's packed bits, decoded once and cached on the dict:
    isin() probes the same filter once per candidate value."""
    packed = bloom.get("_bits")
    if packed is None:
        packed = np.frombuffer(base64.b64decode(bloom["b64"]), dtype=np.uint8)
        bloom["_bits"] = packed
    return packed


def any_might_contain_ints(bloom: dict, arr: pa.Array) -> bool:
    """Vectorized 'could ANY of these int values be in the filter' —
    the file-skip probe for the incremental-dedup shard blooms
    (functions/incdedup.py): a shard file whose bloom provably contains
    none of a batch's candidate hashes is never read.  Uses the same
    `_int_hash_pair` as build_bloom, so build and probe are
    value-identical by construction.  True = maybe (must read),
    False = provably no overlap (skip the file)."""
    if bloom.get("t") != "int":
        return True
    if len(arr) - arr.null_count == 0:
        return False  # no candidates: nothing to look up
    h1, h2 = _int_hash_pair(arr)
    packed = _bitmap(bloom)
    mask = np.uint64(bloom["m"] - 1)
    alive = np.ones(len(h1), dtype=bool)
    with np.errstate(over="ignore"):
        for i in range(bloom["k"]):
            idx = (h1 + np.uint64(i) * h2) & mask
            bit = (
                packed[(idx >> np.uint64(3)).astype(np.int64)]
                >> (idx & np.uint64(7)).astype(np.uint8)
            ) & np.uint8(1)
            alive &= bit.astype(bool)
            if not alive.any():
                return False
    return True


def might_contain(bloom: dict, value) -> bool:
    """Conservative membership probe (True = maybe, False = provably
    absent).  Values whose type can't map onto the bloom's hash domain
    return True (no claim)."""
    if value is None:
        return True  # nulls aren't in the bloom; equality to null is
        # handled by the null-count stats, not here
    # type/domain agreement: string blooms answer str/bytes probes, int
    # blooms answer int probes; everything else is "maybe"
    if bloom["t"] == "str":
        if not isinstance(value, (str, bytes)):
            return True
        pair = _scalar_hash_pair(value, True)
    else:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            return True
        pair = _scalar_hash_pair(value, False)
    if pair is None:
        return True
    h1, h2 = pair
    m = bloom["m"]
    packed = _bitmap(bloom)
    for i in range(bloom["k"]):
        idx = (h1 + i * h2) % m
        if not (packed[idx >> 3] >> (idx & 7)) & 1:
            return False
    return True
