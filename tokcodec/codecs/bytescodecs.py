"""Binary/string codecs: plain (lengths + blob), dictionary, FSST.

Operate on pyarrow Binary/String arrays (zero-copy buffer access in,
exact Arrow array reconstruction out).  Nulls are handled one level up
(blocks.py strips/reapplies validity); arrays here are null-free.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tokcodec.codecs.fsst import can_merge, decode_fsst, table_of, try_fsst
from tokcodec.codecs.intcodecs import _child, _est_z, _finish, _first_min, _node, _trials, decode_int
from tokcodec.codecs.util import _PA_TYPES, arr_to_np, dispatch, np_to_arr, type_name

# FSST is worthwhile on short-ish strings; guard against pathological
# per-string loop counts on huge documents (SURVEY.md §7 hard parts).
FSST_MAX_AVG_LEN = 512


# ---------------------------------------------------------------- plain ----


def _enc_plain_bytes(arr: pa.Array) -> dict:
    lengths, data = arr_to_np(arr)
    return _node(
        "pbytes",
        {"pa": type_name(arr.type), "n": len(arr)},
        [np.ascontiguousarray(data)],
        {"len": _child(lengths)},
    )


def _dec_plain_bytes(enc: dict) -> pa.Array:
    m = enc["m"]
    lengths = decode_int(enc["k"]["len"]).astype(np.int64)
    data = np.frombuffer(enc["p"][0], dtype=np.uint8)
    return np_to_arr(lengths, data, m["pa"])


# ----------------------------------------------------------------- fsst ----

# FSST screen: a trial on more than SCREEN_MIN string bytes first builds a
# symbol table on a SCREEN_BYTES prefix and scores that prefix's FSST
# encoding against plain; the full trial (a table on up to fsst.SAMPLE_BYTES
# plus the encode) runs only when FSST wins there.  Over the codec census
# corpus every trial input's prefix ratio fsst/plain sits on the same side
# of 1 as its full ratio: token doc ids 1.06-1.19 (full 1.56-1.91),
# customer and supplier names ~2.5 (full 2.4-4.9), event props 1.03-1.10
# (full 1.03-1.11), while document text reads 0.79-0.93 and wins in full at
# 0.61-0.67.  The screen costs a ~2 KB table build where a losing doc-id
# trial cost a 32 KB build plus the encode, ~14 ms of a ~60 ms token block.
SCREEN_MIN = 4096
SCREEN_BYTES = 2048


def _fsst_trial(arr: pa.Array) -> dict | None:
    """``try_fsst(arr)``, or None without the full trial when FSST does not
    beat plain on the screen prefix."""
    lengths, _ = arr_to_np(arr)
    ends = np.cumsum(lengths)
    if len(ends) and ends[-1] > SCREEN_MIN:
        head = arr.slice(0, int(np.searchsorted(ends, SCREEN_BYTES)) + 1)
        f = try_fsst(head)
        if f is None:
            return None
        plain = _est_z(_enc_plain_bytes(head))
        if _est_z(f, plain) >= plain:
            return None
    return try_fsst(arr)


# ----------------------------------------------------------------- dict ----


def _enc_dict_bytes(arr: pa.Array, fsst_values: bool = True) -> dict:
    d = pc.dictionary_encode(arr)
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uvals = d.dictionary
    # the unique-value blob takes FSST only where its estimate is lower:
    # on a few short values the symbol table outweighs what it saves.  A
    # blob in which no byte pair repeats enough to be merged gets no trial
    # (``can_merge``): the token ``source`` column's 8 values, 70 B, spent
    # ~1.2 ms of a ~5 ms column on one
    venc = _enc_plain_bytes(uvals)
    f = None
    if fsst_values and can_merge(venc["p"][0]):
        f = _fsst_trial(uvals)
    if f is not None:
        plain = _est_z(venc)
        if _est_z(f, plain) < plain:
            venc = f
    return _node(
        "dbytes",
        {"pa": type_name(arr.type), "n": len(arr)},
        k={"codes": _child(codes, allow_dict=False), "uvals": venc},
    )


def _dec_dict_bytes(enc: dict) -> pa.Array:
    m = enc["m"]
    uvals = decode_bytes(enc["k"]["uvals"])
    codes = decode_int(enc["k"]["codes"])
    return pc.take(uvals, pa.array(codes)).cast(_PA_TYPES[m["pa"]])


# ---------------------------------------------------------- auto select ----


def encode_bytes_auto(arr: pa.Array) -> dict:
    """Plain, dictionary or FSST, whichever estimates lowest.  The trials
    score stand-in int children (``_child``); the winner is finished, or
    built on the full array outside trial mode."""
    n = len(arr)
    if n <= 4096:
        # small array: the "sample" is the whole array — return the winner
        with _trials():
            cands = [_enc_plain_bytes(arr)]
            if n:
                distinct = pc.count_distinct(arr).as_py()
                # all distinct: the dictionary's values would be the array
                # itself, encoded as plain or FSST, plus codes, so it cannot
                # beat both and is not built
                if distinct < n:
                    cands.append(_enc_dict_bytes(arr))
                # ≤64 distinct values: dict (≤6-bit codes + tiny value blob)
                # always beats FSST's ≥1 code byte per string — skip the
                # symbol-table build, the costliest step for low-card columns
                # (an all-distinct column has no dict, so it always tries)
                if distinct == n or distinct > 64:
                    f = _fsst_trial(arr)
                    if f is not None:
                        cands.append(f)
            best = _first_min(cands)[0]
        return _finish(best)
    # cap the trial sample by BYTES, not rows: the FSST symbol-table
    # build is O(sample bytes) and dominated encode profiling at 4096
    # rows x ~16 B (~80 ms/partition, ~19% of encode core time); the
    # VLDB'20 reference builds its table from a ~16 KB sample, which
    # loses almost nothing in pick quality.  8 KB decides identically to
    # 16 KB on every corpus column (plain-vs-fsst margins are ~2x) at
    # half the trial cost; the row floor of 128 keeps the >64-uniques
    # dict-vs-fsst gate meaningful (a 64-row sample could never exceed
    # it) while capping long-string trial samples at ~128 rows instead
    # of 256.  An FSST winner re-encodes the full array with the table
    # built on this trial sample (table_of(fs)), so the sample also
    # bounds the table's quality.
    avg_len = max(1, (arr.nbytes - 8 * n) // max(1, n))
    rows = max(128, min(4096, 8192 // avg_len))
    sample = arr.slice(0, rows)
    with _trials():
        dict_cand = _enc_dict_bytes(sample, fsst_values=False)
        cands = [_enc_plain_bytes(sample), dict_cand]
        fs = None
        if dict_cand["k"]["uvals"]["m"]["n"] > 64:  # see small-array shortcut
            fs = _fsst_trial(sample)
        if fs is not None:
            cands.append(fs)
        best = _first_min(cands)[0]["c"]
    if best == "fsst":
        enc = try_fsst(arr, table=table_of(fs))  # reuse the sample-built table
        return enc if enc is not None else _enc_dict_bytes(arr)
    return _enc_plain_bytes(arr) if best == "pbytes" else _enc_dict_bytes(arr)


_BYTES_DECODERS = {"pbytes": _dec_plain_bytes, "dbytes": _dec_dict_bytes, "fsst": decode_fsst}


def decode_bytes(enc: dict) -> pa.Array:
    return dispatch(_BYTES_DECODERS, enc)
