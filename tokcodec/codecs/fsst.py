"""FSST-style string compression, from scratch (per the public FSST paper:
"FSST: Fast Random Access String Compression", Boncz/Neumann/Leis, VLDB'20).

Design (all numpy-vectorized; no per-byte Python loops):

* Symbol table: built on a bounded sample with BPE-style pair merging
  (symbols capped at 8 bytes, table capped at 255 codes; code 255 is the
  escape marker followed by a literal byte).
* Encode: for every byte position compute the longest table symbol
  starting there (one uint64 "next 8 bytes" key per position, matched per
  length via sorted-key searchsorted), then walk the per-string greedy
  chains *in parallel across strings* — the loop count is the max
  symbols-per-string, each iteration vectorized over all active strings.
* Decode: escape/literal disambiguation via run-parity over maximal runs
  of 0xFF (broken at string starts), then one gather through a flat
  symbol table extended with 256 literal entries.

Deterministic given input (no RNG) so resumed runs re-encode identically.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from tokcodec.codecs.intcodecs import _child, _node, decode_int
from tokcodec.codecs.util import arr_to_np, np_to_arr, type_name

ESCAPE = 255
MAX_SYMBOLS = 255  # codes 0..254
MAX_SYM_LEN = 8
SAMPLE_BYTES = 1 << 15  # 32 KB: same compression as 64 KB, ~40% faster build
MAX_STR_LEN = 4096
MAX_MATRIX = 1 << 28  # n_strings * max_len guard for the chain-walk matrix
MIN_PAIR = 4  # the table build merges a byte pair seen at least this often


# ------------------------------------------------------------ table build ----


_SEP = 511  # the code between strings: symbol codes stay below 510
_SINGLES = [bytes([b]) for b in range(256)]


def _build_table(lengths: np.ndarray, data: np.ndarray) -> list[bytes]:
    """BPE-style merge on (lengths, data) sample → list of symbol byte
    strings (≤255 of them, each 1..8 bytes), most useful first."""
    # seq: int32 codes, each string followed by a _SEP separator
    seq = np.full(int(lengths.sum()) + len(lengths), _SEP, dtype=np.int32)
    is_data = np.ones(len(seq), dtype=bool)
    is_data[np.cumsum(lengths + 1) - 1] = False
    seq[is_data] = data
    sym_bytes = list(_SINGLES)
    # the separator's length makes every pair touching it too long to merge
    sym_len = [1] * 512
    sym_len[_SEP] = MAX_SYM_LEN
    next_code = 256
    # Batched BPE: each round counts pairs ONCE, then applies up to 8
    # merges whose codes are mutually disjoint.  Disjointness makes the
    # stale counts exact (merging (a,b) can only change the count of a
    # pair sharing a or b), so the result matches what 8 sequential
    # rounds with re-counting would pick — at 1/8th the counting cost,
    # which dominated table build (~55 ms/partition).
    for _ in range(300):
        if next_code >= 256 + 254:
            break
        # pair key a * 512 + b stays in int32 (codes <= 511)
        keys = seq[:-1] * 512 + seq[1:]
        # candidates: seen >= MIN_PAIR times and merging to <= MAX_SYM_LEN
        # bytes, never across a separator.  In sorted order a key seen c >=
        # MIN_PAIR times equals the key MIN_PAIR - 1 places on at its first
        # c - MIN_PAIR + 1 positions: runs of those give each key and count
        # (ndarray methods and ufuncs, not numpy's Python-level helpers: a
        # 2 KB sample takes ~12 rounds, each a few dozen calls on small
        # arrays, so per-call overhead is most of the build)
        srt = np.sort(keys)
        frequent = srt[: 1 - MIN_PAIR][srt[MIN_PAIR - 1:] == srt[: 1 - MIN_PAIR]]
        nf = len(frequent)
        if not nf:
            break
        first = np.empty(nf + 1, dtype=bool)
        first[0] = first[nf] = True
        np.not_equal(frequent[1:], frequent[:-1], out=first[1:nf])
        bounds = first.nonzero()[0]
        uniq = frequent[bounds[:-1]]
        counts = bounds[1:] - bounds[:-1]
        used: set[int] = set()
        accepted: list[tuple[int, int, int]] = []
        # by count, then key, both descending; a pair merging to over
        # MAX_SYM_LEN bytes is passed over
        for key in uniq[counts.argsort(kind="stable")[::-1]].tolist():
            ka, kb = divmod(key, 512)
            if sym_len[ka] + sym_len[kb] > MAX_SYM_LEN:
                continue
            if ka in used or kb in used:
                continue  # next round sees exact counts for this pair
            used.update((ka, kb))
            accepted.append((ka, kb, key))
            if len(accepted) >= 8 or next_code + len(accepted) >= 256 + 254:
                break
        if not accepted:
            break
        # Disjoint codes also mean the accepted pairs' matches never
        # overlap and no merge creates a match for another, so every merge
        # reads its positions off this round's keys and the sequence is
        # compacted once
        keep = np.ones(len(seq), dtype=bool)
        for ka, kb, key in accepted:
            p = (keys == key).nonzero()[0]
            if ka == kb:
                # non-overlapping greedy-left: drop every second position
                # inside runs of consecutive matches
                if len(p) > 1:
                    run_break = np.concatenate(([True], np.diff(p) > 1))
                    run_start = p[run_break][np.cumsum(run_break) - 1]
                    p = p[((p - run_start) % 2) == 0]
            sym_bytes.append(sym_bytes[ka] + sym_bytes[kb])
            sym_len[next_code] = sym_len[ka] + sym_len[kb]
            seq[p] = next_code
            keep[p + 1] = False
            next_code += 1
        seq = seq[keep]
    # final selection: rank by gain vs escape-everything baseline, ties to
    # the lower code
    cnt = np.bincount(seq, minlength=512)[:next_code]
    codes = np.flatnonzero(cnt)
    gains = cnt[codes] * (2 * np.array(sym_len)[codes] - 1)
    best = codes[np.argsort(-gains, kind="stable")[:MAX_SYMBOLS]]
    return [sym_bytes[code] for code in best.tolist()]


def can_merge(data: np.ndarray) -> bool:
    """Whether some byte pair occurs ``MIN_PAIR`` times in ``data`` (pairs
    across string ends included, which only over-counts).  Without one the
    table holds single bytes only, every byte of the data is in it, so the
    FSST stream is the data byte for byte, its string lengths are the plain
    ones, and FSST costs plain's bytes plus its table: it cannot win."""
    if len(data) < 2:
        return False
    pairs = (data[:-1].astype(np.uint16) << 8) | data[1:]
    return int(np.bincount(pairs, minlength=1).max()) >= MIN_PAIR


# ---------------------------------------------------------------- encode ----


def _sym_keys(table: list[bytes]):
    """Per-length sorted uint64 keys + codes for longest-match lookup."""
    grouped: dict[int, list[tuple[int, int]]] = {}
    for i, s in enumerate(table):
        grouped.setdefault(len(s), []).append((int.from_bytes(s, "little"), i))
    by_len: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for L, pairs in grouped.items():
        pairs.sort()
        keys = np.array([k for k, _ in pairs], dtype=np.uint64)
        codes = np.array([c for _, c in pairs], dtype=np.uint8)
        by_len[L] = (keys, codes)
    return by_len


def try_fsst(arr: pa.Array, table: list[bytes] | None = None) -> dict | None:
    """Encode a null-free binary/string array with FSST; None when FSST is
    not applicable (huge strings, empty input, runaway matrix).  Pass a
    pre-built `table` to skip the sample build (codec selection builds it
    once on the sample and reuses it for the full encode)."""
    n = len(arr)
    if n == 0:
        return None
    lengths, data = arr_to_np(arr)
    n_bytes = len(data)
    if n_bytes == 0:
        return None
    max_len = int(lengths.max())
    if max_len > MAX_STR_LEN or n * max_len > MAX_MATRIX:
        return None

    # ---- table from a prefix sample (unless supplied)
    if table is None:
        take = int(np.searchsorted(np.cumsum(lengths), SAMPLE_BYTES)) + 1
        table = _build_table(lengths[:take], data[: int(lengths[:take].sum())])
    if not table:
        return None
    S = len(table)
    sym_lens = np.array([len(s) for s in table], dtype=np.int64)

    # ---- longest-match per byte position
    pad = np.zeros(n_bytes + MAX_SYM_LEN, dtype=np.uint8)
    pad[:n_bytes] = data
    # the next 8 bytes at every position, little-endian: one overlapping
    # uint64 view with a 1-byte stride over the zero-padded data, copied
    # out once, since a gather from the unaligned view costs ~2-4x one from
    # a contiguous array and every symbol length gathers from it
    key8 = np.ndarray((n_bytes,), dtype="<u8", buffer=pad, strides=(1,)).copy()
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    rem = np.repeat(offsets[1:], lengths) - np.arange(n_bytes)
    token = np.full(n_bytes, -1, dtype=np.int16)  # <0 = unmatched so far
    mlen = np.ones(n_bytes, dtype=np.int64)
    by_len = _sym_keys(table)
    for L in range(MAX_SYM_LEN, 0, -1):
        if L not in by_len:
            continue
        keys, codes = by_len[L]
        mask_l = (np.uint64(1) << np.uint64(8 * L)) - np.uint64(1) if L < 8 else np.uint64(0xFFFFFFFFFFFFFFFF)
        cand = np.flatnonzero((token < 0) & (rem >= L))
        if len(cand) == 0:
            continue
        wk = key8[cand] & mask_l
        idx = np.searchsorted(keys, wk)
        idx[idx >= len(keys)] = 0
        hit = keys[idx] == wk
        hits = cand[hit]
        token[hits] = codes[idx[hit]]
        mlen[hits] = L
    # unmatched bytes → escaped literal (2 output bytes), token = 256+byte
    esc = token < 0
    token[esc] = 256 + data[esc].astype(np.int16)

    # ---- parallel chain walk across strings
    cur = offsets[:-1].copy()
    ends = offsets[1:]
    active = cur < ends
    cols = []
    while active.any():
        col = np.full(n, -1, dtype=np.int16)
        ca = cur[active]
        col[active] = token[ca]
        cur[active] = ca + mlen[ca]
        cols.append(col)
        active = cur < ends
    M = np.stack(cols, axis=1) if cols else np.empty((n, 0), dtype=np.int16)
    valid = M >= 0
    toks = M[valid]  # row-major → per-string order preserved
    ntok_per_str = valid.sum(axis=1)

    # ---- byte stream
    is_esc_tok = toks >= 256
    out_len = np.where(is_esc_tok, 2, 1).astype(np.int64)
    starts = np.cumsum(out_len) - out_len
    stream = np.empty(int(out_len.sum()), dtype=np.uint8)
    stream[starts] = np.where(is_esc_tok, ESCAPE, toks).astype(np.uint8)
    e = np.flatnonzero(is_esc_tok)
    stream[starts[e] + 1] = (toks[e] - 256).astype(np.uint8)
    tok_sid = np.repeat(np.arange(n), ntok_per_str)
    slen = np.bincount(tok_sid, weights=out_len, minlength=n).astype(np.int64)

    table_blob = b"".join(table)
    return _node(
        "fsst",
        {
            "pa": type_name(arr.type),
            "n": n,
            "s": S,
            "sl": [int(x) for x in sym_lens],
        },
        [table_blob, np.ascontiguousarray(stream)],
        {"slen": _child(slen)},
    )


def table_of(enc: dict) -> list[bytes]:
    """Recover the symbol table from an encoded node (for reuse)."""
    blob = enc["p"][0]
    out, pos = [], 0
    for L in enc["m"]["sl"]:
        out.append(blob[pos : pos + L])
        pos += L
    return out


# ---------------------------------------------------------------- decode ----


def decode_fsst(enc: dict) -> pa.Array:
    m = enc["m"]
    n = m["n"]
    sym_lens = np.array(m["sl"], dtype=np.int64)
    table_blob = np.frombuffer(enc["p"][0], dtype=np.uint8)
    stream = np.frombuffer(enc["p"][1], dtype=np.uint8)
    slen = decode_int(enc["k"]["slen"]).astype(np.int64)
    nb = len(stream)

    # string-start positions in the stream (break escape runs there)
    soff = np.concatenate(([0], np.cumsum(slen)))
    is_start = np.zeros(nb + 1, dtype=bool)
    is_start[soff[:-1][slen > 0]] = True
    is_start = is_start[:nb]

    mask255 = stream == ESCAPE
    prev255 = np.concatenate(([False], mask255[:-1]))
    run_start = mask255 & (~prev255 | is_start)
    # escape iff even offset within its maximal 0xFF run
    is_esc = np.zeros(nb, dtype=bool)
    p255 = np.flatnonzero(mask255)
    if len(p255):
        rs = run_start[p255]
        run_id = np.cumsum(rs) - 1
        run_first = p255[rs][run_id]
        is_esc[p255] = ((p255 - run_first) % 2) == 0
    is_lit = np.concatenate(([False], is_esc[:-1]))

    tok_pos = np.flatnonzero(~is_esc)
    tok_byte = stream[tok_pos].astype(np.int64)
    tok_lit = is_lit[tok_pos]

    # extended flat table: symbols then 256 single-byte literal entries
    ext_lens = np.concatenate((sym_lens, np.ones(256, dtype=np.int64)))
    ext_flat = np.concatenate((table_blob, np.arange(256, dtype=np.uint8)))
    ext_offs = np.concatenate(([0], np.cumsum(ext_lens)))
    idx = np.where(tok_lit, m["s"] + tok_byte, tok_byte)

    out_lens = ext_lens[idx]
    total = int(out_lens.sum())
    starts = np.cumsum(out_lens) - out_lens
    j = np.arange(total) - np.repeat(starts, out_lens)
    src = np.repeat(ext_offs[idx], out_lens) + j
    out = ext_flat[src]

    # per-string decoded lengths
    sid_per_byte = np.repeat(np.arange(n), slen)
    tok_sid = sid_per_byte[tok_pos]
    dec_len = np.bincount(tok_sid, weights=out_lens, minlength=n).astype(np.int64)
    return np_to_arr(dec_len, out, m["pa"])
